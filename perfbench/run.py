"""hvgan benchmark: three workloads run through the ``hvgan`` CLI entry point.

    python3 perfbench/run.py --workload {pretrain,compare,hv} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a source checkout of hvgan; the package is imported
from the checkout's ``src`` directory and nothing is installed.  The inputs
are made from ``--seed`` and written under ``.perfbench_work/`` (removed at
the end).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported here or in a child: the
# conv matrices are small, and OpenBLAS's default pool made an adversarial
# step ~10x slower when other processes competed for the CPUs.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
# keep the benchmark directory free of generated files
sys.dont_write_bytecode = True
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKER_GRACE_S = 100

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _environment(backend: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src_hash.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "kernels_backend": backend,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def _run_worker(spec_path: Path, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=spec_path.parent)
    try:
        out, err = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"attempted": 1, "failed": 1, "problems": ["worker timed out"]}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1,
                "problems": [f"worker exited {proc.returncode}: {err[-2000:]}"]}
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "compare", "hv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "hvgan" / "cli.py").is_file():
        print(f"error: no hvgan sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec = {
            "workload": args.workload,
            "src": str(SRC),
            "seeded": workloads.make(args.workload, work / "seeded", args.seed),
            "reference": workloads.make(
                args.workload, work / "reference", workloads.REFERENCE_SEED
            ),
        }
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result = _run_worker(spec_path, args.seconds, args.trace)
    except Exception:  # inputs could not be made: report a failed run
        result = {"attempted": 1, "failed": 1, "problems": [traceback.format_exc(limit=4)]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted, failed = result["attempted"], result["failed"]
    walls = result.get("walls_s", [])
    setup_times = result.get("setup_s", [])

    env = _environment(result.get("kernels_backend", "unknown"))
    print("env " + json.dumps(env))
    for p in result["problems"]:
        print(f"problem: {p}")
    print(f"operations attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / max(attempted, 1):.6g}")

    metrics = {}
    if args.trace:
        from tracer import PER_LAYER_UNITS

        per_layer = result.get("per_layer", {})
        for name, unit in PER_LAYER_UNITS.items():
            metrics[name] = {"value": per_layer.get(name, 0.0), "unit": unit}
    else:
        values = {
            "setup_s": statistics.median(setup_times) if setup_times else 0.0,
            "wall_s": statistics.median(walls) if walls else 0.0,
            "peak_rss_mb": result.get("peak_rss_mb", 0.0),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"wall_s samples {len(walls)}: " + " ".join(f"{w:.4f}" for w in walls))
        print(f"setup_s samples {len(setup_times)}: "
              + " ".join(f"{t:.4f}" for t in setup_times))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    correct = failed == 0 and attempted > 0 and bool(walls)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
