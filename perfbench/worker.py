"""One measuring process of the hvgan benchmark (started by run.py).

It imports hvgan from the checkout, runs the workload's operation on the
reference inputs and compares the outputs with reference.json, then repeats
the operation on the seeded inputs for the given number of seconds, checking
every repetition, and times the zero-work setup command in fresh interpreters
spread over the same window.  With tracing on it alternates untraced and
traced repetitions instead.  The last line of its standard output is one JSON
object.

    python3 perfbench/worker.py SPEC_JSON --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
# keep the benchmark directory free of generated files
sys.dont_write_bytecode = True

# fresh interpreters timed for setup_s, spread evenly over the timed window so
# that they see the same machine load as the repetitions
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 10
_BOOTSTRAP = (
    "import sys; sys.path.insert(0, sys.argv[1]); from hvgan.cli import main; "
    "sys.exit(main(sys.argv[2:]))"
)


def _import_hvgan(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import hvgan
    from hvgan import autodiff, cli, kernels, losses, model

    if Path(hvgan.__file__).resolve().parent != src / "hvgan":
        raise ImportError(f"hvgan was imported from {hvgan.__file__}, not {src}")
    return {"cli": cli, "model": model, "kernels": kernels,
            "autodiff": autodiff, "losses": losses}


class Runner:
    """Runs operations, checks them and counts what was attempted and failed."""

    def __init__(self, modules: dict, workload: str, tracer=None):
        import workloads

        self.w = workloads
        self.tracer = tracer
        self.cli = modules["cli"]
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprint = None

    def setup(self, spec: dict, src: str) -> float | None:
        """Time the zero-work commands in a fresh interpreter."""
        self.attempted += 1
        t0 = perf_counter()
        for argv in spec["setup"]:
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", _BOOTSTRAP, src, *argv],
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                    timeout=SETUP_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                self.failed += 1
                self.problems.append(f"setup {argv[0]} timed out")
                return None
            if proc.returncode != 0:
                self.failed += 1
                self.problems.append(f"setup {argv[0]} exited {proc.returncode}: "
                                     f"{proc.stderr[-500:]}")
                return None
        return perf_counter() - t0

    def run_op(self, spec: dict, traced: bool = False) -> tuple[float, list[str]]:
        """Run every command of one operation; return (seconds, stdouts)."""
        wall, stdouts = 0.0, []
        if traced:
            self.tracer.install()
        try:
            for argv in spec["op"]:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    t0 = perf_counter()
                    code = self.cli.main(argv)
                    wall += perf_counter() - t0
                if code != 0:
                    raise self.w.CheckFailed(
                        f"hvgan {argv[0]} exited {code}: {err.getvalue().strip()}"
                    )
                stdouts.append(out.getvalue())
        finally:
            if traced:
                self.tracer.uninstall()
        return wall, stdouts

    def attempt(self, spec: dict, reference=None, traced: bool = False) -> float | None:
        """One checked operation.  Returns its time, or None if it failed.

        Repetitions on the seeded inputs must write byte-identical outputs;
        the reference operation must match reference.json within tolerance.
        """
        self.attempted += 1
        try:
            wall, stdouts = self.run_op(spec, traced)
            fingerprint, values = self.w.check(self.workload, spec, stdouts)
            if reference is not None:
                diffs = self.w.compare_to_reference(values, reference, where="reference")
                if diffs:
                    raise self.w.CheckFailed("; ".join(diffs[:3]))
            elif self.fingerprint is None:
                self.fingerprint = fingerprint
            elif fingerprint != self.fingerprint:
                changed = sorted(
                    k for k in fingerprint if fingerprint[k] != self.fingerprint.get(k)
                )
                raise self.w.CheckFailed(f"outputs changed between repetitions: {changed}")
            return wall
        except Exception as e:  # one failed operation must not stop the run
            self.failed += 1
            self.problems.append(f"{type(e).__name__}: {e}")
            if not isinstance(e, self.w.CheckFailed):
                self.problems.append(traceback.format_exc(limit=4))
            return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))

    modules = _import_hvgan(Path(spec["src"]))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(modules)
    runner = Runner(modules, spec["workload"], tracer)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    # the reference operation also warms caches before anything is timed
    runner.attempt(spec["reference"], reference[spec["workload"]])

    walls, traced_walls, setups = [], [], []
    setup_runs = 0 if tracer else SETUP_RUNS
    start = perf_counter()
    deadline = start + args.seconds
    while perf_counter() < deadline or len(walls) < 2 or (tracer and len(traced_walls) < 2):
        next_setup = start + len(setups) * args.seconds / max(setup_runs, 1)
        if len(setups) < setup_runs and perf_counter() >= next_setup:
            setups.append(runner.setup(spec["seeded"], spec["src"]))
            continue
        traced = tracer is not None and len(traced_walls) < len(walls)
        wall = runner.attempt(spec["seeded"], traced=traced)
        if wall is None:
            if traced:
                tracer.spans.clear()
            if runner.failed > 3:
                break
            continue
        if traced:
            tracer.end_rep(wall)
            traced_walls.append(wall)
        else:
            walls.append(wall)

    while len(setups) < setup_runs and runner.failed <= 3:
        setups.append(runner.setup(spec["seeded"], spec["src"]))

    result = {
        "setup_s": [t for t in setups if t is not None],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "walls_s": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernels_backend": modules["kernels"].BACKEND,
    }
    if tracer is not None and walls:
        result["per_layer"] = tracer.metrics(statistics.fmean(walls))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
