"""Rewrite perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py

Runs each workload's operation once on the reference inputs and stores the
values the benchmark compares against (losses, weight norms, results rows,
hypervolumes).  Rerun it only for a change that is meant to move those
values, and say so in CHANGES.md.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# keep the benchmark directory free of generated files
sys.dont_write_bytecode = True
ROOT = HERE.parent


def main() -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import workloads
    from worker import Runner, _import_hvgan

    modules = _import_hvgan(src)
    work = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            spec = workloads.make(name, work / name, workloads.REFERENCE_SEED)
            _, stdouts = Runner(modules, name).run_op(spec)
            reference[name] = workloads.check(name, spec, stdouts)[1]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    out = HERE / "reference.json"
    out.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
