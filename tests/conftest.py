"""Run the suite from a source checkout without installing the package.

The checkout's ``src`` goes first on ``sys.path`` for this process and on
``PYTHONPATH`` for the ``python -m hvgan`` subprocesses some tests start.
The session header names numpy's version, BLAS kernel, BLAS thread count
and AVX-512 features, as ``hvgan._environment()`` reads them back.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)


def pytest_report_header(config):
    """numpy, its BLAS kernel, its BLAS thread count and its AVX-512
    features: the golden byte pins hold for one kernel, so a pin that fails
    on another CPU explains itself. numpy is imported here before hvgan, as
    ``test_acceptance.py``, the first module collected, imports them; hvgan
    then sets the bundled OpenBLAS to one thread, so the in-process tests
    run on the thread count the header reads back."""
    import numpy  # noqa: F401  (first, as the docstring says)

    import hvgan

    env = hvgan._environment()
    return (f"numpy {env['numpy']}, OpenBLAS core {env['blas_core']}, "
            f"{env['blas_threads']} BLAS thread(s), AVX-512: {env['avx512']}")
