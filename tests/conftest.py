"""Run the suite from a source checkout without installing the package.

The checkout's ``src`` goes first on ``sys.path`` for this process and on
``PYTHONPATH`` for the ``python -m hvgan`` subprocesses some tests start.
The session header names numpy's version, BLAS kernel and AVX-512 features.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)


def _openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked for this CPU."""
    import ctypes

    import numpy as np

    root = Path(np.__file__).parent
    libs = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    if not libs:
        return "unknown"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes = ()
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _avx512_features() -> str:
    """The AVX-512 features numpy's runtime dispatch found enabled."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    on = [name for name, enabled in __cpu_features__.items()
          if enabled and name.startswith("AVX512")]
    return " ".join(on) or "none"


def pytest_report_header(config):
    """numpy, its BLAS kernel and its AVX-512 features: the golden byte pins
    hold for one kernel, so a pin that fails on another CPU explains itself.
    numpy is imported here without hvgan, as ``test_acceptance.py``, the
    first module collected, imports it, so the suite's BLAS thread count
    stays what it was."""
    def probe(read):
        try:
            return read()
        except Exception:
            return "unknown"

    import numpy as np

    return (f"numpy {np.__version__}, OpenBLAS core {probe(_openblas_core)}, "
            f"AVX-512: {probe(_avx512_features)}")
