"""hvgan: hypervolume-scalarized multi-loss GAN training at desk scale.

The package bundles a small multi-objective toolkit (Pareto filtering, exact
and Monte-Carlo hypervolume), a negative-log-hypervolume loss scalarizer with
its induced gradient weights, a minimal tape-based reverse-mode autodiff, a
GAN loss zoo, tiny conv generator/discriminator nets with Adam and a
two-phase training loop, PSNR/SSIM/GMSD metrics, and PGM/PPM image plumbing.
The package root exports only ``__version__``; import everything else from
its module (``from hvgan.moo import pareto_filter``).
"""

import os
import sys


def _openblas():
    """numpy's bundled OpenBLAS, opened by path (its symbols are not global),
    or None where numpy is not loaded or bundles no OpenBLAS. The symbols
    hvgan calls come with their signatures declared; one the library lacks
    is skipped."""
    numpy = sys.modules.get("numpy")
    if numpy is None:
        return None
    import ctypes
    from pathlib import Path

    root = Path(numpy.__file__).parent
    libs = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))
    for name, argtypes, restype in (
        ("scipy_openblas_set_num_threads64_", (ctypes.c_int,), None),
        ("scipy_openblas_get_num_threads64_", (), ctypes.c_int),
        ("scipy_openblas_get_corename64_", (), ctypes.c_char_p),
    ):
        fn = getattr(lib, name, None)
        if fn is not None:  # CDLL caches the function, so later reads get these
            fn.argtypes, fn.restype = argtypes, restype
    return lib


# BLAS runs on one thread unless the user sets these variables, or sets
# OMP_NUM_THREADS, which OpenBLAS and MKL fall back to. The matrices here are
# small, and OpenBLAS's default pool made an adversarial step about 10x slower
# when other processes competed for the cores. OpenBLAS reads the variables
# only when numpy loads it, so where numpy came first and the user set
# neither variable OpenBLAS reads, the count is set on numpy's OpenBLAS
# itself; a numpy without the bundled library or its setter is left alone.
def _blas_policy() -> None:
    if "OMP_NUM_THREADS" in os.environ:
        return
    if "OPENBLAS_NUM_THREADS" not in os.environ:
        setter = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter(1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


_blas_policy()


def _glibc() -> str:
    """The glibc version, such as "glibc 2.36", or "" under another C library."""
    try:
        return os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return ""


# Under glibc, buffers below 32 MiB come from the heap and up to 256 MiB of
# freed heap stays mapped, unless the user sets MALLOC_MMAP_THRESHOLD_ or
# MALLOC_TRIM_THRESHOLD_. glibc's defaults returned each freed activation,
# gradient and im2col buffer to the OS and faulted it back in on the next
# step, about 400 minor faults per pretraining step. mallopt acts on the
# running process, so this works whatever the import order. Other C
# libraries are left alone.
def _heap_policy() -> None:
    if not _glibc():
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD is -1 in glibc's malloc.h
    for var, param, value in (("MALLOC_MMAP_THRESHOLD_", -3, 32 << 20),
                              ("MALLOC_TRIM_THRESHOLD_", -1, 256 << 20)):
        if var not in os.environ:
            mallopt(param, value)


_heap_policy()


def _environment() -> dict:
    """What numpy computes on, read back from the libraries: numpy's version,
    the kernel and thread count of its bundled OpenBLAS, and the AVX-512
    features numpy's runtime dispatch enabled. A field that cannot be read,
    such as the kernel of a numpy without the bundled OpenBLAS, is "unknown"."""
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    lib = _openblas()
    core = getattr(lib, "scipy_openblas_get_corename64_", None)
    threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    avx512 = [name for name, on in __cpu_features__.items()
              if on and name.startswith("AVX512")]
    return {
        "numpy": numpy.__version__,
        "blas_core": core().decode() if core else "unknown",
        "blas_threads": threads() if threads else "unknown",
        "avx512": " ".join(avx512) or "none",
    }


__version__ = "0.1.0"

__all__ = ["__version__"]
