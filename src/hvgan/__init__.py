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
    or None where numpy is not loaded or bundles no OpenBLAS."""
    numpy = sys.modules.get("numpy")
    if numpy is None:
        return None
    import ctypes
    from pathlib import Path

    root = Path(numpy.__file__).parent
    libs = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    return ctypes.CDLL(str(libs[0])) if libs else None


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
            import ctypes

            setter.argtypes = (ctypes.c_int,)
            setter.restype = None
            setter(1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


_blas_policy()


# Under glibc, buffers below 32 MiB come from the heap and up to 256 MiB of
# freed heap stays mapped, unless the user sets MALLOC_MMAP_THRESHOLD_ or
# MALLOC_TRIM_THRESHOLD_. glibc's defaults returned each freed activation,
# gradient and im2col buffer to the OS and faulted it back in on the next
# step, about 400 minor faults per pretraining step. mallopt acts on the
# running process, so this works whatever the import order. Other C
# libraries are left alone.
def _heap_policy() -> None:
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
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

__version__ = "0.1.0"

__all__ = ["__version__"]
