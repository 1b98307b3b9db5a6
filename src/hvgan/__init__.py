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

# BLAS runs on one thread unless the user sets these variables, or sets
# OMP_NUM_THREADS, which OpenBLAS and MKL fall back to. The matrices here are
# small, and OpenBLAS's default pool made an adversarial step about 10x slower
# when other processes competed for the cores. The variables are read when
# numpy loads BLAS, so this must run before numpy is imported.
if "OMP_NUM_THREADS" not in os.environ:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    del _var


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
