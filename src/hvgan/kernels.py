"""Hot numeric kernels: same-padding conv2d and Monte-Carlo dominance counting.

conv2d is im2col followed by one BLAS matmul. The patch matrix ``cols`` is
channel-first, (C*kh*kw, N*H*W), built from a zero-padded channel-major copy
of the input with one slice copy per kernel tap. The forward pass is then
``w.reshape(O, -1) @ cols`` and the weight gradient is the (O, N*H*W) output
gradient times ``cols.T``; the input gradient is a forward pass with the
flipped kernel. The dominance counter compares the samples column by column,
one point at a time.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "conv2d_forward",
    "conv2d_grad_input",
    "conv2d_grad_weight",
    "count_dominated",
]

BACKEND = "numpy"


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(N,C,H,W) -> (C*kh*kw, N*H*W) patch matrix under same zero padding.

    Row ``(c*kh + i)*kw + j`` holds channel c shifted by tap (i, j), which is
    the order of ``w.reshape(O, -1)``. The input is padded once into a
    channel-major (C, N, H+kh-1, W+kw-1) copy; each tap is then one slice
    assignment that fills C contiguous rows of N*H*W values.
    """
    n, c, h, w = x.shape
    xp = np.zeros((c, n, h + kh - 1, w + kw - 1), dtype=x.dtype)
    xp[:, :, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, kh, kw, n, h, w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i : i + h, j : j + w]
    return cols.reshape(c * kh * kw, n * h * w)


def conv2d_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 same-zero-padding correlation of (N,C,H,W) with (O,C,kh,kw)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, _, h, wd = x.shape
    o = w.shape[0]
    out = w.reshape(o, -1) @ _im2col(x, w.shape[2], w.shape[3])
    return np.ascontiguousarray(out.reshape(o, n, h, wd).transpose(1, 0, 2, 3))


def conv2d_grad_input(gy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. its input.

    Equals a same-padding correlation of the output gradient with the kernel
    rotated 180 degrees and its channel axes swapped.
    """
    w_flip = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return conv2d_forward(gy, w_flip)


def conv2d_grad_weight(x: np.ndarray, gy: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. the (O,C,kh,kw) kernel."""
    x = np.asarray(x, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    c = x.shape[1]
    o = gy.shape[1]
    gflat = gy.transpose(1, 0, 2, 3).reshape(o, -1)
    return (gflat @ _im2col(x, kh, kw).T).reshape(o, c, kh, kw)


def count_dominated(samples: np.ndarray, points: np.ndarray) -> int:
    """Number of rows of ``samples`` weakly dominated by any row of ``points``."""
    cols = np.ascontiguousarray(np.asarray(samples, dtype=np.float64).T)
    points = np.asarray(points, dtype=np.float64)
    dominated = np.zeros(cols.shape[1], dtype=bool)
    hit = np.empty_like(dominated)
    cmp = np.empty_like(dominated)
    for p in points:
        hit.fill(True)
        for col, v in zip(cols, p, strict=True):
            np.greater_equal(col, v, out=cmp)
            hit &= cmp
        dominated |= hit
    return int(np.count_nonzero(dominated))
