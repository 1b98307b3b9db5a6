"""Hot numeric kernels: same-padding conv2d and Monte-Carlo dominance counting.

conv2d is im2col followed by one BLAS matmul. The dominance counter compares
the samples column by column, one point at a time.
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
    """(N,C,H,W) -> (N*H*W, C*kh*kw) patch matrix under same zero padding."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + kh - 1, w + kw - 1), dtype=x.dtype)
    xp[:, :, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    # (n, c, h, w, kh, kw) -> (n, h, w, c, kh, kw)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * h * w, c * kh * kw)
    return np.ascontiguousarray(cols)


def conv2d_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 same-zero-padding correlation of (N,C,H,W) with (O,C,kh,kw)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    n, _, h, wd = x.shape
    o = w.shape[0]
    cols = _im2col(x, w.shape[2], w.shape[3])
    out = cols @ w.reshape(o, -1).T
    return np.ascontiguousarray(out.reshape(n, h, wd, o).transpose(0, 3, 1, 2))


def conv2d_grad_input(gy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. its input.

    Equals a same-padding correlation of the output gradient with the kernel
    rotated 180 degrees and its channel axes swapped.
    """
    w_flip = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return conv2d_forward(gy, w_flip)


def conv2d_grad_weight(x: np.ndarray, gy: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. the (O,C,kh,kw) kernel."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    gy = np.ascontiguousarray(gy, dtype=np.float64)
    n, c, h, wd = x.shape
    o = gy.shape[1]
    cols = _im2col(x, kh, kw)
    gflat = np.ascontiguousarray(gy.transpose(0, 2, 3, 1).reshape(n * h * wd, o))
    return (gflat.T @ cols).reshape(o, c, kh, kw)


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
