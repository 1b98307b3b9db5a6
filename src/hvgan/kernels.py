"""Hot numeric kernels: same-padding conv2d and Monte-Carlo dominance counting.

The kernels take float64 arrays as given; ``autodiff.Tensor`` converts once.
Every padded operand, input or output gradient, is a ``_flat_buffer``: a
zero-padded flat channel-major buffer in which each kernel tap is a column
offset. Each conv2d kernel picks its algorithm from the layer's channel
counts alone (C in, O out), so a rerun takes the same path and bits:

- Forward and weight gradient, O <= C (the layer keeps or narrows its
  width): shifted GEMMs, the kn2row family. The forward pass sums one
  (O, C) x (C, L) GEMM per tap and crops the valid pixels; the weight
  gradient of tap (i, j) is the output gradient on the padded grid times
  the tap's shifted slice, transposed. No patch matrix is built.
- Forward and weight gradient, O > C: im2col and one GEMM. The patch matrix
  ``cols`` is channel-first, (C*kh*kw, N*H*W), one slice copy per tap of the
  same padded buffer; the forward pass is ``w.reshape(O, -1) @ cols`` and
  the weight gradient the (O, N*H*W) output gradient times ``cols.T``.
- Input gradient, C < O (the layer widens): col2im. One GEMM
  ``w.reshape(O, C*kh*kw).T`` times the output gradient gives C*kh*kw rows;
  each tap's rows are added into a flat padded buffer at the tap's offset,
  and the valid pixels are cropped.
- Input gradient, C >= O: a forward pass with the flipped kernel (O in, C
  out), which the forward rule dispatches.

The dominance counter reads the (B, n) samples as one contiguous column per
objective. ``moo.hypervolume_mc`` hands over the transposed view of a
column-major buffer, so the transpose copies nothing; a row-major block is
copied once. For each point it makes one ``column >= value`` comparison of
all columns into an (n, B) flag buffer and AND-reduces it over the objectives.
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


def _flat_buffer(n: int, c: int, h: int, w: int, kh: int, kw: int):
    """Zero (C, N*Hp*Wp + slack) buffer, its (C, N, Hp, Wp) grid and the
    (C, N, H, W) view of the grid's interior, with Hp = H+kh-1 and Wp = W+kw-1.

    Padded pixel (n, y, x) sits at column ``(n*Hp + y)*Wp + x``, so the pixel
    that tap (i, j) reads for output pixel (n, y, x) is ``i*Wp + j`` columns
    further on. The slack of ``(kh-1)*Wp + kw-1`` trailing zeros keeps the
    last tap's N*Hp*Wp-column slice in bounds.
    """
    hp, wp = h + kh - 1, w + kw - 1
    buf = np.zeros((c, n * hp * wp + (kh - 1) * wp + kw - 1))
    grid = buf[:, : n * hp * wp].reshape(c, n, hp, wp)
    return buf, grid, grid[:, :, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w]


def _pad_flat(x: np.ndarray, kh: int, kw: int):
    """(N,C,H,W) -> its zero-padded ``_flat_buffer`` and that buffer's grid."""
    buf, grid, interior = _flat_buffer(*x.shape, kh, kw)
    interior[...] = x.transpose(1, 0, 2, 3)
    return buf, grid


def _pad_grad(gy: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(N,O,H,W) output gradient -> (O, N*Hp*Wp) on the grid of ``_pad_flat``.

    Output pixel (n, y, x) sits at column ``(n*Hp + y)*Wp + x``, the column
    of the padded pixel its tap (0, 0) reads: the window of ``_pad_flat(gy)``
    that starts at the centre tap's offset. The window's other columns fall
    in padding or in the trailing slack, so they are zero.
    """
    buf, grid = _pad_flat(gy, kh, kw)
    off = (kh // 2) * grid.shape[3] + kw // 2
    return buf[:, off : off + grid[0].size]


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(N,C,H,W) -> (C*kh*kw, N*H*W) patch matrix under same zero padding.

    Row ``(c*kh + i)*kw + j`` holds channel c shifted by tap (i, j), which is
    the order of ``w.reshape(O, -1)``. Each tap is one slice assignment from
    the padded input that fills C contiguous rows of N*H*W values.
    """
    n, c, h, w = x.shape
    _, xp = _pad_flat(x, kh, kw)
    cols = np.empty((c, kh, kw, n, h, w))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i : i + h, j : j + w]
    return cols.reshape(c * kh * kw, n * h * w)


def conv2d_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 same-zero-padding correlation of (N,C,H,W) with (O,C,kh,kw).

    Shifted GEMMs where O <= C, im2col otherwise.
    """
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    if o > c:
        out = w.reshape(o, -1) @ _im2col(x, kh, kw)
        return np.ascontiguousarray(out.reshape(o, n, h, wd).transpose(1, 0, 2, 3))
    buf, grid = _pad_flat(x, kh, kw)
    wp, size = grid.shape[3], grid[0].size
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    out = taps[0, 0] @ buf[:, :size]
    part = np.empty_like(out)
    for i in range(kh):
        for j in range(kw):
            if i or j:
                off = i * wp + j
                np.matmul(taps[i, j], buf[:, off : off + size], out=part)
                out += part
    out = out.reshape(o, *grid.shape[1:])[:, :, :h, :wd]
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3))


def conv2d_grad_input(gy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. its input.

    Where C < O, col2im: the GEMM ``w.reshape(O, C*kh*kw).T @ g``, with the
    output gradient ``g`` on the padded grid, and then each tap's C rows
    added into the flat padded buffer at the tap's offset. Where C >= O, a
    same-padding correlation of the output gradient with the kernel rotated
    180 degrees and its channel axes swapped, run by ``conv2d_forward``.
    """
    n, o, h, wd = gy.shape
    _, c, kh, kw = w.shape
    if c >= o:
        w_flip = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        return conv2d_forward(gy, w_flip)
    cols = (w.reshape(o, -1).T @ _pad_grad(gy, kh, kw)).reshape(c, kh, kw, -1)
    buf, grid, gx = _flat_buffer(n, c, h, wd, kh, kw)
    wp, size = grid.shape[3], grid[0].size
    for i in range(kh):
        for j in range(kw):
            off = i * wp + j
            buf[:, off : off + size] += cols[:, i, j]
    return np.ascontiguousarray(gx.transpose(1, 0, 2, 3))


def conv2d_grad_weight(x: np.ndarray, gy: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. the (O,C,kh,kw) kernel.

    Shifted GEMMs where O <= C, im2col otherwise.
    """
    c, o = x.shape[1], gy.shape[1]
    if o > c:
        gflat = gy.transpose(1, 0, 2, 3).reshape(o, -1)
        return (gflat @ _im2col(x, kh, kw).T).reshape(o, c, kh, kw)
    buf, grid = _pad_flat(x, kh, kw)
    wp, size = grid.shape[3], grid[0].size
    # the zero columns of g drop the products of pixels outside the output
    g = _pad_grad(gy, kh, kw)
    gw = np.empty((kh, kw, o, c))
    for i in range(kh):
        for j in range(kw):
            off = i * wp + j
            np.matmul(g, buf[:, off : off + size].T, out=gw[i, j])
    return np.ascontiguousarray(gw.transpose(2, 3, 0, 1))


def count_dominated(samples: np.ndarray, points: np.ndarray) -> int:
    """Number of rows of ``samples`` weakly dominated by any row of ``points``."""
    cols = np.ascontiguousarray(samples.T)
    dominated = np.zeros(cols.shape[1], dtype=bool)
    hit = np.empty_like(dominated)
    cmp = np.empty(cols.shape, dtype=bool)
    for p in points:
        np.greater_equal(cols, p[:, None], out=cmp)
        np.logical_and.reduce(cmp, axis=0, out=hit)
        dominated |= hit
    return int(np.count_nonzero(dominated))
