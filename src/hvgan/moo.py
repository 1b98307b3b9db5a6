"""Pareto filtering and hypervolume computation.

A ``PointSet`` is one read-only float64 ``(k, n)`` array of k points in n
objectives, plus the one ``Orientation`` that all of them share, so a set
cannot mix maximized and minimized points. Internally everything is reduced
to minimization by negating Maximize data (``PointSet.minimized``); the
public results are orientation-independent where mathematics says they must
be.

The exact hypervolume uses a recursive dimension sweep: points are sorted on
the last objective and the volume is integrated slab by slab, each slab being
a lower-dimensional hypervolume of the projected points seen so far. Those
projections are kept as an incremental nondominated front of plain float
tuples: each new projection joins the front and evicts the projections it
dominates, so no level has to deduplicate or Pareto-filter its input and no
recursive call touches numpy. A sub-volume depends only on its set of
projections, and at 4 or more objectives many slabs share one, so within one
call each sub-volume at 3 or more objectives is computed once and reused; the
result has the same bits as a sweep without reuse. The supported sizes are at
most 6 objectives and 32 distinct nondominated points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels

__all__ = [
    "Orientation",
    "PointSet",
    "pareto_filter",
    "hypervolume_exact",
    "hypervolume_mc",
    "MAX_HV_DIM",
    "MAX_HV_POINTS",
]

MAX_HV_DIM = 6
MAX_HV_POINTS = 32
# hypervolume_mc draws its samples in blocks of about this many coordinates
# (1 MiB of float64), so its memory does not grow with the sample count
MC_BLOCK_VALUES = 1 << 17
# _pareto_mask compares blocks of rows whose (n, rows, k) flags take about
# this many bytes
PARETO_BLOCK_BYTES = 1 << 17


class Orientation(Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


@dataclass(frozen=True)
class PointSet:
    """k points in n objectives, held as one read-only float64 ``(k, n)``
    array, all optimized in one orientation. The set keeps a copy of the
    values it is given, checked finite."""

    values: np.ndarray
    orientation: Orientation

    def __post_init__(self):
        try:
            arr = np.array(self.values, dtype=np.float64)
        except ValueError as e:
            raise ValueError(f"PointSet: {e}") from None
        if arr.size == 0 and arr.ndim < 2:
            arr = arr.reshape(0, 0)
        if arr.ndim != 2:
            raise ValueError(f"PointSet: need a (k, n) array, got shape {arr.shape}")
        if arr.shape[0] and not arr.shape[1]:
            raise ValueError("PointSet: points need at least one component")
        bad = np.where(~np.isfinite(arr).all(axis=1))[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"PointSet: point {i} must be finite, got {tuple(arr[i].tolist())}"
            )
        if not isinstance(self.orientation, Orientation):
            raise ValueError(f"orientation must be an Orientation, got {self.orientation!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def minimized(self) -> np.ndarray:
        """The values with Maximize data negated: smaller is better everywhere."""
        if self.orientation is Orientation.MAXIMIZE:
            return -self.values
        return self.values

    def __len__(self) -> int:
        return self.values.shape[0]


def _pareto_mask(arr: np.ndarray) -> np.ndarray:
    """Boolean mask of nondominated rows of a minimize-oriented (k,n) array.

    Rows are compared against all k rows a block at a time. The comparison
    is laid out (n, rows, k) on the columns of ``arr``, so each objective is
    one contiguous slab and the reductions over objectives combine whole
    slabs; each block's flags take about ``PARETO_BLOCK_BYTES``.
    """
    k, n = arr.shape
    cols = np.ascontiguousarray(arr.T)
    others = cols[:, None, :]
    keep = np.empty(k, dtype=bool)
    step = max(1, PARETO_BLOCK_BYTES // max(1, k * n))
    for start in range(0, k, step):
        rows = cols[:, start : start + step, None]
        # rows j that dominate row i: <= everywhere and < somewhere
        leq = (others <= rows).all(axis=0)
        lt = (others < rows).any(axis=0)
        keep[start : start + step] = ~(leq & lt).any(axis=1)
    return keep


def pareto_filter(s: PointSet) -> PointSet:
    """Keep exactly the nondominated points, in input order, duplicates kept."""
    return PointSet(s.values[_pareto_mask(s.minimized())], s.orientation)


def _to_min_arrays(s: PointSet, r) -> tuple[np.ndarray, np.ndarray]:
    """Validate shapes and return minimize-oriented (pts, ref)."""
    given = tuple(float(v) for v in r)
    if len(given) == 0:
        raise ValueError("reference point: need at least one component")
    if not all(map(math.isfinite, given)):
        raise ValueError(f"reference point: components must be finite, got {given}")
    ref = np.array(given, dtype=np.float64)
    if len(s) == 0:
        return np.zeros((0, ref.size)), ref
    dim = s.values.shape[1]
    if dim != ref.size:
        raise ValueError(
            f"reference point has length {ref.size}, point set has dimension {dim}"
        )
    pts = s.minimized()
    if s.orientation is Orientation.MAXIMIZE:
        ref = -ref
    bad = np.where((pts > ref[None, :]).any(axis=1))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"reference point is not weakly dominated by point {i}: "
            f"point {tuple(s.values[i].tolist())} vs reference {given} "
            f"({s.orientation.value})"
        )
    return pts, ref


def _hv_recursive(front: list, ref: tuple, memo: dict) -> float:
    """Exact hypervolume of distinct, mutually nondominated minimize-oriented
    float tuples against ref; the result depends only on the set.

    Results at 3 or more objectives are kept in ``memo`` under the set, so a
    sub-front that several slabs share is swept once. A key's tuples have the
    level's length, so the levels of one call cannot collide.
    """
    n = len(ref)
    if n == 1:
        return ref[0] - min(p[0] for p in front)
    if n == 2:
        pts = sorted(front)
        area = 0.0
        for i, (x, y) in enumerate(pts):
            next_x = pts[i + 1][0] if i + 1 < len(pts) else ref[0]
            area += (next_x - x) * (ref[1] - y)
        return area
    key = frozenset(front)
    if key in memo:
        return memo[key]
    # No point's projection is weakly dominated by the projections before it
    # (the point itself would then be dominated), so every point joins the
    # front and only evicts the projections it dominates.
    pts = sorted(front, key=lambda p: p[-1])
    sub_ref = ref[:-1]
    slab: list = []
    total = 0.0
    for i, p in enumerate(pts):
        q = p[:-1]
        slab = [f for f in slab if not all(map(operator.le, q, f))]
        slab.append(q)
        z = p[-1]
        z_next = pts[i + 1][-1] if i + 1 < len(pts) else ref[-1]
        # Tied points close one slab together, at the last of them; a
        # point on the reference face closes none.
        if z_next != z:
            total += (z_next - z) * _hv_recursive(slab, sub_ref, memo)
    memo[key] = total
    return total


def hypervolume_exact(s: PointSet, r) -> float:
    """Volume of the union of boxes spanned by each point and the reference."""
    pts, ref = _to_min_arrays(s, r)
    if pts.shape[0] == 0:
        return 0.0
    if ref.size > MAX_HV_DIM:
        raise ValueError(
            f"hypervolume_exact supports at most {MAX_HV_DIM} objectives, got {ref.size}"
        )
    # Distinct rows only: a duplicate adds no volume, and does not count
    # against the point limit.
    front = list(set(map(tuple, pts[_pareto_mask(pts)].tolist())))
    if len(front) > MAX_HV_POINTS:
        raise ValueError(
            f"hypervolume_exact supports at most {MAX_HV_POINTS} nondominated "
            f"points, got {len(front)}"
        )
    volume = _hv_recursive(front, tuple(ref.tolist()), {})
    if not math.isfinite(volume):
        raise ValueError(
            f"hypervolume_exact: volume overflows float64 for reference point "
            f"{tuple(float(v) for v in r)}"
        )
    return volume


def hypervolume_mc(
    s: PointSet, r, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo hypervolume estimate with its binomial standard error.

    Samples uniformly in the box between the componentwise best corner of the
    set and the reference point; the dominated fraction scales the box volume.
    """
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"hypervolume_mc: samples must be >= 1, got {samples}")
    pts, ref = _to_min_arrays(s, r)
    if pts.shape[0] == 0:
        return 0.0, 0.0
    ideal = pts.min(axis=0)
    # math.prod of Python floats: an overflow gives inf without a warning
    box_vol = math.prod(r_k - i_k for r_k, i_k in zip(ref.tolist(), ideal.tolist()))
    if not math.isfinite(box_vol):
        raise ValueError(
            f"hypervolume_mc: sampling box volume overflows float64 for reference "
            f"point {tuple(float(v) for v in r)}"
        )
    if box_vol == 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    # Blocks drawn in order consume the stream exactly as one draw of all
    # samples would, so the estimate does not depend on the block size.
    # Each block is drawn row-major into one reused buffer and scaled into a
    # reused (n, B) column buffer as ``ideal + (ref - ideal) * U``, the
    # arithmetic of ``rng.uniform``, so the bits are the same too. The
    # counter gets the columns' transposed view and copies nothing.
    block = max(1, MC_BLOCK_VALUES // ref.size)
    rows = np.empty((min(block, samples), ref.size))
    cols = np.empty(rows.size)
    side = (ref - ideal)[:, None]
    # a dominated point's box lies inside its dominator's: it adds no hit
    front = pts[_pareto_mask(pts)]
    hits = 0
    for start in range(0, samples, block):
        draw = rows[: min(block, samples - start)]
        rng.random(out=draw)
        col = cols[: draw.size].reshape(ref.size, -1)
        np.multiply(draw.T, side, out=col)
        col += ideal[:, None]
        hits += kernels.count_dominated(col.T, front)
    frac = hits / samples
    est = frac * box_vol
    stderr = box_vol * float(np.sqrt(frac * (1.0 - frac) / samples))
    return est, stderr
