"""Pareto dominance, nondominated filtering, and hypervolume computation.

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
recursive call touches numpy. The supported sizes are at most 6 objectives
and 32 nondominated points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from . import kernels

__all__ = [
    "Orientation",
    "PointSet",
    "dominates",
    "pareto_filter",
    "hypervolume_exact",
    "hypervolume_mc",
    "MAX_HV_DIM",
    "MAX_HV_POINTS",
]

MAX_HV_DIM = 6
MAX_HV_POINTS = 32


class Orientation(Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


def _check_finite_values(values: Sequence[float], what: str) -> tuple:
    vals = tuple(float(v) for v in values)
    if len(vals) == 0:
        raise ValueError(f"{what}: need at least one component")
    if not all(np.isfinite(v) for v in vals):
        raise ValueError(f"{what}: components must be finite, got {vals}")
    return vals


@dataclass(frozen=True)
class PointSet:
    """k points in n objectives, held as one read-only float64 ``(k, n)``
    array, all optimized in one orientation. The set keeps a copy of the
    values it is given, checked finite."""

    values: np.ndarray
    orientation: Orientation

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
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

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[float]], orientation: Orientation) -> "PointSet":
        rows = [tuple(r) for r in rows]
        for i, r in enumerate(rows):
            if len(r) != len(rows[0]):
                raise ValueError(
                    f"PointSet: point {i} has length {len(r)}, expected {len(rows[0])}"
                )
        return cls(rows, orientation)

    def minimized(self) -> np.ndarray:
        """The values with Maximize data negated: smaller is better everywhere."""
        if self.orientation is Orientation.MAXIMIZE:
            return -self.values
        return self.values

    def __len__(self) -> int:
        return self.values.shape[0]


def dominates(a: Sequence[float], b: Sequence[float], orientation: Orientation) -> bool:
    """True iff a is at least as good as b everywhere and strictly better once."""
    av = np.array(_check_finite_values(a, "dominates"))
    bv = np.array(_check_finite_values(b, "dominates"))
    if av.size != bv.size:
        raise ValueError(f"dominates: lengths differ ({av.size} vs {bv.size})")
    if orientation is Orientation.MAXIMIZE:
        av, bv = -av, -bv
    return bool(np.all(av <= bv) and np.any(av < bv))


def _pareto_mask(arr: np.ndarray) -> np.ndarray:
    """Boolean mask of nondominated rows of a minimize-oriented (k,n) array."""
    k = arr.shape[0]
    keep = np.ones(k, dtype=bool)
    for i in range(k):
        if not keep[i]:
            continue
        # rows that dominate row i: <= everywhere and < somewhere
        leq = (arr <= arr[i]).all(axis=1)
        lt = (arr < arr[i]).any(axis=1)
        if np.any(leq & lt):
            keep[i] = False
    return keep


def pareto_filter(s: PointSet) -> PointSet:
    """Keep exactly the nondominated points, in input order, duplicates kept."""
    return PointSet(s.values[_pareto_mask(s.minimized())], s.orientation)


def _to_min_arrays(s: PointSet, r) -> tuple[np.ndarray, np.ndarray]:
    """Validate shapes and return minimize-oriented (pts, ref)."""
    ref = np.array(_check_finite_values(r, "reference point"), dtype=np.float64)
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
            f"point {tuple(pts[i])} vs reference {tuple(ref)} (minimize-oriented)"
        )
    return pts, ref


def _hv_recursive(front: list, ref: tuple) -> float:
    """Exact hypervolume of distinct, mutually nondominated minimize-oriented
    float tuples against ref; the result depends only on the set."""
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
            total += (z_next - z) * _hv_recursive(slab, sub_ref)
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
    nd = pts[_pareto_mask(pts)]
    if nd.shape[0] > MAX_HV_POINTS:
        raise ValueError(
            f"hypervolume_exact supports at most {MAX_HV_POINTS} nondominated "
            f"points, got {nd.shape[0]}"
        )
    # Distinct rows only: a duplicate adds no volume.
    front = list(set(map(tuple, nd.tolist())))
    volume = _hv_recursive(front, tuple(ref.tolist()))
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
    draws = rng.uniform(ideal, ref, size=(samples, ref.size))
    hits = kernels.count_dominated(draws, pts)
    frac = hits / samples
    est = frac * box_vol
    stderr = box_vol * float(np.sqrt(frac * (1.0 - frac) / samples))
    return est, stderr
