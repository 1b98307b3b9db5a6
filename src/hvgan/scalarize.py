"""Map a vector of training losses to one scalar objective: ``scalarize``.

The hypervolume mode ``hv_log`` treats the current loss vector as a single
point in objective space and the per-loss upper bounds mu as the reference
corner. Its negative-log hypervolume is

    L = -sum_k log(max(mu_k - l_k, eps))

and ``hv_log_norm`` divides each gap by its bound first. Both induce the same
gradient with respect to the losses (``gradient_weights``),

    dL/dl_k = 1 / max(mu_k - l_k, eps),

so the two differ only by the constant sum_k log(mu_k). The ``linear`` mode,
a fixed convex combination of losses, is the conventional baseline.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["DEFAULT_EPS", "MODE_KINDS", "gradient_weights", "clamp_flags", "scalarize"]

DEFAULT_EPS = 1e-6

MODE_KINDS = ("hv_log", "hv_log_norm", "linear")


def _checked(l, other, what: str) -> tuple:
    """The loss vector and its bounds or weights (``what``) as float64 arrays,
    rejected unless both are 1-d of equal length and the losses are finite."""
    lv = np.asarray(l, dtype=np.float64)
    ov = np.asarray(other, dtype=np.float64)
    if lv.ndim != 1 or ov.ndim != 1 or lv.shape != ov.shape:
        raise ValueError(
            f"loss vector and {what} must be 1-d and equal length, got "
            f"shapes {lv.shape} and {ov.shape}"
        )
    if not np.all(np.isfinite(lv)):
        raise ValueError(f"loss vector has non-finite components: {lv.tolist()}")
    return lv, ov


def _validate(l: Sequence[float], mu: Sequence[float], eps: float) -> tuple:
    lv, mv = _checked(l, mu, "bounds")
    if not np.all(np.isfinite(mv)) or np.any(mv <= 0.0):
        raise ValueError(f"upper bounds must be finite and > 0, got {mv.tolist()}")
    real = isinstance(eps, (int, float)) and not isinstance(eps, bool)
    if not (real and math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be a finite positive real, got {eps!r}")
    if not math.isfinite(1.0 / float(eps)):
        raise ValueError(f"eps must have a finite 1/eps, got {eps!r}")
    return lv, mv, float(eps)


def gradient_weights(l, mu, eps: float = DEFAULT_EPS) -> np.ndarray:
    """w_k = 1/max(mu_k - l_k, eps); the d/dl_k of both hypervolume modes."""
    lv, mv, eps = _validate(l, mu, eps)
    return 1.0 / np.maximum(mv - lv, eps)


def clamp_flags(l, mu, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Boolean per-loss flags: True where the gap mu_k - l_k was floored at eps."""
    lv, mv, eps = _validate(l, mu, eps)
    return (mv - lv) < eps


def scalarize(l, mode: str, mu=None, eps: float = DEFAULT_EPS, weights=None) -> float:
    """The loss vector ``l`` under the scalarizer named ``mode``, one of
    ``MODE_KINDS``: ``hv_log`` is -sum_k log(max(mu_k - l_k, eps)),
    ``hv_log_norm`` is -sum_k log(max(1 - l_k/mu_k, eps)), and ``linear`` is
    sum_k w_k l_k for the fixed ``weights``, which the other two reject."""
    if mode not in MODE_KINDS:
        raise ValueError(f"mode must be one of {MODE_KINDS}, got {mode!r}")
    if mode == "linear":
        lv, wv = _checked(l, weights, "weights")
        if np.any(wv < 0.0) or not np.all(np.isfinite(wv)):
            raise ValueError(f"weights must be finite and >= 0, got {wv.tolist()}")
        return float(np.dot(wv, lv))
    if weights is not None:
        raise ValueError(f"mode {mode!r} takes no weights")
    lv, mv, eps = _validate(l, mu, eps)
    gap = mv - lv if mode == "hv_log" else 1.0 - lv / mv
    return float(-np.sum(np.log(np.maximum(gap, eps))))
