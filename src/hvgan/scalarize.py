"""Map a vector of training losses to one scalar objective.

The hypervolume mode treats the current loss vector as a single point in
objective space and the per-loss upper bounds mu as the reference corner. Its
negative-log hypervolume is

    L = -sum_k log(max(mu_k - l_k, eps))

and the normalized variant divides each gap by its bound first. Both induce
the same gradient with respect to the losses,

    dL/dl_k = 1 / max(mu_k - l_k, eps),

so the two differ only by the constant sum_k log(mu_k). A fixed convex
combination of losses is included as the conventional baseline.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "DEFAULT_EPS",
    "MODE_KINDS",
    "hv_log_loss",
    "hv_log_loss_normalized",
    "gradient_weights",
    "clamp_flags",
    "linear_fixed",
    "scalarize",
]

DEFAULT_EPS = 1e-6

MODE_KINDS = ("hv_log", "hv_log_norm", "linear")


def _validate(l: Sequence[float], mu: Sequence[float], eps: float) -> tuple:
    lv = np.asarray(l, dtype=np.float64)
    mv = np.asarray(mu, dtype=np.float64)
    if lv.ndim != 1 or mv.ndim != 1 or lv.shape != mv.shape:
        raise ValueError(
            f"loss vector and bounds must be 1-d and equal length, got "
            f"shapes {lv.shape} and {mv.shape}"
        )
    if not np.all(np.isfinite(lv)):
        raise ValueError(f"loss vector has non-finite components: {lv.tolist()}")
    if not np.all(np.isfinite(mv)) or np.any(mv <= 0.0):
        raise ValueError(f"upper bounds must be finite and > 0, got {mv.tolist()}")
    if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be a finite positive real, got {eps!r}")
    return lv, mv, float(eps)


def hv_log_loss(l, mu, eps: float = DEFAULT_EPS) -> float:
    """-sum_k log(max(mu_k - l_k, eps))."""
    lv, mv, eps = _validate(l, mu, eps)
    return float(-np.sum(np.log(np.maximum(mv - lv, eps))))


def hv_log_loss_normalized(l, mu, eps: float = DEFAULT_EPS) -> float:
    """-sum_k log(max(1 - l_k/mu_k, eps))."""
    lv, mv, eps = _validate(l, mu, eps)
    return float(-np.sum(np.log(np.maximum(1.0 - lv / mv, eps))))


def gradient_weights(l, mu, eps: float = DEFAULT_EPS) -> np.ndarray:
    """w_k = 1/max(mu_k - l_k, eps); the d/dl_k of both hypervolume modes."""
    lv, mv, eps = _validate(l, mu, eps)
    return 1.0 / np.maximum(mv - lv, eps)


def clamp_flags(l, mu, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Boolean per-loss flags: True where the gap mu_k - l_k was floored at eps."""
    lv, mv, eps = _validate(l, mu, eps)
    return (mv - lv) < eps


def linear_fixed(l, w) -> float:
    """Fixed-weight combination sum_k w_k l_k (the conventional baseline)."""
    lv = np.asarray(l, dtype=np.float64)
    wv = np.asarray(w, dtype=np.float64)
    if lv.ndim != 1 or lv.shape != wv.shape:
        raise ValueError(
            f"loss vector and weights must be 1-d and equal length, got "
            f"shapes {lv.shape} and {wv.shape}"
        )
    if not np.all(np.isfinite(lv)):
        raise ValueError(f"loss vector has non-finite components: {lv.tolist()}")
    if np.any(wv < 0.0) or not np.all(np.isfinite(wv)):
        raise ValueError(f"weights must be finite and >= 0, got {wv.tolist()}")
    return float(np.dot(wv, lv))


def scalarize(l, mode: str, mu=None, eps: float = DEFAULT_EPS, weights=None) -> float:
    """Dispatch the loss vector through the scalarizer named ``mode``, one of
    ``MODE_KINDS``: the hypervolume modes read ``mu`` and ``eps``, ``linear``
    reads the fixed ``weights``."""
    if mode not in MODE_KINDS:
        raise ValueError(f"mode must be one of {MODE_KINDS}, got {mode!r}")
    if mode == "linear":
        return linear_fixed(l, weights)
    if weights is not None:
        raise ValueError(f"mode {mode!r} takes no weights")
    if mode == "hv_log":
        return hv_log_loss(l, mu, eps)
    return hv_log_loss_normalized(l, mu, eps)
