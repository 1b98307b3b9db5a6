"""Full-reference image quality metrics: PSNR, SSIM, GMSD.

Inputs are planar (C,H,W) float arrays in [0,1] (plain 2-d arrays are treated
as single-channel). Multi-channel images are scored per channel and the
channel values averaged; no border cropping beyond what each metric's window
construction implies.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["SSIM_WINDOW", "psnr", "ssim", "gmsd"]

SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_GMSD_C = 170.0 / (255.0 * 255.0)


def _as_planar(a: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise ValueError(f"{what}: need (C,H,W) or (H,W), got shape {arr.shape}")
    return arr


def _paired(a, b, name: str) -> tuple[np.ndarray, np.ndarray]:
    av = _as_planar(a, name)
    bv = _as_planar(b, name)
    if av.shape != bv.shape:
        raise ValueError(f"{name}: shapes differ, {av.shape} vs {bv.shape}")
    return av, bv


def psnr(a, b, peak: float = 1.0) -> float:
    """10*log10(peak^2 / MSE) per channel, averaged; +inf when MSE is zero.
    A peak that is not finite and > 0, or for which peak^2 / MSE is not a
    finite positive number, is rejected, so no other infinity is returned."""
    av, bv = _paired(a, b, "psnr")
    if not 0.0 < peak < np.inf:
        raise ValueError(f"psnr: peak must be finite and > 0, got {peak}")
    vals = []
    for c in range(av.shape[0]):
        mse = float(np.mean((av[c] - bv[c]) ** 2))
        if mse == 0.0:
            vals.append(np.inf)
            continue
        ratio = peak * peak / mse
        if not 0.0 < ratio < np.inf:
            raise ValueError(
                f"psnr: peak {peak} gives peak^2/MSE = {ratio} against MSE {mse}, "
                f"not a finite positive number"
            )
        vals.append(10.0 * np.log10(ratio))
    return float(np.mean(vals))


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    return g / g.sum()


# Prewitt/3: the x-gradient window is outer(_PREWITT_SMOOTH, _PREWITT_DIFF),
# the y-gradient window its transpose.
_PREWITT_SMOOTH = np.full(3, 1.0 / 3.0)
_PREWITT_DIFF = np.array([1.0, 0.0, -1.0])


def _windowed(img: np.ndarray, col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Weighted sums of the last two axes over every fully interior window of
    outer(col, row), one 1-d pass per axis."""
    img = sliding_window_view(img, col.size, axis=-2) @ col
    return sliding_window_view(img, row.size, axis=-1) @ row


def ssim(a, b) -> float:
    """Mean structural similarity over 11x11 Gaussian (sigma 1.5) windows."""
    av, bv = _paired(a, b, "ssim")
    if min(av.shape[1], av.shape[2]) < SSIM_WINDOW:
        raise ValueError(
            f"ssim: image {av.shape[1]}x{av.shape[2]} is smaller than the "
            f"{SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    g = _gaussian_window(SSIM_WINDOW, _SSIM_SIGMA)
    stack = np.stack([av, bv, av * av, bv * bv, av * bv])
    mu_a, mu_b, aa, bb, ab = _windowed(stack, g, g)
    c1 = 0.01**2
    c2 = 0.03**2
    var_a = aa - mu_a * mu_a
    var_b = bb - mu_b * mu_b
    cov = ab - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(np.mean(num / den, axis=(1, 2))))


def _avg_pool2(img: np.ndarray) -> np.ndarray:
    h, w = img.shape[-2:]
    img = img[..., : h - h % 2, : w - w % 2]
    return img.reshape(*img.shape[:-2], h // 2, 2, w // 2, 2).mean(axis=(-3, -1))


def gmsd(a, b) -> float:
    """Standard deviation of the Prewitt gradient-magnitude similarity map.

    Both images are 2x average-pooled first; the similarity constant is the
    conventional 170 rescaled from the 255 range to [0,1] inputs.
    """
    av, bv = _paired(a, b, "gmsd")
    if min(av.shape[1], av.shape[2]) < 4:
        raise ValueError(
            f"gmsd: image {av.shape[1]}x{av.shape[2]} is smaller than 4x4"
        )
    # symmetric 1-pixel padding keeps the 3x3 Prewitt maps at the pooled size
    pair = _avg_pool2(np.stack([av, bv]))
    pair = np.pad(pair, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="symmetric")
    gx = _windowed(pair, _PREWITT_SMOOTH, _PREWITT_DIFF)
    gy = _windowed(pair, _PREWITT_DIFF, _PREWITT_SMOOTH)
    m_a, m_b = np.sqrt(gx * gx + gy * gy)
    sim = (2.0 * m_a * m_b + _GMSD_C) / (m_a * m_a + m_b * m_b + _GMSD_C)
    return float(np.mean(np.std(sim, axis=(1, 2))))
