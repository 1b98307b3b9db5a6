"""Adversarial, pixel, and perceptual losses as differentiable tape scalars.

Probabilities are clamped to [1e-7, 1 - 1e-7] before every log so the
adversarial losses stay finite no matter how saturated the discriminator
gets. The perceptual loss measures distance in the feature space of a frozen,
seeded random conv stack: a fixed nonlinear projection whose weights never
train, so every feature number is reproducible from the seed alone.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = [
    "PROB_CLAMP",
    "FeatureExtractor",
    "disc_loss",
    "adv_loss_standard_g",
    "adv_loss_relativistic_g",
    "pixel_loss",
    "feature_loss",
]

PROB_CLAMP = 1e-7

_FEATURE_WIDTHS = (8, 16, 16)


def _clamped_log(p: ad.Tensor) -> ad.Tensor:
    return ad.log(ad.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP))


def _check_batch(t: ad.Tensor, what: str) -> None:
    if t.data.size == 0:
        raise ValueError(f"{what}: empty batch")


class FeatureExtractor:
    """Frozen 3-layer random conv stack (3x3 convs, leaky_relu(0.2) between).

    Channel widths in_channels -> 8 -> 16 -> 16; weights are drawn once from a
    seeded unit normal scaled by 1/sqrt(fan-in) and never change. ``tap``
    selects whether features are read before or after the final activation.
    """

    def __init__(self, in_channels: int, seed, tap: str = "post"):
        if tap not in ("pre", "post"):
            raise ValueError(f"tap must be 'pre' or 'post', got {tap!r}")
        if in_channels < 1:
            raise ValueError(f"in_channels must be >= 1, got {in_channels}")
        self.in_channels = int(in_channels)
        self.tap = tap
        rng = np.random.default_rng(seed)
        self._weights = []
        c_in = self.in_channels
        for c_out in _FEATURE_WIDTHS:
            fan_in = c_in * 3 * 3
            w = rng.standard_normal((c_out, c_in, 3, 3)) / np.sqrt(fan_in)
            w.setflags(write=False)
            self._weights.append(w)
            c_in = c_out

    def features(self, x: ad.Tensor) -> ad.Tensor:
        if x.data.ndim != 4 or x.data.shape[1] != self.in_channels:
            raise ValueError(
                f"extractor expects (N,{self.in_channels},H,W), got {x.data.shape}"
            )
        h = x
        for i, w in enumerate(self._weights):
            h = ad.conv2d(h, ad.Tensor(w))
            if i < len(self._weights) - 1:
                h = ad.leaky_relu(h, 0.2)
        if self.tap == "post":
            h = ad.leaky_relu(h, 0.2)
        return h


def disc_loss(logits_real: ad.Tensor, logits_fake: ad.Tensor) -> ad.Tensor:
    """-mean log sigma(real) - mean log(1 - sigma(fake)), probability-clamped."""
    _check_batch(logits_real, "disc_loss")
    _check_batch(logits_fake, "disc_loss")
    p_real = ad.sigmoid(logits_real)
    p_fake = ad.sigmoid(logits_fake)
    t_real = ad.reduce_mean(_clamped_log(p_real))
    t_fake = ad.reduce_mean(_clamped_log(ad.sub(1.0, p_fake)))
    return ad.mul(ad.add(t_real, t_fake), -1.0)


def adv_loss_standard_g(logits_fake: ad.Tensor) -> ad.Tensor:
    """-mean log sigma(fake): the conventional generator objective."""
    _check_batch(logits_fake, "adv_loss_standard_g")
    p_fake = ad.sigmoid(logits_fake)
    return ad.mul(ad.reduce_mean(_clamped_log(p_fake)), -1.0)


def adv_loss_relativistic_g(logits_real: ad.Tensor, logits_fake: ad.Tensor) -> ad.Tensor:
    """Relativistic-average generator loss.

    With D(a, b) = sigma(a - mean(b)):
    -mean log(1 - D(real, fake)) - mean log D(fake, real), clamped.
    """
    _check_batch(logits_real, "adv_loss_relativistic_g")
    _check_batch(logits_fake, "adv_loss_relativistic_g")
    if logits_real.data.shape != logits_fake.data.shape:
        raise ValueError(
            f"adv_loss_relativistic_g: batch shapes differ, "
            f"{logits_real.data.shape} vs {logits_fake.data.shape}"
        )
    d_real = ad.sigmoid(ad.sub(logits_real, ad.reduce_mean(logits_fake)))
    d_fake = ad.sigmoid(ad.sub(logits_fake, ad.reduce_mean(logits_real)))
    t_real = ad.reduce_mean(_clamped_log(ad.sub(1.0, d_real)))
    t_fake = ad.reduce_mean(_clamped_log(d_fake))
    return ad.mul(ad.add(t_real, t_fake), -1.0)


def _mean_p_norm(diff: ad.Tensor, p: int) -> ad.Tensor:
    if p == 1:
        return ad.reduce_mean(ad.absolute(diff))
    if p == 2:
        return ad.reduce_mean(ad.square(diff))
    raise ValueError(f"p must be 1 or 2, got {p!r}")


def pixel_loss(fake: ad.Tensor, real: ad.Tensor, p: int = 1) -> ad.Tensor:
    """Mean elementwise |fake - real|^p."""
    if fake.data.shape != real.data.shape:
        raise ValueError(
            f"pixel_loss: shapes differ, {fake.data.shape} vs {real.data.shape}"
        )
    return _mean_p_norm(ad.sub(fake, real), p)


def feature_loss(
    fake: ad.Tensor, real: ad.Tensor, extractor: FeatureExtractor, p: int = 1
) -> ad.Tensor:
    """Mean |phi(fake) - phi(real)|^p in the frozen extractor's feature space."""
    if fake.data.shape != real.data.shape:
        raise ValueError(
            f"feature_loss: shapes differ, {fake.data.shape} vs {real.data.shape}"
        )
    return _mean_p_norm(ad.sub(extractor.features(fake), extractor.features(real)), p)
