"""Seeded synthetic grayscale corpus: smooth gradients plus hard edges.

Four recipe families rotate across the images: oriented linear ramps, 2-d
sinusoids, radial gradients, and piecewise-constant edge fields made by
thresholding a smooth random surface. Everything is derived from
``default_rng([seed, index])`` so the corpus is a pure function of the seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data_io import ImageBuffer, save_image

__all__ = ["make_image", "make_corpus", "write_corpus"]

_LO, _HI = 0.02, 0.98


def _rescale(field: np.ndarray) -> np.ndarray:
    span = field.max() - field.min()
    if span == 0.0:
        return np.full_like(field, 0.5)
    unit = (field - field.min()) / span
    return _LO + (_HI - _LO) * unit


def make_image(seed: int, index: int, size: int = 64) -> ImageBuffer:
    """One synthetic (1,size,size) image; recipe chosen by index modulo 4."""
    if size < 8:
        raise ValueError(f"size must be >= 8, got {size}")
    rng = np.random.default_rng([seed, index])
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / (size - 1)
    kind = index % 4
    if kind == 0:
        # oriented linear ramp
        theta = rng.uniform(0.0, np.pi)
        field = np.cos(theta) * xx + np.sin(theta) * yy
    elif kind == 1:
        # two-frequency sinusoid
        fx, fy = rng.uniform(1.0, 4.0, size=2)
        px, py = rng.uniform(0.0, 2.0 * np.pi, size=2)
        field = np.sin(2.0 * np.pi * fx * xx + px) + np.sin(2.0 * np.pi * fy * yy + py)
    elif kind == 2:
        # radial gradient around a random center
        cx, cy = rng.uniform(0.25, 0.75, size=2)
        field = -np.sqrt((xx - cx) ** 2 + (yy - cy) ** 2)
    else:
        # hard edges: threshold a smooth random surface into flat levels
        fx, fy = rng.uniform(0.5, 2.0, size=2)
        px, py = rng.uniform(0.0, 2.0 * np.pi, size=2)
        smooth = np.sin(2.0 * np.pi * fx * xx + px) + np.cos(2.0 * np.pi * fy * yy + py)
        levels = rng.uniform(0.0, 1.0, size=3)
        field = levels[np.clip(np.digitize(smooth, [-0.5, 0.5]), 0, 2)]
    return ImageBuffer(_rescale(field)[None, :, :])


def make_corpus(seed: int = 0, count: int = 8, size: int = 64) -> list[ImageBuffer]:
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return [make_image(seed, i, size) for i in range(count)]


def write_corpus(out_dir, seed: int = 0, count: int = 8, size: int = 64) -> list[str]:
    """Write the corpus as PGM files and return the created paths. Every
    image is made before the directory is created, so invalid arguments
    write nothing."""
    images = make_corpus(seed, count, size)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, img in enumerate(images):
        p = out / f"img_{i:03d}.pgm"
        save_image(img, p)
        paths.append(str(p))
    return paths
