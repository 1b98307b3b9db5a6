"""Image ingestion, bicubic downscaling, patch extraction, the points CSV
reader (rows as one float64 array: this module imports nothing from the
package), and ``write_atomic``, which streams every artifact file through
``<name>.tmp``.

Images live as planar (C,H,W) float64 buffers with values in [0,1]. On disk
the package speaks binary PGM (P5, single channel) and PPM (P6, three
channel) with maxval 255: both are fully specified byte formats, so
round-trip behaviour is testable to the bit. Both go through one path:
``load_image`` reads a raster as interleaved (H,W,C) samples and
``save_image`` writes them, so the channel count picks only the magic.
Header comments run from ``#`` to the next line end, as pgm(5) has it.

Every ``ImageBuffer`` is checked on construction (shape, finiteness, range)
and keeps a read-only copy of its pixels; ``load_image``,
``bicubic_downscale``, ``model.apply_generator`` and ``synth`` all build
one. Training patches are plain (C,H,W) arrays: ``check_patch`` states the
patch rule, ``random_patch_pair`` crops a view of an image's read-only
pixels and downscales it by ``SCALE``, and ``augment_with_rng`` flips and
turns both as views. The bicubic weight matrix of each input extent is
built once and cached.
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "SCALE",
    "ImageBuffer",
    "load_image",
    "save_image",
    "write_atomic",
    "bicubic_downscale",
    "check_patch",
    "random_patch_pair",
    "augment_with_rng",
    "parse_number",
    "read_points_csv",
]

SCALE = 4
_BICUBIC_A = -0.5


@dataclass(frozen=True)
class ImageBuffer:
    """Planar (C,H,W) double-precision image with all values in [0,1]. The
    buffer keeps a read-only copy of the pixels it is given, so the caller's
    array stays writable and later writes to it do not reach the buffer.
    Construction checks shape, finiteness and range."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64, order="C")
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3 or arr.shape[0] not in (1, 3):
            raise ValueError(
                f"ImageBuffer: need (C,H,W) with C in {{1,3}}, got shape {arr.shape}"
            )
        if arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ValueError(f"ImageBuffer: empty spatial extent {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("ImageBuffer: values must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError(
                f"ImageBuffer: values must lie in [0,1], got range "
                f"[{arr.min()}, {arr.max()}]"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


# ---------------------------------------------------------------------------
# PGM / PPM
# ---------------------------------------------------------------------------

# one run of whitespace, one comment (from "#" to the next line end, as
# pgm(5) defines it, so a comment also ends the field before it) or one field
_HEADER_ITEM = re.compile(rb"\s+|#[^\r\n]*|(?P<field>[^\s#]+)")


def _read_header_tokens(blob: bytes, count: int) -> tuple[list[bytes], int]:
    """Read ``count`` header fields and the offset of the raster, which
    starts after the one whitespace byte that follows the last field, or
    after the line end of a comment that follows it directly."""
    tokens = []
    i = 0
    while len(tokens) < count:
        item = _HEADER_ITEM.match(blob, i)
        if item is None:
            raise ValueError("truncated header")
        if item["field"]:
            tokens.append(item["field"])
        i = item.end()
    if blob[i : i + 1] == b"#":
        i = _HEADER_ITEM.match(blob, i).end()
    return tokens, i + 1


def load_image(path) -> ImageBuffer:
    """Load a binary PGM (P5) or PPM (P6) file with maxval 255."""
    blob = Path(path).read_bytes()
    try:
        tokens, offset = _read_header_tokens(blob, 4)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    magic = tokens[0]
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"{path}: unsupported magic {magic!r} (need P5 or P6)")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ValueError(f"{path}: non-numeric header fields {tokens[1:]}") from None
    if maxval != 255:
        raise ValueError(f"{path}: maxval must be 255, got {maxval}")
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    payload = blob[offset : offset + need]
    if len(payload) != need:
        raise ValueError(
            f"{path}: truncated payload, expected {need} bytes, got {len(payload)}"
        )
    raw = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    return ImageBuffer(raw.reshape(height, width, channels).transpose(2, 0, 1))


def save_image(img: ImageBuffer, path) -> None:
    """Atomically write P5/P6 with round-half-up 8-bit quantization."""
    q = np.floor(img.data * 255.0 + 0.5)
    q = np.clip(q, 0, 255).astype(np.uint8)
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + f"\n{img.width} {img.height}\n255\n".encode("ascii")
    write_atomic(path, [header + q.transpose(1, 2, 0).tobytes()])


def write_atomic(path, chunks) -> None:
    """Write and flush each bytes-like chunk of ``chunks`` into ``<path>.tmp``
    as it arrives, then rename it over ``path``: ``path`` holds its old bytes
    or all the new ones. A failed write or rename, or an error raised while
    producing the chunks, removes the temporary file and re-raises."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
                f.flush()
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def _keys(t: np.ndarray) -> np.ndarray:
    """Keys cubic interpolation kernel with a = -0.5."""
    a = _BICUBIC_A
    t = np.abs(t)
    t2 = t * t
    t3 = t2 * t
    near = (a + 2.0) * t3 - (a + 3.0) * t2 + 1.0
    far = a * t3 - 5.0 * a * t2 + 8.0 * a * t - 4.0 * a
    return np.where(t <= 1.0, near, np.where(t < 2.0, far, 0.0))


@functools.lru_cache(maxsize=32)
def _bicubic_matrix(n_in: int) -> np.ndarray:
    """(n_in/SCALE, n_in) row-stochastic resampling matrix, edge-clamped;
    built once per ``n_in`` and read-only."""
    n_out = n_in // SCALE
    mat = np.zeros((n_out, n_in))
    for i in range(n_out):
        center = (i + 0.5) * SCALE - 0.5
        base = int(np.floor(center))
        for tap in range(base - 1, base + 3):
            w = float(_keys(np.asarray(center - tap)))
            mat[i, min(max(tap, 0), n_in - 1)] += w
    mat.setflags(write=False)
    return mat


def _downscale(data: np.ndarray) -> np.ndarray:
    """``wh @ data @ ww.T`` of (C,H,W) pixels whose H and W ``SCALE``
    divides, clipped back into [0,1]."""
    wh = _bicubic_matrix(data.shape[1])
    ww = _bicubic_matrix(data.shape[2])
    return np.clip(wh @ data @ ww.T, 0.0, 1.0)


def bicubic_downscale(img: ImageBuffer) -> ImageBuffer:
    """Separable Keys bicubic x4 downscale; output clamped back into [0,1]."""
    if img.height % SCALE or img.width % SCALE:
        raise ValueError(
            f"bicubic_downscale: dimensions {img.height}x{img.width} not "
            f"divisible by {SCALE}"
        )
    return ImageBuffer(_downscale(img.data))


# ---------------------------------------------------------------------------
# patches and augmentation
# ---------------------------------------------------------------------------

def check_patch(img: ImageBuffer, patch_size: int) -> None:
    """Raise ``ValueError`` unless ``SCALE`` divides ``patch_size`` and a
    square patch of that size fits in ``img``."""
    ps = patch_size
    if ps % SCALE:
        raise ValueError(f"patch size must be divisible by {SCALE}, got {ps}")
    if ps > img.height or ps > img.width:
        raise ValueError(
            f"patch {ps}x{ps} larger than image {img.height}x{img.width}"
        )


def random_patch_pair(
    img: ImageBuffer, patch_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One random HR crop, a read-only view of ``img``'s pixels, and its
    bicubic x4 downscale, as ``(lr, hr)`` (C,H,W) arrays (rng-stream
    driven)."""
    ps = int(patch_size)
    check_patch(img, ps)
    top = int(rng.integers(0, img.height - ps + 1))
    left = int(rng.integers(0, img.width - ps + 1))
    hr = img.data[:, top : top + ps, left : left + ps]
    return _downscale(hr), hr


def augment_with_rng(
    lr: np.ndarray, hr: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random horizontal flip then k*90 degree rotation, same for LR and HR;
    returns views of both."""
    flip = bool(rng.random() < 0.5)
    k = int(rng.integers(0, 4))
    if k % 2 and (hr.shape[1] != hr.shape[2] or lr.shape[1] != lr.shape[2]):
        raise ValueError(
            f"augment: odd quarter-turn needs square patches, got HR "
            f"{hr.shape[1]}x{hr.shape[2]}"
        )

    def apply(data: np.ndarray) -> np.ndarray:
        if flip:
            data = data[:, :, ::-1]
        return np.rot90(data, k, axes=(1, 2))

    return apply(lr), apply(hr)


# ---------------------------------------------------------------------------
# points CSV
# ---------------------------------------------------------------------------

def parse_number(text: str) -> float:
    """``float(text)`` of ASCII number text. Text that ``float`` reads but a
    number column never holds, a ``_`` digit separator or a non-ASCII digit,
    raises ``ValueError`` as other non-numeric text does."""
    if "_" in text or not text.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def read_points_csv(path) -> np.ndarray:
    """Headerless UTF-8 CSV of finite objective vectors, one per line, with or
    without a byte-order mark, as a float64 ``(k, n)`` array, ``(0, 0)`` if it
    has no rows; errors name the file, and the line where there is one."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    rows = []
    width = None
    # read_text turned \r\n and \r into \n, and only \n ends a line
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        values = []
        for tok in fields:
            try:
                values.append(parse_number(tok))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric field {tok.strip()!r}"
                ) from None
            if not math.isfinite(values[-1]):
                raise ValueError(
                    f"{path}: line {lineno}: non-finite field {tok.strip()!r}"
                )
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValueError(
                f"{path}: line {lineno}: expected {width} fields, got {len(values)}"
            )
        rows.append(values)
    return np.array(rows, dtype=np.float64).reshape(len(rows), width or 0)
