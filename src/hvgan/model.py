"""Small conv generator/discriminator, Adam, checkpoints, and the two phases
of training.

Both phases take the networks, the images and the ``TrainConfig``, and draw
their own random streams: ``pretrain_generator(g, images, config)`` and
``adversarial_phase(g, d, images, config)``, which also builds the frozen
feature extractor it uses. ``pretrain`` is the one setup that ``hvgan train``
and ``hvgan compare`` share: on the corpus the caller loaded, it builds G and
D and pretrains G on the pixel loss. Both then run ``adversarial_phase``:
``train`` once, and ``compare`` once per gradient rule from the same
pretrained weights, for ``linear`` and for ``hv_log``, whose trajectory
``hv_log_norm`` shares (see below). This module computes the rows, and
``adversarial_phase`` yields each ``HistoryRow`` as its iteration ends; the
row's field names are ``history.csv``'s header. ``cli`` writes every run
artifact, calling ``save_checkpoint`` for the checkpoint format kept here.

An adversarial iteration runs the generator forward once. ``fake =
G(lr_batch)`` is recorded on a tape kept for G; the discriminator step trains
on ``fake.detach()``; the generator step then re-enters that tape, records
D(fake) with the updated D and the losses onto it, and backpropagates through
G from there. This is the order of PyTorch's DCGAN example, and it gives the
same numbers as a second forward would, since G's weights do not change in
between.

Training is deterministic by construction: every stochastic choice flows from
``np.random.default_rng([seed, stream])``, drawn where it is used (0 = weight
init in ``init_networks``, 1 = pretraining batches in ``pretrain_generator``,
2 = adversarial batches and 3 = feature extractor in ``adversarial_phase``),
and all arithmetic is double precision.

The generator step backpropagates the weighted sum ``sum_k w_k l_k`` with the
weights held as constants of the current iterate. For the hypervolume modes
the weights are ``1/max(mu_k - l_k, eps)``, which is exactly the gradient the
log objectives induce, so the two hypervolume variants (which differ by an
additive constant) produce bit-identical parameter trajectories. The
generator step freezes the discriminator: D's parameters stop requiring
gradients for the step, so the backward pass computes no D weight gradients
and skips the D(real) branch, which cannot reach G.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .data_io import (
    ImageBuffer,
    augment_with_rng,
    load_image,
    random_patch_pair,
    write_atomic,
)
from .losses import (
    FeatureExtractor,
    adv_loss_relativistic_g,
    adv_loss_standard_g,
    disc_loss,
    pixel_loss,
    feature_loss,
)
from .scalarize import (
    DEFAULT_EPS,
    MODE_KINDS,
    clamp_flags,
    gradient_weights,
    scalarize,
)

__all__ = [
    "GeneratorNet",
    "DiscriminatorNet",
    "Adam",
    "TrainConfig",
    "init_networks",
    "apply_generator",
    "pretrain_generator",
    "train_step_discriminator",
    "train_step_generator",
    "adversarial_phase",
    "HistoryRow",
    "pretrain",
    "load_corpus",
    "lr_at",
    "get_state",
    "set_state",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_MAGIC = b"HVGN"
CHECKPOINT_VERSION = 1

ADVERSARIAL_KINDS = ("standard", "relativistic")

# default per-loss upper bounds (gan, pix, fea) by adversarial variant
_DEFAULT_MU = {"relativistic": (20.0, 0.1, 10.0), "standard": (200.0, 0.1, 10.0)}

# The training phases run with numpy's floating-point warnings off: the tape
# checks every op result and raises a FloatingPointError naming the op, so a
# diverging run ends with that one error and no warning lines before it.
# np.errstate's arguments, not an instance: an instance cannot be entered twice.
_FP_WARNINGS_OFF = dict(over="ignore", invalid="ignore", divide="ignore")

# One adversarial iteration's record; the field names are history.csv's header.
HistoryRow = namedtuple("HistoryRow", "iter l_gan l_pix l_fea scalar w_gan w_pix w_fea clamped lr")


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------

def _conv_layers(rng: np.random.Generator, prefix: str, shapes: list) -> list:
    """One (weight, bias) pair per ``(c_out, c_in)`` of ``shapes``, named
    ``<prefix>.conv<i>.w`` and ``.b``: 3x3 weights unit-normal scaled by
    1/sqrt(fan-in), drawn from ``rng`` in order, and zero biases."""
    return [
        (ad.Parameter(rng.standard_normal((co, ci, 3, 3)) / np.sqrt(ci * 3 * 3),
                      name=f"{prefix}.conv{i}.w"),
         ad.Parameter(np.zeros(co), name=f"{prefix}.conv{i}.b"))
        for i, (co, ci) in enumerate(shapes, start=1)
    ]


class GeneratorNet:
    """conv-lrelu x2, then two (x2 nearest upsample + conv-lrelu) stages,
    closing conv + sigmoid; output spatial size is 4x the input."""

    def __init__(self, channels: int, width: int, rng: np.random.Generator):
        if width < 1:
            raise ValueError(f"generator width must be >= 1, got {width}")
        self._layers = _conv_layers(
            rng, "g", [(width, channels), (width, width), (width, width), (channels, width)]
        )

    def params(self) -> list[ad.Parameter]:
        return [p for layer in self._layers for p in layer]

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        (w1, b1), (w2, b2), (w3, b3), (w4, b4) = self._layers
        h = ad.leaky_relu(ad.bias_add(ad.conv2d(x, w1), b1))
        h = ad.leaky_relu(ad.bias_add(ad.conv2d(h, w2), b2))
        h = ad.upsample_nearest(h)
        h = ad.leaky_relu(ad.bias_add(ad.conv2d(h, w3), b3))
        h = ad.upsample_nearest(h)
        return ad.sigmoid(ad.bias_add(ad.conv2d(h, w4), b4))


class DiscriminatorNet:
    """conv-lrelu (C -> w), conv-lrelu (w -> 2w), spatial mean, dense to one
    raw logit per sample (losses apply the sigmoid)."""

    def __init__(self, channels: int, width: int, rng: np.random.Generator):
        if width < 1:
            raise ValueError(f"discriminator width must be >= 1, got {width}")
        self._layers = _conv_layers(rng, "d", [(width, channels), (2 * width, width)])
        self.wd = ad.Parameter(
            rng.standard_normal((2 * width, 1)) / np.sqrt(2 * width), name="d.fc.w"
        )
        self.bd = ad.Parameter(np.zeros(()), name="d.fc.b")

    def params(self) -> list[ad.Parameter]:
        return [p for layer in self._layers for p in layer] + [self.wd, self.bd]

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        h = x
        for w, b in self._layers:
            h = ad.leaky_relu(ad.bias_add(ad.conv2d(h, w), b))
        h = ad.mean_spatial(h)
        return ad.add(ad.matmul(h, self.wd), self.bd)


def init_networks(
    seed: int, channels: int = 1, gen_width: int = 16, disc_width: int = 8
) -> tuple[GeneratorNet, DiscriminatorNet]:
    """Seeded unit-normal weights scaled by 1/sqrt(fan-in); zero biases."""
    if channels not in (1, 3):
        raise ValueError(f"channels must be 1 or 3, got {channels}")
    rng = np.random.default_rng([seed, 0])
    return GeneratorNet(channels, gen_width, rng), DiscriminatorNet(
        channels, disc_width, rng
    )


def apply_generator(g: GeneratorNet, img: ImageBuffer) -> ImageBuffer:
    """Run the generator on a whole image outside any tape."""
    out = g.forward(ad.Tensor(img.data[None]))
    return ImageBuffer(out.data[0])


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Standard Adam with bias correction and the usual constants
    (``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS``); lr is mutable for
    scheduling. ``step`` sets each ``grad`` it read to None, and reads a
    missing one as zeros."""

    def __init__(self, params: Sequence[ad.Parameter], lr: float):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self._m[i] = ADAM_BETA1 * self._m[i] + (1.0 - ADAM_BETA1) * g
            self._v[i] = ADAM_BETA2 * self._v[i] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            p.grad = None


def lr_at(base_lr: float, milestones: Sequence[int], t: int) -> float:
    """Learning rate at 1-indexed iteration t: halved at each passed milestone."""
    return base_lr * 0.5 ** sum(1 for m in milestones if t >= m)


# ---------------------------------------------------------------------------
# parameter state and checkpoints
# ---------------------------------------------------------------------------

def get_state(params: Sequence[ad.Parameter]) -> dict[str, np.ndarray]:
    return {p.name: p.data.copy() for p in params}


def set_state(params: Sequence[ad.Parameter], state: dict[str, np.ndarray]) -> None:
    for p in params:
        if p.name not in state:
            raise ValueError(f"state is missing parameter {p.name!r}")
        if state[p.name].shape != p.data.shape:
            raise ValueError(
                f"state shape mismatch for {p.name!r}: "
                f"{state[p.name].shape} vs {p.data.shape}"
            )
        p.data = state[p.name].copy()


def save_checkpoint(path, params: Sequence[ad.Parameter]) -> None:
    """Flat binary: magic, version u32, count u64, then per parameter the
    name (u16 length + bytes), rank u8, extents u64s, little-endian f64 data.
    Written atomically: ``path`` keeps its old bytes if the write fails."""
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<I", CHECKPOINT_VERSION)
    buf += struct.pack("<Q", len(params))
    for p in params:
        name = p.name.encode("utf-8")
        buf += struct.pack("<H", len(name))
        buf += name
        buf += struct.pack("<B", p.data.ndim)
        for extent in p.data.shape:
            buf += struct.pack("<Q", extent)
        buf += np.ascontiguousarray(p.data, dtype="<f8").tobytes()
    write_atomic(path, [buf])


def load_checkpoint(path) -> dict[str, np.ndarray]:
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    state: dict[str, np.ndarray] = {}
    try:
        version, count = struct.unpack_from("<IQ", blob, 4)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        offset = 16
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            try:
                name = blob[offset : offset + name_len].decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: parameter name is not UTF-8") from None
            offset += name_len
            (rank,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            shape = struct.unpack_from(f"<{rank}Q", blob, offset)
            offset += 8 * rank
            n = math.prod(shape)  # exact: corrupt extents cannot overflow
            if offset + 8 * n > len(blob):
                raise ValueError(f"{path}: truncated checkpoint")
            data = np.frombuffer(blob, dtype="<f8", count=n, offset=offset)
            offset += 8 * n
            try:
                state[name] = data.reshape(shape).astype(np.float64)
            except ValueError:  # a zero extent beside ones numpy cannot hold
                raise ValueError(f"{path}: bad extents {shape} for {name!r}") from None
    except struct.error:
        raise ValueError(f"{path}: truncated checkpoint") from None
    if offset != len(blob):
        raise ValueError(
            f"{path}: {len(blob) - offset} trailing bytes after the last parameter"
        )
    return state


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _is_int(v) -> bool:
    """An integer that is not a bool (JSON ``true`` parses as one)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A number in float range: no bool, NaN, infinity, or integer too large
    to convert (the comparison with an int is exact and cannot overflow)."""
    return (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max
    )


def _is_path(v) -> bool:
    """A str or path-like that is not empty: Path("") is the working directory."""
    return isinstance(v, (str, os.PathLike)) and v != ""


def _reals(key: str, value) -> tuple:
    """A list or tuple of finite numbers as floats; a ValueError naming
    ``key`` for anything else."""
    if not (isinstance(value, (list, tuple)) and all(_is_real(v) for v in value)):
        raise ValueError(f"{key} must be a list of finite numbers, got {value!r}")
    return tuple(float(v) for v in value)


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs; unknown JSON keys are rejected."""

    dataset: str
    output_dir: str
    seed: int = 0
    mode: str = "hv_log"
    mu: tuple | None = None
    eps: float = DEFAULT_EPS
    adversarial: str = "relativistic"
    norm_p: int = 1
    pretrain_iters: int = 2000
    adversarial_iters: int = 1000
    batch_size: int = 4
    patch_size: int = 48
    lr: float = 1e-4
    lr_milestones: tuple = (500,)
    baseline_weights: tuple = (0.005, 0.01, 1.0)
    eval_list: tuple = ()
    feature_tap: str = "post"
    gen_width: int = 16
    disc_width: int = 8

    def __post_init__(self):
        for key, kinds in (("mode", MODE_KINDS), ("adversarial", ADVERSARIAL_KINDS),
                           ("norm_p", (1, 2)), ("feature_tap", ("pre", "post"))):
            value = getattr(self, key)
            # of the kinds' own type too: True and 1.0 both equal 1
            if value not in kinds or type(value) is not type(kinds[0]):
                raise ValueError(f"{key} must be one of {kinds}, got {value!r}")
        for key, floor in (("pretrain_iters", 0), ("adversarial_iters", 0), ("batch_size", 1),
                           ("patch_size", 1), ("gen_width", 1), ("disc_width", 1), ("seed", 0)):
            value = getattr(self, key)
            if not (_is_int(value) and value >= floor):
                raise ValueError(f"{key} must be an integer >= {floor}, got {value!r}")
        for key in ("lr", "eps"):
            v = getattr(self, key)
            if not (_is_real(v) and v > 0):
                raise ValueError(f"{key} must be finite and > 0, got {v!r}")
        if not math.isfinite(1.0 / float(self.eps)):
            raise ValueError(f"eps must have a finite 1/eps, got {self.eps!r}")
        ms = self.lr_milestones
        if (
            not isinstance(ms, (list, tuple))
            or any(not _is_int(m) or m < 1 for m in ms)
            or list(ms) != sorted(set(ms))
        ):
            raise ValueError(
                f"lr_milestones must be strictly increasing positive integers, got {ms!r}"
            )
        object.__setattr__(self, "lr_milestones", tuple(ms))
        if self.mu is not None:
            mu = _reals("mu", self.mu)
            if len(mu) != 3 or any(v <= 0 for v in mu):
                raise ValueError(
                    f"mu must be 3 finite positive reals (gan, pix, fea), got {self.mu!r}"
                )
            object.__setattr__(self, "mu", mu)
        bw = _reals("baseline_weights", self.baseline_weights)
        if len(bw) != 3 or any(v < 0 for v in bw):
            raise ValueError(
                f"baseline_weights must be 3 finite nonnegative reals, got "
                f"{self.baseline_weights!r}"
            )
        object.__setattr__(self, "baseline_weights", bw)
        for key in ("dataset", "output_dir"):
            if not _is_path(getattr(self, key)):
                raise ValueError(f"{key} must be a path, got {getattr(self, key)!r}")
        if not (isinstance(self.eval_list, (list, tuple)) and all(map(_is_path, self.eval_list))):
            raise ValueError(f"eval_list must be a list of paths, got {self.eval_list!r}")
        object.__setattr__(self, "eval_list", tuple(str(p) for p in self.eval_list))

    @property
    def resolved_mu(self) -> tuple:
        return self.mu if self.mu is not None else _DEFAULT_MU[self.adversarial]

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        missing = [k for k in ("dataset", "output_dir") if k not in raw]
        if missing:
            raise ValueError(f"missing required config key(s): {', '.join(missing)}")
        return cls(**raw)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def load_corpus(dataset) -> list[ImageBuffer]:
    """Load every PGM/PPM under a directory (sorted), or a single image file."""
    path = Path(dataset)
    if path.is_file():
        return [load_image(path)]
    if not path.is_dir():
        raise FileNotFoundError(f"dataset path does not exist: {dataset}")
    files = sorted(
        p for p in path.iterdir() if p.suffix.lower() in (".pgm", ".ppm")
    )
    if not files:
        raise ValueError(f"dataset directory has no .pgm/.ppm images: {dataset}")
    images = [load_image(p) for p in files]
    channels = images[0].channels
    for p, img in zip(files, images):
        if img.channels != channels:
            raise ValueError(f"dataset mixes channel counts: {p}")
    return images


def _draw_batch(
    images: Sequence[ImageBuffer],
    batch_size: int,
    patch_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    lrs, hrs = [], []
    for _ in range(batch_size):
        img = images[int(rng.integers(0, len(images)))]
        lr, hr = augment_with_rng(*random_patch_pair(img, patch_size, rng), rng)
        lrs.append(lr)
        hrs.append(hr)
    return np.stack(lrs), np.stack(hrs)


@np.errstate(**_FP_WARNINGS_OFF)
def pretrain_generator(
    g: GeneratorNet, images: Sequence[ImageBuffer], config: TrainConfig
) -> list[tuple[int, float]]:
    """``config.pretrain_iters`` Adam steps on the pixel loss only, batches
    drawn from stream ``[seed, 1]``; returns (iteration, loss) rows."""
    if not images:
        raise ValueError("pretrain_generator: empty dataset")
    rng = np.random.default_rng([config.seed, 1])
    opt = Adam(g.params(), config.lr)
    rows = []
    for t in range(1, config.pretrain_iters + 1):
        lr_batch, hr_batch = _draw_batch(
            images, config.batch_size, config.patch_size, rng
        )
        with ad.Tape() as tape:
            fake = g.forward(ad.Tensor(lr_batch))
            loss = pixel_loss(fake, ad.Tensor(hr_batch), config.norm_p)
            tape.backward(loss)
        opt.step()
        rows.append((t, loss.item()))
    return rows


def train_step_discriminator(
    d: DiscriminatorNet,
    fake: ad.Tensor,
    hr_batch: np.ndarray,
    opt: Adam,
) -> float:
    """One Adam step on the discriminator; the generator output ``fake`` is
    detached, so nothing reaches G."""
    with ad.Tape() as tape:
        logits_real = d.forward(ad.Tensor(hr_batch))
        logits_fake = d.forward(fake.detach())
        loss = disc_loss(logits_real, logits_fake)
        tape.backward(loss)
    opt.step()
    return loss.item()


@contextmanager
def _frozen(params: Sequence[ad.Parameter]):
    """Parameters stop requiring gradients inside the block; restored on
    exit, also when the block raises."""
    saved = [q.requires_grad for q in params]
    for q in params:
        q.requires_grad = False
    try:
        yield
    finally:
        for q, flag in zip(params, saved):
            q.requires_grad = flag


def train_step_generator(
    d: DiscriminatorNet,
    tape: ad.Tape,
    fake: ad.Tensor,
    hr_batch: np.ndarray,
    config: TrainConfig,
    opt: Adam,
    extractor: FeatureExtractor,
) -> tuple[np.ndarray, float, np.ndarray, int]:
    """One generator step under the config's mode, mu, eps, norm_p and
    adversarial variant: returns (loss vector, scalarized value, weights,
    clamp-event count). ``fake`` is G's output, recorded on ``tape``; the
    step records D(fake) and the losses onto that tape and backpropagates
    into the parameters ``opt`` updates. The discriminator is frozen for the
    step (no gradients of its own, see the module docstring) and never
    updated."""
    mu, eps, p = config.resolved_mu, config.eps, config.norm_p
    with _frozen(d.params()), tape:
        hr_t = ad.Tensor(hr_batch)
        logits_fake = d.forward(fake)
        if config.adversarial == "relativistic":
            logits_real = d.forward(hr_t)
            l_gan = adv_loss_relativistic_g(logits_real, logits_fake)
        else:
            l_gan = adv_loss_standard_g(logits_fake)
        l_pix = pixel_loss(fake, hr_t, p)
        l_fea = feature_loss(fake, hr_t, extractor, p)
        losses = np.array([l_gan.item(), l_pix.item(), l_fea.item()])
        if config.mode == "linear":
            fixed = config.baseline_weights
            weights = np.array(fixed, dtype=np.float64)
            clamped = 0
        else:
            fixed = None
            weights = gradient_weights(losses, mu, eps)
            clamped = int(clamp_flags(losses, mu, eps).sum())
        scalar = scalarize(losses, config.mode, mu, eps, fixed)
        total = ad.add(
            ad.add(ad.mul(l_gan, weights[0]), ad.mul(l_pix, weights[1])),
            ad.mul(l_fea, weights[2]),
        )
        tape.backward(total)
    opt.step()
    return losses, scalar, weights, clamped


def adversarial_phase(
    g: GeneratorNet,
    d: DiscriminatorNet,
    images: Sequence[ImageBuffer],
    config: TrainConfig,
) -> Iterator[HistoryRow]:
    """Alternating D/G steps (1:1), one shared batch per iteration, drawn
    from stream ``[seed, 2]``, and one generator forward per iteration. The
    frozen feature extractor is drawn from stream ``[seed, 3]``. Yields one
    ``HistoryRow`` as each iteration ends; floating-point warnings are off
    for the iteration's work only, not for the caller's code between rows."""
    if not images:
        raise ValueError("adversarial_phase: empty dataset")
    rng = np.random.default_rng([config.seed, 2])
    extractor = FeatureExtractor(
        images[0].channels, [config.seed, 3], config.feature_tap
    )
    opt_g = Adam(g.params(), config.lr)
    opt_d = Adam(d.params(), config.lr)
    for t in range(1, config.adversarial_iters + 1):
        with np.errstate(**_FP_WARNINGS_OFF):
            step_lr = lr_at(config.lr, config.lr_milestones, t)
            opt_g.lr = step_lr
            opt_d.lr = step_lr
            lr_batch, hr_batch = _draw_batch(
                images, config.batch_size, config.patch_size, rng
            )
            with ad.Tape() as tape:
                fake = g.forward(ad.Tensor(lr_batch))
            train_step_discriminator(d, fake, hr_batch, opt_d)
            losses, scalar, weights, clamped = train_step_generator(
                d, tape, fake, hr_batch, config, opt_g, extractor
            )
        yield HistoryRow(t, *losses, scalar, *weights, clamped, step_lr)


def pretrain(config: TrainConfig, images: Sequence[ImageBuffer]):
    """Everything before the adversarial phase on the loaded corpus: build
    G and D, and pretrain G. Returns (g, d, pretrain rows)."""
    if not images:
        raise ValueError("pretrain: empty dataset")
    g, d = init_networks(
        config.seed, images[0].channels, config.gen_width, config.disc_width
    )
    return g, d, pretrain_generator(g, images, config)
