"""Minimal tape-based reverse-mode automatic differentiation over numpy.

Forward ops run eagerly on float64 arrays. When a :class:`Tape` is active on
the current thread, each op whose inputs require gradients appends the result
to the tape together with a closure that pushes the output cotangent back to
the parents. ``Tape.backward`` then sweeps the recorded ops in strict reverse
order, so by construction every node's gradient is complete before its
closure fires. The linear ops (``matmul``, ``conv2d``, ``bias_add``) compute
a parent's gradient only when that parent requires gradients, so constant
inputs and frozen weights cost no backward work.

There is one primitive per operation: ``add``, ``sub``, ``mul``, ``matmul``,
``conv2d``, ``bias_add``, ``leaky_relu``, ``sigmoid``, ``log``, ``absolute``,
``square``, ``clip``, ``reduce_sum``, ``reduce_mean``, ``mean_spatial`` and
``upsample_nearest``. ``add``, ``sub`` and ``mul`` take a Python float on
either side, so ``mul(x, c)`` scales and ``sub(1.0, p)`` complements in one
tape node.

Every forward op validates that its result is finite and raises
``FloatingPointError`` otherwise, which turns silent NaN propagation into an
immediate, located failure.

No code writes into a ``.grad`` array in place: accumulation always binds a
new array (``t.grad + g``). So one array may serve as the gradient of several
tensors, as when ``add`` hands the same cotangent to both operands, and
``_accumulate`` keeps an owned array that a VJP hands it without a copy.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from . import kernels

__all__ = [
    "Tensor",
    "Parameter",
    "Tape",
    "add",
    "sub",
    "mul",
    "matmul",
    "conv2d",
    "bias_add",
    "leaky_relu",
    "sigmoid",
    "log",
    "absolute",
    "square",
    "clip",
    "reduce_sum",
    "reduce_mean",
    "mean_spatial",
    "upsample_nearest",
    "zero_grads",
    "finite_diff_check",
    "gradcheck_suite",
    "PRIMITIVES",
]

_STACK = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STACK, "stack", None)
    if stack is None:
        stack = []
        _STACK.stack = stack
    return stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse mode."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A view of the same values that blocks gradient flow."""
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named trainable tensor."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Tape:
    """Records ops on the current thread while active as a context manager.

    A tape can be entered again after it exits: it keeps the nodes recorded
    so far, so one ``backward`` covers ops from every span."""

    def __init__(self):
        self._nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted: exited out of order")
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(node) into ``.grad`` for every ancestor."""
        if loss.data.shape != ():
            raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        loss.grad = np.ones((), dtype=np.float64)
        for node in reversed(self._nodes):
            if node.grad is None or node._vjp is None:
                continue
            node._vjp(node.grad)


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad``. A first gradient that is a float64 array
    owning its memory is stored as is, possibly shared with other tensors;
    views (read-only broadcasts, slices of kernel buffers) and other dtypes
    are copied. Later ones bind a new array, so a shared gradient never
    changes under another tensor."""
    if not t.requires_grad:  # a tensor with parents always requires grad
        return
    if t.grad is None:
        owned = isinstance(g, np.ndarray) and g.dtype == np.float64 and g.base is None
        t.grad = g if owned else np.array(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _record(opname: str, data: np.ndarray, parents: tuple, vjp: Callable) -> Tensor:
    if not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by op '{opname}'")
    out = Tensor(data)
    tape = _active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
        tape._nodes.append(out)
    return out


def _scalar_side_grad(t: Tensor, g: np.ndarray) -> np.ndarray:
    """Reduce a broadcast cotangent back to a ()-shaped operand. A ()-shaped
    cotangent passes as is, since ``np.sum(-0.0)`` is +0.0."""
    return np.sum(g) if t.data.shape == () and np.ndim(g) else g


def _check_broadcast(a: Tensor, b: Tensor, opname: str) -> None:
    if a.data.shape != b.data.shape and a.data.shape != () and b.data.shape != ():
        raise ValueError(
            f"{opname}: shapes {a.data.shape} and {b.data.shape} must match "
            "or one side must be scalar"
        )


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "add")

    def vjp(g):
        _accumulate(a, _scalar_side_grad(a, g))
        _accumulate(b, _scalar_side_grad(b, g))

    return _record("add", a.data + b.data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "sub")

    def vjp(g):
        _accumulate(a, _scalar_side_grad(a, g))
        _accumulate(b, _scalar_side_grad(b, -g))

    return _record("sub", a.data - b.data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")

    def vjp(g):
        _accumulate(a, _scalar_side_grad(a, g * b.data))
        _accumulate(b, _scalar_side_grad(b, g * a.data))

    return _record("mul", a.data * b.data, (a, b), vjp)


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}"
        )

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _record("matmul", a.data @ b.data, (a, b), vjp)


def conv2d(x, w) -> Tensor:
    """Stride-1 same-zero-padding correlation: (N,C,H,W) x (O,C,kh,kw)."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 4 or x.data.shape[1] != w.data.shape[1]:
        raise ValueError(
            f"conv2d: incompatible shapes {x.data.shape} and {w.data.shape}"
        )
    kh, kw = w.data.shape[2], w.data.shape[3]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernel extents must be odd, got ({kh}, {kw})")

    def vjp(g):
        if x.requires_grad:
            _accumulate(x, kernels.conv2d_grad_input(g, w.data))
        if w.requires_grad:
            _accumulate(w, kernels.conv2d_grad_weight(x.data, g, kh, kw))

    return _record("conv2d", kernels.conv2d_forward(x.data, w.data), (x, w), vjp)


def bias_add(x, b) -> Tensor:
    """Add a per-channel bias (C,) across an (N,C,H,W) activation."""
    x, b = _as_tensor(x), _as_tensor(b)
    if x.data.ndim != 4 or b.data.shape != (x.data.shape[1],):
        raise ValueError(
            f"bias_add: need (N,C,H,W) and (C,), got {x.data.shape} and {b.data.shape}"
        )

    def vjp(g):
        if x.requires_grad:
            _accumulate(x, g)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=(0, 2, 3)))

    return _record("bias_add", x.data + b.data[None, :, None, None], (x, b), vjp)


# ---------------------------------------------------------------------------
# nonlinearities and pointwise functions
# ---------------------------------------------------------------------------

def leaky_relu(x, alpha: float = 0.2) -> Tensor:
    """x where x > 0, else alpha * x, for a slope 0 <= alpha <= 1."""
    x = _as_tensor(x)
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"leaky_relu: alpha must lie in [0, 1], got {alpha}")
    # slopes[pos] is each element's slope, gathered only when needed, so the
    # node keeps one byte per element
    pos = (x.data > 0.0).view(np.uint8)
    slopes = np.array([alpha, 1.0])

    def vjp(g):
        _accumulate(x, g * slopes[pos])

    # for alpha <= 1 the larger of x and alpha * x is x * slopes[pos], bit for
    # bit (zeros keep their sign), without a data-dependent branch
    return _record("leaky_relu", np.maximum(x.data, x.data * alpha), (x,), vjp)


def sigmoid(x) -> Tensor:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so
    ``exp`` never overflows."""
    x = _as_tensor(x)
    d = x.data
    e = np.exp(-np.abs(d))
    s = 1.0 + e
    y = np.where(d >= 0.0, 1.0 / s, e / s)

    def vjp(g):
        _accumulate(x, g * y * (1.0 - y))

    return _record("sigmoid", y, (x,), vjp)


def log(x) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data <= 0.0):
        raise FloatingPointError("log: inputs must be strictly positive")

    def vjp(g):
        _accumulate(x, g / x.data)

    return _record("log", np.log(x.data), (x,), vjp)


def absolute(x) -> Tensor:
    x = _as_tensor(x)

    def vjp(g):
        _accumulate(x, g * np.sign(x.data))

    return _record("absolute", np.abs(x.data), (x,), vjp)


def square(x) -> Tensor:
    x = _as_tensor(x)

    def vjp(g):
        _accumulate(x, g * (2.0 * x.data))

    return _record("square", x.data * x.data, (x,), vjp)


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only where nothing changed."""
    x = _as_tensor(x)
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError(f"clip: need lo < hi, got ({lo}, {hi})")
    mask = (x.data >= lo) & (x.data <= hi)

    def vjp(g):
        _accumulate(x, g * mask)

    return _record("clip", np.clip(x.data, lo, hi), (x,), vjp)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def reduce_sum(x) -> Tensor:
    x = _as_tensor(x)

    def vjp(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape))

    return _record("reduce_sum", np.asarray(x.data.sum()), (x,), vjp)


def reduce_mean(x) -> Tensor:
    x = _as_tensor(x)
    n = x.data.size

    def vjp(g):
        _accumulate(x, np.broadcast_to(g / n, x.data.shape))

    return _record("reduce_mean", np.asarray(x.data.mean()), (x,), vjp)


def mean_spatial(x) -> Tensor:
    """(N,C,H,W) -> (N,C) average over the spatial axes."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ValueError(f"mean_spatial: need (N,C,H,W), got {x.data.shape}")
    hw = x.data.shape[2] * x.data.shape[3]

    def vjp(g):
        _accumulate(x, np.broadcast_to(g[:, :, None, None] / hw, x.data.shape))

    return _record("mean_spatial", x.data.mean(axis=(2, 3)), (x,), vjp)


def upsample_nearest(x, factor: int) -> Tensor:
    """(N,C,H,W) -> (N,C,fH,fW) by pixel replication."""
    x = _as_tensor(x)
    f = int(factor)
    if x.data.ndim != 4 or f < 1:
        raise ValueError(
            f"upsample_nearest: need (N,C,H,W) and factor >= 1, got "
            f"{x.data.shape} and {factor}"
        )
    n, c, h, w = x.data.shape
    y = np.empty((n, c, f * h, f * w))
    for i in range(f):
        for j in range(f):
            y[:, :, i::f, j::f] = x.data

    def vjp(g):
        # Each input pixel gets the sum of its f*f output taps, in the order
        # of numpy's g.reshape(n, c, h, f, w, f).sum(axis=(3, 5)): from +0.0,
        # add the taps of each tap row in order, then the rows in order. At
        # w == 1 numpy runs all f*f taps of a pixel as one sum, so that case
        # keeps the reduction (on an array with one input column).
        if w == 1:
            gx = g.reshape(n, c, h, f, w, f).sum(axis=(3, 5))
        else:
            gx = 0.0
            for i in range(f):
                row = g[:, :, i::f, 0::f]
                for j in range(1, f):
                    row = row + g[:, :, i::f, j::f]
                gx = gx + row
        _accumulate(x, gx)

    return _record("upsample_nearest", y, (x,), vjp)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def finite_diff_check(
    fn: Callable[[Sequence[Parameter]], Tensor],
    arrays: Sequence[np.ndarray],
    step: float = 1e-6,
) -> float:
    """Max over coordinates of |g_ad - g_fd| / max(1, |g_fd|).

    ``fn`` maps a list of tensors to a scalar and is re-run from scratch for
    every central-difference probe, so it must be deterministic.
    """
    params = [Parameter(a.copy(), name=f"arg{i}") for i, a in enumerate(arrays)]
    with Tape() as tape:
        out = fn(params)
        tape.backward(out)
    analytic = [
        np.zeros_like(p.data) if p.grad is None else np.array(p.grad) for p in params
    ]

    probe = [a.copy() for a in arrays]  # probed in place, one coordinate at a time

    def value():
        # plain Tensors: nothing requires grad, so no tape is needed
        return float(fn([Tensor(a) for a in probe]).data)

    worst = 0.0
    for i, a in enumerate(probe):
        flat = a.reshape(-1)  # a view: a fresh copy is C-contiguous
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = value()
            flat[j] = orig - step
            lo = value()
            flat[j] = orig
            numeric = (hi - lo) / (2.0 * step)
            err = abs(numeric - analytic[i].ravel()[j]) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


def _rng_arrays(seed, *shapes):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(s) for s in shapes]


def _away_from(a: np.ndarray, kink: float = 0.0, margin: float = 0.05) -> np.ndarray:
    """Nudge values off a nondifferentiable point so FD probes stay one-sided."""
    b = a.copy()
    close = np.abs(b - kink) < margin
    b[close] = kink + 2.0 * margin * np.where(b[close] >= kink, 1.0, -1.0)
    return b


def _s(seed, k: int):
    return [k, seed] if np.isscalar(seed) else [k, *seed]


PRIMITIVES: dict[str, Callable[[int], tuple]] = {
    "add": lambda s: (lambda p: reduce_sum(mul(add(p[0], p[1]), add(p[0], p[1]))),
                      _rng_arrays(_s(s, 1), (3, 4), (3, 4))),
    "sub": lambda s: (lambda p: reduce_sum(square(sub(p[0], p[1]))),
                      _rng_arrays(_s(s, 2), (3, 4), (3, 4))),
    "mul": lambda s: (lambda p: reduce_sum(mul(p[0], p[1])),
                      _rng_arrays(_s(s, 3), (3, 4), (3, 4))),
    "scalar_broadcast": lambda s: (
        lambda p: reduce_sum(square(sub(p[0], reduce_mean(p[1])))),
        _rng_arrays(_s(s, 6), (4, 1), (4, 1))),
    "matmul": lambda s: (lambda p: reduce_sum(square(matmul(p[0], p[1]))),
                         _rng_arrays(_s(s, 7), (3, 4), (4, 2))),
    "conv2d": lambda s: (lambda p: reduce_sum(square(conv2d(p[0], p[1]))),
                         _rng_arrays(_s(s, 8), (2, 3, 5, 6), (4, 3, 3, 3))),
    "bias_add": lambda s: (lambda p: reduce_sum(square(bias_add(p[0], p[1]))),
                           _rng_arrays(_s(s, 9), (2, 3, 4, 4), (3,))),
    "leaky_relu": lambda s: (lambda p: reduce_sum(square(leaky_relu(p[0], 0.2))),
                             [_away_from(_rng_arrays(_s(s, 10), (4, 5))[0])]),
    "sigmoid": lambda s: (lambda p: reduce_sum(square(sigmoid(p[0]))),
                          _rng_arrays(_s(s, 11), (4, 5))),
    "log": lambda s: (lambda p: reduce_sum(square(log(p[0]))),
                      [np.abs(_rng_arrays(_s(s, 12), (4, 5))[0]) + 0.5]),
    "absolute": lambda s: (lambda p: reduce_sum(square(absolute(p[0]))),
                           [_away_from(_rng_arrays(_s(s, 14), (4, 5))[0])]),
    "square": lambda s: (lambda p: reduce_sum(square(p[0])),
                         _rng_arrays(_s(s, 15), (4, 5))),
    "clip": lambda s: (lambda p: reduce_sum(square(clip(p[0], -1.0, 1.0))),
                       [_away_from(_away_from(_rng_arrays(_s(s, 16), (4, 5))[0], -1.0), 1.0)]),
    "reduce_sum": lambda s: (lambda p: square(reduce_sum(p[0])),
                             _rng_arrays(_s(s, 17), (3, 4))),
    "reduce_mean": lambda s: (lambda p: square(reduce_mean(p[0])),
                              _rng_arrays(_s(s, 18), (3, 4))),
    "mean_spatial": lambda s: (lambda p: reduce_sum(square(mean_spatial(p[0]))),
                               _rng_arrays(_s(s, 19), (2, 3, 4, 4))),
    "upsample_nearest": lambda s: (
        lambda p: reduce_sum(square(upsample_nearest(p[0], 2))),
        _rng_arrays(_s(s, 20), (2, 2, 3, 3))),
}


def gradcheck_suite(trials: int = 10, step: float = 1e-6) -> list[tuple[str, float]]:
    """Check every registered primitive at ``trials`` random inputs.

    Returns (name, worst relative error) pairs sorted by primitive name.
    """
    results = []
    for name in sorted(PRIMITIVES):
        worst = 0.0
        for trial in range(trials):
            fn, arrays = PRIMITIVES[name](trial)
            worst = max(worst, finite_diff_check(fn, arrays, step=step))
        results.append((name, worst))
    return results
