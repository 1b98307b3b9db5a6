"""Minimal tape-based reverse-mode automatic differentiation over numpy.

Forward ops run eagerly on float64 arrays. When a :class:`Tape` is active on
the current thread, each op whose inputs require gradients gives its result a
graph node and appends the node to the tape. ``Tape.backward`` then sweeps the
recorded nodes in strict reverse order, so by construction every node's
gradient is complete before its VJP fires. The sweep frees the graph as it
goes: each node leaves the tape, and drops its gradient, VJP and parents,
before its VJP fires, so the gradients nothing holds are freed as soon as
nothing later in the sweep needs them. Only leaves keep a ``.grad``, and a
tape is swept once.

A node holds no values: a gradient slot, its parents' nodes and its VJP,
which closes over only the arrays it reads (the rule of PyTorch's saved
tensors). A leaf (a :class:`Parameter`, or any tensor no op produced) is its
own node; an op result keeps its node apart from its values, so an
activation dies with the caller's last reference, before ``backward``,
unless a VJP reads it. What each VJP keeps:

- ``conv2d``: the input's values only when the weight needs a gradient, the
  weight's only when the input does
- ``mul`` and ``matmul``: for each side, only the other operand's values
- ``leaky_relu``: its uint8 sign mask; ``clip``: its bool mask
- ``sigmoid``: its output; ``log``, ``absolute`` and ``square``: their input
- ``add``, ``sub``, ``bias_add``, ``reduce_sum``, ``reduce_mean``,
  ``mean_spatial`` and ``upsample_nearest``: only shapes

An input that needs no gradient (a constant, a frozen weight) gets no node:
VJPs keep nothing of it, and it appears among a node's parents as one shared
placeholder.

One rule holds for every op: a VJP computes only the gradients that are
kept. A binary op computes a parent's gradient only when that parent
required one when the op was recorded, and a unary op is recorded only when
its parent does, so constant inputs and frozen weights cost no backward
work.

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
new array (``node.grad + g``). So a node's first gradient is bound as the VJP
hands it over, uncopied, even when ``add`` hands the same cotangent to both
operands or ``reduce_mean`` hands over a read-only broadcast view.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from . import kernels

_LEAKY_SLOPE = 0.2
# leaky_relu's slope of each element, indexed by its mask (1 where x > 0)
_SLOPES = np.array([_LEAKY_SLOPE, 1.0])
_SLOPES.setflags(write=False)

# finite_diff_check's central-difference step; gradcheck_suite's draws
_FD_STEP = 1e-6
_GRADCHECK_TRIALS = 10

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
    "finite_diff_check",
    "gradcheck_suite",
    "PRIMITIVES",
]


class _TapeStack(threading.local):
    def __init__(self):  # runs once per thread: each thread starts with no tape
        self.tapes: list = []


_STACK = _TapeStack()


class _Node:
    """What ``backward`` needs of one tensor, and none of its values: a
    gradient slot, whether it requires a gradient, its parents' nodes and its
    VJP."""

    __slots__ = ("grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, parents: tuple = (), vjp: Callable | None = None,
                 requires_grad: bool = True):
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._vjp = vjp


# stands in, among a node's parents, for every input that needs no gradient
_CONSTANT = _Node(requires_grad=False)


def _on_node(slot: str) -> property:
    """A tensor attribute kept on its node: the tensor's own slot for a leaf,
    the separate node of an op result."""
    field = _Node.__dict__[slot]

    def get(t):
        return field.__get__(t if t._node is None else t._node)

    def set_(t, value):
        field.__set__(t if t._node is None else t._node, value)

    return property(get, set_)


class Tensor(_Node):
    """A float64 array plus the bookkeeping needed for reverse mode.

    A leaf (a tensor no op produced) is its own node. A recorded op result
    keeps its node in ``_node``, so the tape can hold the node while the
    values die with the last reference the caller holds."""

    __slots__ = ("data", "_node")

    grad = _on_node("grad")
    requires_grad = _on_node("requires_grad")
    _parents = _on_node("_parents")
    _vjp = _on_node("_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = None
        _Node.__init__(self, requires_grad=bool(requires_grad))

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
    so far, so one ``backward`` covers ops from every span. ``backward``
    consumes the tape: a spent tape can be neither entered nor swept again.
    ``len`` stays the number of ops recorded."""

    def __init__(self):
        self._nodes: list[_Node | None] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        if self._spent:
            raise RuntimeError("tape already swept by backward: record on a new tape")
        _STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _STACK.tapes.pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted: exited out of order")
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``.grad`` for every leaf ancestor,
        freeing each node as it is swept (see the module docstring)."""
        if self._spent:
            raise RuntimeError("tape already swept by backward")
        if loss.data.shape != ():
            raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        self._spent = True
        loss.grad = np.ones((), dtype=np.float64)
        nodes = self._nodes
        for i in range(len(nodes) - 1, -1, -1):
            node = nodes[i]
            nodes[i] = None
            g, vjp = node.grad, node._vjp
            node.grad, node._vjp, node._parents = None, None, ()
            if g is not None:
                vjp(g)


def _accumulate(node: _Node, g: np.ndarray) -> None:
    """Bind ``g`` as ``node``'s first gradient; add later ones into a new
    array, so a shared gradient never changes under another node."""
    node.grad = g if node.grad is None else node.grad + g


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _grad_node(t: Tensor) -> _Node | None:
    """The node a VJP pushes ``t``'s gradient into: None when no tape is
    recording on this thread or ``t`` requires no gradient, so a VJP keeps
    nothing of a constant."""
    if not _STACK.tapes:
        return None
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _record(opname: str, data: np.ndarray, nodes: tuple, vjp: Callable) -> Tensor:
    """The op result ``data``; recorded, with a node of its own, when any of
    the parents' grad nodes ``nodes`` (from ``_grad_node``) is not None."""
    if not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by op '{opname}'")
    out = Tensor(data)
    if any(n is not None for n in nodes):
        node = _Node(tuple(_CONSTANT if n is None else n for n in nodes), vjp)
        out._node = node
        _STACK.tapes[-1]._nodes.append(node)
    return out


def _scalar_side_grad(scalar: bool, g: np.ndarray) -> np.ndarray:
    """Reduce a broadcast cotangent back to a ()-shaped operand (``scalar``).
    A ()-shaped cotangent passes as is, since ``np.sum(-0.0)`` is +0.0."""
    return np.sum(g) if scalar and np.ndim(g) else g


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
    an, bn = _grad_node(a), _grad_node(b)
    a0, b0 = a.data.shape == (), b.data.shape == ()

    def vjp(g):
        if an is not None:
            _accumulate(an, _scalar_side_grad(a0, g))
        if bn is not None:
            _accumulate(bn, _scalar_side_grad(b0, g))

    return _record("add", a.data + b.data, (an, bn), vjp)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "sub")
    an, bn = _grad_node(a), _grad_node(b)
    a0, b0 = a.data.shape == (), b.data.shape == ()

    def vjp(g):
        if an is not None:
            _accumulate(an, _scalar_side_grad(a0, g))
        if bn is not None:
            _accumulate(bn, _scalar_side_grad(b0, -g))

    return _record("sub", a.data - b.data, (an, bn), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")
    an, bn = _grad_node(a), _grad_node(b)
    a0, b0 = a.data.shape == (), b.data.shape == ()
    # each side keeps only the values the other side's gradient reads
    a_vals = a.data if bn is not None else None
    b_vals = b.data if an is not None else None

    def vjp(g):
        if an is not None:
            _accumulate(an, _scalar_side_grad(a0, g * b_vals))
        if bn is not None:
            _accumulate(bn, _scalar_side_grad(b0, g * a_vals))

    return _record("mul", a.data * b.data, (an, bn), vjp)


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}"
        )
    an, bn = _grad_node(a), _grad_node(b)
    a_vals = a.data if bn is not None else None
    b_vals = b.data if an is not None else None

    def vjp(g):
        if an is not None:
            _accumulate(an, g @ b_vals.T)
        if bn is not None:
            _accumulate(bn, a_vals.T @ g)

    return _record("matmul", a.data @ b.data, (an, bn), vjp)


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
    xn, wn = _grad_node(x), _grad_node(w)
    # the input's values only for a weight gradient, the weights only for an
    # input gradient
    x_vals = x.data if wn is not None else None
    w_vals = w.data if xn is not None else None

    def vjp(g):
        if xn is not None:
            _accumulate(xn, kernels.conv2d_grad_input(g, w_vals))
        if wn is not None:
            _accumulate(wn, kernels.conv2d_grad_weight(x_vals, g, kh, kw))

    return _record("conv2d", kernels.conv2d_forward(x.data, w.data), (xn, wn), vjp)


def bias_add(x, b) -> Tensor:
    """Add a per-channel bias (C,) across an (N,C,H,W) activation."""
    x, b = _as_tensor(x), _as_tensor(b)
    if x.data.ndim != 4 or b.data.shape != (x.data.shape[1],):
        raise ValueError(
            f"bias_add: need (N,C,H,W) and (C,), got {x.data.shape} and {b.data.shape}"
        )
    xn, bn = _grad_node(x), _grad_node(b)

    def vjp(g):
        if xn is not None:
            _accumulate(xn, g)
        if bn is not None:
            _accumulate(bn, g.sum(axis=(0, 2, 3)))

    return _record("bias_add", x.data + b.data[None, :, None, None], (xn, bn), vjp)


# ---------------------------------------------------------------------------
# nonlinearities and pointwise functions
# ---------------------------------------------------------------------------

def leaky_relu(x) -> Tensor:
    """x where x > 0, else 0.2 * x."""
    x = _as_tensor(x)
    xn = _grad_node(x)
    # _SLOPES.take(pos) is each element's slope, gathered only when needed, so
    # the VJP keeps one byte per element
    pos = (x.data > 0.0).view(np.uint8) if xn is not None else None

    def vjp(g):
        _accumulate(xn, g * _SLOPES.take(pos))

    # the larger of x and 0.2 * x is x * _SLOPES.take(pos), bit for bit
    # (zeros keep their sign), without a data-dependent branch
    return _record("leaky_relu", np.maximum(x.data, x.data * _LEAKY_SLOPE), (xn,), vjp)


def sigmoid(x) -> Tensor:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so
    ``exp`` never overflows."""
    x = _as_tensor(x)
    d = x.data
    e = np.exp(-np.abs(d))
    s = 1.0 + e
    y = np.where(d >= 0.0, 1.0 / s, e / s)
    xn = _grad_node(x)

    def vjp(g):
        _accumulate(xn, g * y * (1.0 - y))

    return _record("sigmoid", y, (xn,), vjp)


def log(x) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data <= 0.0):
        raise FloatingPointError("log: inputs must be strictly positive")
    xn, d = _grad_node(x), x.data

    def vjp(g):
        _accumulate(xn, g / d)

    return _record("log", np.log(d), (xn,), vjp)


def absolute(x) -> Tensor:
    x = _as_tensor(x)
    xn, d = _grad_node(x), x.data

    def vjp(g):
        _accumulate(xn, g * np.sign(d))

    return _record("absolute", np.abs(d), (xn,), vjp)


def square(x) -> Tensor:
    x = _as_tensor(x)
    xn, d = _grad_node(x), x.data

    def vjp(g):
        _accumulate(xn, g * (2.0 * d))

    return _record("square", d * d, (xn,), vjp)


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only where nothing changed."""
    x = _as_tensor(x)
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError(f"clip: need lo < hi, got ({lo}, {hi})")
    xn = _grad_node(x)
    mask = (x.data >= lo) & (x.data <= hi) if xn is not None else None

    def vjp(g):
        _accumulate(xn, g * mask)

    return _record("clip", np.clip(x.data, lo, hi), (xn,), vjp)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def reduce_sum(x) -> Tensor:
    x = _as_tensor(x)
    xn, shape = _grad_node(x), x.data.shape

    def vjp(g):
        _accumulate(xn, np.broadcast_to(g, shape))

    return _record("reduce_sum", np.asarray(x.data.sum()), (xn,), vjp)


def reduce_mean(x) -> Tensor:
    x = _as_tensor(x)
    xn, shape, n = _grad_node(x), x.data.shape, x.data.size

    def vjp(g):
        _accumulate(xn, np.broadcast_to(g / n, shape))

    return _record("reduce_mean", np.asarray(x.data.mean()), (xn,), vjp)


def mean_spatial(x) -> Tensor:
    """(N,C,H,W) -> (N,C) average over the spatial axes."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ValueError(f"mean_spatial: need (N,C,H,W), got {x.data.shape}")
    xn, shape = _grad_node(x), x.data.shape
    hw = shape[2] * shape[3]

    def vjp(g):
        _accumulate(xn, np.broadcast_to(g[:, :, None, None] / hw, shape))

    return _record("mean_spatial", x.data.mean(axis=(2, 3)), (xn,), vjp)


def upsample_nearest(x) -> Tensor:
    """(N,C,H,W) -> (N,C,2H,2W) by pixel replication."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ValueError(f"upsample_nearest: need (N,C,H,W), got {x.data.shape}")
    n, c, h, w = x.data.shape
    y = np.empty((n, c, 2 * h, 2 * w))
    for i in (0, 1):
        for j in (0, 1):
            y[:, :, i::2, j::2] = x.data
    xn = _grad_node(x)

    def vjp(g):
        # Each input pixel gets the sum of its 2x2 output taps, in the order
        # of numpy's g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)): from +0.0,
        # add each tap row's pair, then the rows in order. At w == 1 numpy
        # runs all four taps of a pixel as one sum, so that case keeps the
        # reduction (on an array with one input column).
        if w == 1:
            gx = g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))
        else:
            gx = ((0.0 + (g[:, :, 0::2, 0::2] + g[:, :, 0::2, 1::2]))
                  + (g[:, :, 1::2, 0::2] + g[:, :, 1::2, 1::2]))
        _accumulate(xn, gx)

    return _record("upsample_nearest", y, (xn,), vjp)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def finite_diff_check(
    fn: Callable[[Sequence[Parameter]], Tensor], arrays: Sequence[np.ndarray]
) -> float:
    """Max over coordinates of |g_ad - g_fd| / max(1, |g_fd|), by central
    differences of step 1e-6.

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
            flat[j] = orig + _FD_STEP
            hi = value()
            flat[j] = orig - _FD_STEP
            lo = value()
            flat[j] = orig
            numeric = (hi - lo) / (2.0 * _FD_STEP)
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


PRIMITIVES: dict[str, Callable[[int], tuple]] = {
    "add": lambda s: (lambda p: reduce_sum(mul(add(p[0], p[1]), add(p[0], p[1]))),
                      _rng_arrays([1, s], (3, 4), (3, 4))),
    "sub": lambda s: (lambda p: reduce_sum(square(sub(p[0], p[1]))),
                      _rng_arrays([2, s], (3, 4), (3, 4))),
    "mul": lambda s: (lambda p: reduce_sum(mul(p[0], p[1])),
                      _rng_arrays([3, s], (3, 4), (3, 4))),
    "scalar_broadcast": lambda s: (
        lambda p: reduce_sum(square(sub(p[0], reduce_mean(p[1])))),
        _rng_arrays([6, s], (4, 1), (4, 1))),
    "matmul": lambda s: (lambda p: reduce_sum(square(matmul(p[0], p[1]))),
                         _rng_arrays([7, s], (3, 4), (4, 2))),
    "conv2d": lambda s: (lambda p: reduce_sum(square(conv2d(p[0], p[1]))),
                         _rng_arrays([8, s], (2, 3, 5, 6), (4, 3, 3, 3))),
    "bias_add": lambda s: (lambda p: reduce_sum(square(bias_add(p[0], p[1]))),
                           _rng_arrays([9, s], (2, 3, 4, 4), (3,))),
    "leaky_relu": lambda s: (lambda p: reduce_sum(square(leaky_relu(p[0]))),
                             [_away_from(_rng_arrays([10, s], (4, 5))[0])]),
    "sigmoid": lambda s: (lambda p: reduce_sum(square(sigmoid(p[0]))),
                          _rng_arrays([11, s], (4, 5))),
    "log": lambda s: (lambda p: reduce_sum(square(log(p[0]))),
                      [np.abs(_rng_arrays([12, s], (4, 5))[0]) + 0.5]),
    "absolute": lambda s: (lambda p: reduce_sum(square(absolute(p[0]))),
                           [_away_from(_rng_arrays([14, s], (4, 5))[0])]),
    "square": lambda s: (lambda p: reduce_sum(square(p[0])),
                         _rng_arrays([15, s], (4, 5))),
    "clip": lambda s: (lambda p: reduce_sum(square(clip(p[0], -1.0, 1.0))),
                       [_away_from(_away_from(_rng_arrays([16, s], (4, 5))[0], -1.0), 1.0)]),
    "reduce_sum": lambda s: (lambda p: square(reduce_sum(p[0])),
                             _rng_arrays([17, s], (3, 4))),
    "reduce_mean": lambda s: (lambda p: square(reduce_mean(p[0])),
                              _rng_arrays([18, s], (3, 4))),
    "mean_spatial": lambda s: (lambda p: reduce_sum(square(mean_spatial(p[0]))),
                               _rng_arrays([19, s], (2, 3, 4, 4))),
    "upsample_nearest": lambda s: (
        lambda p: reduce_sum(square(upsample_nearest(p[0]))),
        _rng_arrays([20, s], (2, 2, 3, 3))),
}


def gradcheck_suite() -> list[tuple[str, float]]:
    """Check every registered primitive at ten random inputs.

    Returns (name, worst relative error) pairs sorted by primitive name.
    """
    results = []
    for name in sorted(PRIMITIVES):
        worst = 0.0
        for trial in range(_GRADCHECK_TRIALS):
            fn, arrays = PRIMITIVES[name](trial)
            worst = max(worst, finite_diff_check(fn, arrays))
        results.append((name, worst))
    return results
