"""Per-layer tracing of hvgan from outside the package.

The tracer replaces public functions with timing wrappers at the place where
their caller looks the name up: ``model`` and ``cli`` import functions by
name, so those are patched in the importing module; ``autodiff`` and ``moo``
call ``kernels.<name>``, so the kernels are patched on the kernels module.
Every wrapped call is a span (name, start, end, parent).  A span's self time
is its duration minus the time covered by its child spans, so the self times
of one command add up to the duration of its root span (``cli``).

``install`` and ``uninstall`` swap the wrappers in and out, so one process can
alternate untraced and traced repetitions of the same command.
"""

from __future__ import annotations

import inspect
import statistics
from collections import defaultdict
from time import perf_counter

# span names whose self time is reported as ``<name>.self_ms``; together they
# partition the time inside ``cli``
SPANS = (
    "cli",
    "kernels.conv2d_forward",
    "kernels.conv2d_grad_input",
    "kernels.conv2d_grad_weight",
    "kernels.count_dominated",
    "autodiff.backward",
    "losses.features",
    "losses.feature_loss",
    "losses.pixel_loss",
    "losses.adv_loss_relativistic_g",
    "losses.disc_loss",
    "scalarize",
    "model.pretrain_generator",
    "model.train_step_discriminator",
    "model.train_step_generator",
    "model.adam",
    "model.batch",
    "model.checkpoint",
    "model.apply_generator",
    "metrics.psnr",
    "metrics.ssim",
    "metrics.gmsd",
    "data_io.load_image",
    "data_io.bicubic_downscale",
    "data_io.read_points_csv",
    "moo.hypervolume_exact",
    "moo.hypervolume_mc",
    "moo.pareto_filter",
)

CONV_KERNELS = ("conv2d_forward", "conv2d_grad_input", "conv2d_grad_weight")
STEP_SPANS = ("model.train_step_discriminator", "model.train_step_generator")


def _per_layer_units() -> dict:
    units = {}
    for k in CONV_KERNELS:
        base = f"kernels.{k}"
        units.update({
            f"{base}.calls": "count",
            f"{base}.gflop": "GFLOP",
            f"{base}.mb": "MB",
            f"{base}.gflop_per_s": "GFLOP/s",
        })
    units.update({
        "kernels.count_dominated.calls": "count",
        "kernels.count_dominated.gcmp": "Gcmp",
        "autodiff.backward.calls": "count",
        "autodiff.tape_nodes_per_step": "count",
        "autodiff.grad_weight_useful_frac": "ratio",
        "autodiff.grad_input_useful_frac": "ratio",
    })
    for phase in ("pretrain_step", "adv_iter"):
        for kind in ("grad_weight", "grad_input"):
            units[f"autodiff.{phase}.{kind}_calls"] = "count"
            units[f"autodiff.{phase}.{kind}_useful_frac"] = "ratio"
    units.update({
        "losses.features.calls": "count",
        "scalarize.clamp_events": "count",
    })
    for step in STEP_SPANS:
        units.update({f"{step}.ms.p50": "ms", f"{step}.ms.p95": "ms", f"{step}.n": "count"})
    for name in SPANS:
        units[f"{name}.self_ms"] = "ms"
    units.update({
        "trace.reps": "count",
        "trace.wall_ms": "ms",
        "trace.untraced_wall_ms": "ms",
        "trace.overhead_ms": "ms",
        "trace.self_sum_ms": "ms",
        "trace.untimed_ms": "ms",
    })
    return units


# every per-layer metric the traced run prints, with its unit
PER_LAYER_UNITS = _per_layer_units()


def _conv_work(n, c, h, w, o, kh, kw, operand_elems) -> tuple[float, float]:
    """(flop, bytes) of one same-padding conv: 2 flop per multiply-add, and
    the float64 operands plus result read or written once."""
    return 2.0 * n * h * w * o * c * kh * kw, 8.0 * operand_elems


def _forward_work(args, kwargs, result):
    x, w = args[0], args[1]
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    return _conv_work(n, c, h, wd, o, kh, kw, x.size + w.size + n * o * h * wd)


def _p95(values: list) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[18]


class Tracer:
    """Span recorder plus the patch table for one imported hvgan package."""

    def __init__(self, hvgan_modules: dict):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self._step_ms: dict = defaultdict(list)
        self._reps: list = []
        # what the running training step updates, read by the conv VJP hooks
        self.phase = None
        self.optimized = frozenset()
        self._conv_parents = None
        self._reach: dict = {}
        self._build(hvgan_modules)

    # -- patch table -------------------------------------------------------

    def _build(self, m: dict) -> None:
        cli, model, kernels, ad, losses = (
            m["cli"], m["model"], m["kernels"], m["autodiff"], m["losses"]
        )
        add = self._add
        add(cli, "main", "cli")
        add(kernels, "conv2d_forward", "kernels.conv2d_forward", _forward_work)
        add(kernels, "conv2d_grad_input", "kernels.conv2d_grad_input", self._grad_input_info)
        add(kernels, "conv2d_grad_weight", "kernels.conv2d_grad_weight", self._grad_weight_info)
        add(kernels, "count_dominated", "kernels.count_dominated",
            lambda a, k, r: a[0].shape[0] * a[1].shape[0] * a[1].shape[1])
        add(ad.Tape, "backward", "autodiff.backward", self._backward_info,
            enter=self._backward_enter)
        self._patches.append((ad, "conv2d", ad.conv2d, self._hook_conv2d(ad.conv2d)))
        add(losses.FeatureExtractor, "features", "losses.features")
        for fn in ("feature_loss", "pixel_loss", "adv_loss_relativistic_g", "disc_loss"):
            add(model, fn, f"losses.{fn}")
        add(model, "scalarize", "scalarize")
        add(model, "gradient_weights", "scalarize")
        add(model, "clamp_flags", "scalarize", lambda a, k, r: int(r.sum()))
        for fn, phase, arg in (
            ("pretrain_generator", "pretrain_step", "g"),
            ("train_step_discriminator", "adv_iter", "opt"),
            ("train_step_generator", "adv_iter", "opt"),
        ):
            add(model, fn, f"model.{fn}",
                enter=self._step_context(phase, inspect.signature(getattr(model, fn)), arg))
        add(model.Adam, "step", "model.adam")
        add(model, "random_patch_pair", "model.batch")
        add(model, "augment_with_rng", "model.batch")
        add(model, "save_checkpoint", "model.checkpoint")
        add(model, "load_checkpoint", "model.checkpoint")
        add(model, "apply_generator", "model.apply_generator")
        add(model, "load_image", "data_io.load_image")
        for fn in ("psnr", "ssim", "gmsd"):
            add(cli, fn, f"metrics.{fn}")
        for fn in ("load_image", "bicubic_downscale", "read_points_csv"):
            add(cli, fn, f"data_io.{fn}")
        for fn in ("hypervolume_exact", "hypervolume_mc", "pareto_filter"):
            add(cli, fn, f"moo.{fn}")

    def _add(self, owner, attr, name, info=None, enter=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self._wrap(name, original, info, enter)))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, info, enter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            restore = enter(args, kwargs) if enter is not None else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if restore is not None:
                    restore()
                spans[idx] = (name, t0, t1, parent, None)
            if info is not None:
                spans[idx] = (name, t0, t1, parent, info(args, kwargs, result))
            return result

        return traced

    # -- wasted-work accounting -------------------------------------------

    def _step_context(self, phase: str, signature, arg: str):
        """Enter hook: record which parameters this step's optimizer updates
        (the ``opt`` argument, or the generator that pretraining optimizes)."""

        def enter(args, kwargs):
            bound = signature.bind(*args, **kwargs).arguments[arg]
            params = bound.params if arg == "opt" else bound.params()
            saved = (self.phase, self.optimized)
            self.phase, self.optimized = phase, frozenset(id(p) for p in params)

            def restore():
                self.phase, self.optimized = saved

            return restore

        return enter

    def _hook_conv2d(self, conv2d):
        """Wrap autodiff.conv2d so that its VJP tells the gradient kernels
        which tensors (input, weight) the gradients are for."""

        def hooked_conv2d(x, w):
            out = conv2d(x, w)
            vjp = out._vjp
            if vjp is not None:
                parents = out._parents

                def traced_vjp(g):
                    saved = self._conv_parents
                    self._conv_parents = parents
                    try:
                        vjp(g)
                    finally:
                        self._conv_parents = saved

                out._vjp = traced_vjp
            return out

        return hooked_conv2d

    def _reaches(self, t) -> bool:
        """True when a gradient pushed into tensor ``t`` reaches a parameter
        that the running step's optimizer updates."""
        key = id(t)
        hit = self._reach.get(key)
        if hit is None:
            hit = key in self.optimized or any(self._reaches(p) for p in t._parents)
            self._reach[key] = hit
        return hit

    def _backward_enter(self, args, kwargs):
        self._reach = {}
        return None

    def _backward_info(self, args, kwargs, result):
        return self.phase, len(args[0])

    def _grad_input_info(self, args, kwargs, result):
        gy, w = args[0], args[1]
        n, o, h, wd = gy.shape
        _, c, kh, kw = w.shape
        flop, nbytes = _conv_work(n, c, h, wd, o, kh, kw, gy.size + w.size + n * c * h * wd)
        useful = self._conv_parents is not None and self._reaches(self._conv_parents[0])
        return flop, nbytes, self.phase, useful

    def _grad_weight_info(self, args, kwargs, result):
        x, gy, kh, kw = args[0], args[1], args[2], args[3]
        n, c, h, wd = x.shape
        o = gy.shape[1]
        flop, nbytes = _conv_work(n, c, h, wd, o, kh, kw, x.size + gy.size + o * c * kh * kw)
        useful = (
            self._conv_parents is not None and id(self._conv_parents[1]) in self.optimized
        )
        return flop, nbytes, self.phase, useful

    # -- aggregation -------------------------------------------------------

    def end_rep(self, wall_s: float) -> None:
        """Fold the spans of one traced repetition into per-rep totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        rep = defaultdict(float)
        for i, (name, t0, t1, parent, info) in enumerate(spans):
            dur = t1 - t0
            rep[f"{name}.self_s"] += dur - child[i]
            rep[f"{name}.calls"] += 1
            rep[f"{name}.incl_s"] += dur
            if name in STEP_SPANS:
                self._step_ms[name].append(1e3 * dur)
            if info is None:
                continue
            if name == "kernels.conv2d_forward":
                rep[f"{name}.flop"] += info[0]
                rep[f"{name}.bytes"] += info[1]
            elif name in ("kernels.conv2d_grad_input", "kernels.conv2d_grad_weight"):
                flop, nbytes, phase, useful = info
                kind = name[len("kernels.conv2d_"):]
                rep[f"{name}.flop"] += flop
                rep[f"{name}.bytes"] += nbytes
                rep[f"{kind}.{phase}.calls"] += 1
                rep[f"{kind}.{phase}.useful"] += bool(useful)
            elif name == "kernels.count_dominated":
                rep[f"{name}.cmp"] += info
            elif name == "autodiff.backward":
                phase, nodes = info
                rep["backward.nodes"] += nodes
                rep[f"backward.{phase}.steps"] += 1
            elif name == "scalarize":
                rep["scalarize.clamp_events"] += info
        rep["wall_s"] = wall_s
        self._reps.append(rep)
        self.spans.clear()

    def metrics(self, untraced_wall_s: float) -> dict:
        """Per-layer metrics: means over the traced repetitions (so that the
        self times add up), step-time percentiles pooled over all of them."""
        reps = len(self._reps)
        tot = defaultdict(float)
        for rep in self._reps:
            for k, v in rep.items():
                tot[k] += v
        mean = {k: v / max(reps, 1) for k, v in tot.items()}

        def frac(num, den):
            return num / den if den else 0.0

        out = {}
        for name in SPANS:
            out[f"{name}.self_ms"] = 1e3 * mean.get(f"{name}.self_s", 0.0)
        for k in CONV_KERNELS:
            base = f"kernels.{k}"
            out[f"{base}.calls"] = mean.get(f"{base}.calls", 0.0)
            out[f"{base}.gflop"] = 1e-9 * mean.get(f"{base}.flop", 0.0)
            out[f"{base}.mb"] = 1e-6 * mean.get(f"{base}.bytes", 0.0)
            # whole-call rate: grad_input's time includes its inner forward
            out[f"{base}.gflop_per_s"] = 1e-9 * frac(tot[f"{base}.flop"], tot[f"{base}.incl_s"])
        out["kernels.count_dominated.calls"] = mean.get("kernels.count_dominated.calls", 0.0)
        out["kernels.count_dominated.gcmp"] = 1e-9 * mean.get("kernels.count_dominated.cmp", 0.0)
        out["autodiff.backward.calls"] = mean.get("autodiff.backward.calls", 0.0)
        out["autodiff.tape_nodes_per_step"] = frac(
            tot["backward.nodes"], tot["autodiff.backward.calls"]
        )
        steps = {
            "pretrain_step": tot["backward.pretrain_step.steps"],
            "adv_iter": tot["model.train_step_generator.calls"],
        }
        for kind in ("grad_weight", "grad_input"):
            calls = sum(tot[f"{kind}.{p}.calls"] for p in steps)
            useful = sum(tot[f"{kind}.{p}.useful"] for p in steps)
            out[f"autodiff.{kind}_useful_frac"] = frac(useful, calls)
            for phase, n_steps in steps.items():
                out[f"autodiff.{phase}.{kind}_calls"] = frac(tot[f"{kind}.{phase}.calls"], n_steps)
                out[f"autodiff.{phase}.{kind}_useful_frac"] = frac(
                    tot[f"{kind}.{phase}.useful"], tot[f"{kind}.{phase}.calls"]
                )
        out["losses.features.calls"] = mean.get("losses.features.calls", 0.0)
        out["scalarize.clamp_events"] = mean.get("scalarize.clamp_events", 0.0)
        for step in STEP_SPANS:
            ms = self._step_ms.get(step, [])
            out[f"{step}.ms.p50"] = statistics.median(ms) if ms else 0.0
            out[f"{step}.ms.p95"] = _p95(ms)
            out[f"{step}.n"] = float(len(ms))
        wall_ms = 1e3 * mean.get("wall_s", 0.0)
        self_sum_ms = sum(out[f"{name}.self_ms"] for name in SPANS)
        out.update({
            "trace.reps": float(reps),
            "trace.wall_ms": wall_ms,
            "trace.untraced_wall_ms": 1e3 * untraced_wall_s,
            "trace.overhead_ms": wall_ms - 1e3 * untraced_wall_s,
            "trace.self_sum_ms": self_sum_ms,
            "trace.untimed_ms": wall_ms - self_sum_ms,
        })
        return out
