import threading
import types
import weakref

import numpy as np
import pytest

from hvgan import autodiff as ad
from hvgan import model
from hvgan.autodiff import Parameter, Tape, Tensor
from hvgan.synth import make_corpus

from oracles import (
    conv2d_naive,
    leaky_relu_reference,
    sigmoid_reference,
    sigmoid_vjp_reference,
    upsample_nearest_reference,
    upsample_nearest_vjp_reference,
)


def _grad_of(fn, arrays):
    """Run fn under a tape and return the per-input gradients."""
    params = [Parameter(np.asarray(a, dtype=np.float64), name=f"p{i}")
              for i, a in enumerate(arrays)]
    with Tape() as tape:
        out = fn(params)
        tape.backward(out)
    return [p.grad for p in params]


def _bits(a) -> np.ndarray:
    """The raw float64 bit patterns, so -0.0 and 0.0 compare unequal."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _signed_zeros(rng, a: np.ndarray) -> np.ndarray:
    """``a`` with roughly 30% of its entries set to -0.0 or 0.0."""
    a = a.copy()
    a[rng.random(a.shape) < 0.2] = -0.0
    a[rng.random(a.shape) < 0.1] = 0.0
    return a


class TestTensorBasics:
    def test_data_is_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64

    def test_item_on_scalar(self):
        assert Tensor(2.5).item() == 2.5

    def test_detach_shares_values_blocks_grad(self):
        p = Parameter(np.ones(3), name="w")
        d = p.detach()
        assert d.requires_grad is False
        assert np.array_equal(d.data, p.data)

    def test_parameter_keeps_name(self):
        assert Parameter(np.zeros(2), name="g.conv1.w").name == "g.conv1.w"

    def test_ops_outside_tape_record_nothing(self):
        p = Parameter(np.ones(3), name="w")
        out = ad.reduce_sum(ad.square(p))
        assert out._parents == ()
        assert out.requires_grad is False


class TestTapeMechanics:
    def test_backward_rejects_non_scalar(self):
        p = Parameter(np.ones(3), name="w")
        with Tape() as tape:
            out = ad.square(p)
            with pytest.raises(ValueError, match="scalar"):
                tape.backward(out)

    def test_constant_inputs_are_not_recorded(self):
        x = Tensor(np.ones(3))
        with Tape() as tape:
            ad.reduce_sum(ad.square(x))
        assert len(tape) == 0

    def test_exit_order_is_enforced(self):
        t1, t2 = Tape(), Tape()
        t1.__enter__()
        t2.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            t1.__exit__(None, None, None)
        t1.__exit__(None, None, None)

    def test_reentered_tape_keeps_its_nodes(self):
        x = Parameter(np.array(3.0), name="x")
        tape = Tape()
        with tape:
            y = ad.mul(x, x)
        assert len(tape) == 1
        with Tape() as other:
            ad.mul(y, 5.0)
        assert len(tape) == 1 and len(other) == 1
        with tape:
            loss = ad.mul(y, 2.0)
        assert len(tape) == 2
        tape.backward(loss)
        # d(2 x^2)/dx = 4x, through the op of each span
        assert x.grad == 12.0

    def test_tapes_are_per_thread(self):
        # a tape records only the ops of the thread that entered it
        x = Parameter(np.array(3.0), name="x")
        seen = {}

        def worker():
            seen["outside"] = ad.mul(x, x).requires_grad
            with Tape() as inner:
                ad.mul(x, 2.0)
            seen["inner"] = len(inner)

        with Tape() as outer:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == {"outside": False, "inner": 1}
        assert len(outer) == 0

    def test_reuse_of_a_node_accumulates(self):
        # y = x * x differentiates to 2x even though both factors are the
        # same tensor object.
        (g,) = _grad_of(lambda p: ad.reduce_sum(ad.mul(p[0], p[0])),
                        [np.array([1.0, -2.0, 3.0])])
        assert np.allclose(g, [2.0, -4.0, 6.0], rtol=0, atol=1e-15)

    def test_diamond_graph_accumulates_through_both_paths(self):
        # s = sum(x + x) has gradient 2 everywhere.
        (g,) = _grad_of(lambda p: ad.reduce_sum(ad.add(p[0], p[0])),
                        [np.ones(4)])
        assert np.array_equal(g, 2.0 * np.ones(4))

    def test_detach_cuts_the_graph(self):
        def fn(p):
            return ad.reduce_sum(ad.mul(p[0], p[0].detach()))

        p = Parameter(np.array([3.0, 4.0]), name="w")
        with Tape() as tape:
            tape.backward(fn([p]))
        # only the live factor contributes, so d/dx sum(x * const) = const = x
        assert np.allclose(p.grad, [3.0, 4.0], rtol=0, atol=1e-15)

    def test_shared_gradient_is_not_changed_by_a_later_contribution(self):
        # add hands one cotangent array to both operands; a's second
        # contribution (from the mul recorded first, so swept last) must not
        # change b's gradient
        w = np.array([1.0, 2.0, 3.0])
        scale = np.array([0.5, -1.0, 4.0])
        a = Parameter(np.ones(3), name="a")
        b = Parameter(np.ones(3), name="b")
        with Tape() as tape:
            first = ad.mul(a, Tensor(scale))
            both = ad.add(a, b)
            tape.backward(ad.reduce_sum(ad.mul(ad.add(both, first), Tensor(w))))
        assert np.array_equal(b.grad, w)
        assert np.array_equal(a.grad, w + w * scale)


class TestBackwardFreesTheGraph:
    """``backward`` frees each node as it sweeps it: afterwards only the
    leaves keep a gradient, and the tape is spent."""

    def _swept(self):
        x = Parameter(np.array([1.0, -2.0, 3.0]), name="x")
        with Tape() as tape:
            h = ad.square(x)
            probe = weakref.ref(h.data)
            loss = ad.reduce_sum(ad.mul(h, 3.0))
            nodes = list(tape._nodes)
            del h
            # no VJP reads h (square keeps x, mul keeps 3.0), so its values
            # die with the caller's reference, before backward
            assert probe() is None
            tape.backward(loss)
        return x, tape, probe, nodes, loss

    def test_an_activation_the_caller_dropped_is_freed(self):
        _, _, probe, nodes, _ = self._swept()
        del nodes
        assert probe() is None

    def test_swept_nodes_keep_no_gradient_vjp_or_parents(self):
        x, _, _, nodes, loss = self._swept()
        assert len(nodes) == 3
        for node in nodes:
            assert node.grad is None and node._vjp is None and node._parents == ()
        # the leaf keeps its gradient, and the loss its value
        assert np.array_equal(x.grad, [6.0, -12.0, 18.0])
        assert loss.item() == 42.0

    def test_len_still_counts_the_recorded_ops(self):
        _, tape, _, _, _ = self._swept()
        assert len(tape) == 3

    def test_a_spent_tape_cannot_be_swept_or_entered_again(self):
        _, tape, _, _, loss = self._swept()
        with pytest.raises(RuntimeError, match="already swept"):
            tape.backward(loss)
        with pytest.raises(RuntimeError, match="already swept"):
            with tape:
                pass
        # the failed entry left no tape active on this thread
        assert ad.mul(Parameter(np.ones(2), name="y"), 2.0).requires_grad is False


class TestEveryGradientIsKept:
    """No VJP computes a gradient for a tensor that needs none: every call of
    ``_accumulate`` is for a node that requires a gradient."""

    @pytest.fixture
    def dropped(self, monkeypatch):
        shapes = []
        real = ad._accumulate

        def kept_only(node, g):
            if not node.requires_grad:
                shapes.append(np.shape(g))
            real(node, g)

        monkeypatch.setattr(ad, "_accumulate", kept_only)
        return shapes

    @staticmethod
    def _config(**over):
        return model.TrainConfig(
            dataset="unused", output_dir="unused", seed=5, pretrain_iters=1,
            adversarial_iters=1, batch_size=2, patch_size=8, lr=1e-3,
            gen_width=4, disc_width=4, **over,
        )

    def test_pretrain_step(self, dropped):
        cfg = self._config()
        g, _ = model.init_networks(cfg.seed, 1, cfg.gen_width, cfg.disc_width)
        model.pretrain_generator(g, make_corpus(seed=5, count=2, size=16), cfg)
        assert dropped == []

    @pytest.mark.parametrize("norm_p", [1, 2])
    @pytest.mark.parametrize("adversarial", ["relativistic", "standard"])
    def test_adversarial_iteration(self, dropped, adversarial, norm_p):
        cfg = self._config(adversarial=adversarial, norm_p=norm_p)
        g, d = model.init_networks(cfg.seed, 1, cfg.gen_width, cfg.disc_width)
        images = make_corpus(seed=5, count=2, size=16)
        rows = list(model.adversarial_phase(g, d, images, cfg))
        assert len(rows) == cfg.adversarial_iters == 1
        assert dropped == []

    @pytest.mark.parametrize("name", sorted(ad.PRIMITIVES))
    def test_primitive(self, dropped, name):
        # all inputs trained, then each input in turn held constant
        fn, arrays = ad.PRIMITIVES[name](0)
        for frozen in [None, *range(len(arrays))] if len(arrays) > 1 else [None]:
            inputs = [Tensor(a) if i == frozen else Parameter(a, name=f"p{i}")
                      for i, a in enumerate(arrays)]
            with Tape() as tape:
                tape.backward(fn(inputs))
            assert dropped == [], f"input {frozen} held constant"


class TestTheTapeKeepsOnlyWhatBackwardReads:
    """A node holds its parents' nodes and the arrays its VJP reads, never
    values of its own: what the tape keeps alive before ``backward`` is a
    byte count fixed by the network shapes."""

    F = 8  # bytes per float64; a mask keeps one byte per element
    N, C, HR, GW, DW = 4, 1, 48, 16, 8  # the default training shape
    EXTRACTOR = (8, 16, 16)

    @staticmethod
    def _held_bytes(tape) -> int:
        """nbytes of the distinct arrays the tape's VJPs hold, following each
        closure into the tuples and functions it holds: a VJP keeps its
        parents' gradient functions, which close over the arrays. Nodes are
        not followed, since a leaf's values are not the tape's to keep."""
        held = {}

        def walk(value):
            if isinstance(value, np.ndarray):
                held[id(value)] = value.nbytes
            elif isinstance(value, tuple):
                for item in value:
                    walk(item)
            elif isinstance(value, types.FunctionType):
                for cell in value.__closure__ or ():
                    walk(cell.cell_contents)

        for node in tape._nodes:
            walk(node._vjp)
        return sum(held.values())

    def _conv_w(self, o, i):
        return o * i * 9 * self.F

    def _d_step_bytes(self):
        f, n, c, px, dw = self.F, self.N, self.C, self.HR**2, self.DW
        # D(real) and D(fake.detach()), both with trained weights
        inputs = 2 * n * px * (c + dw) * f + 2 * n * 2 * dw * f  # conv1-2, fc
        weights = self._conv_w(2 * dw, dw) + 2 * dw * f  # shared by both calls
        masks = 2 * n * px * (dw + 2 * dw) + 2 * n  # leaky_relu, clip
        sigmoid_outputs = log_inputs = 2 * n * f
        mul_operands = f  # the -1.0
        return inputs + weights + masks + sigmoid_outputs + log_inputs + mul_operands

    def _g_step_bytes(self, adversarial):
        f, n, c, gw, dw = self.F, self.N, self.C, self.GW, self.DW
        lr, px = self.HR // 4, self.HR**2
        k = 2 if adversarial == "relativistic" else 1  # sigmoids of the loss
        ext = (c, *self.EXTRACTOR)
        # G's conv inputs, whose weights train
        inputs = n * f * (c * lr**2 + gw * lr**2 + gw * (2 * lr) ** 2 + gw * px)
        # frozen D, the extractor and G conv2-4 pass input gradients back
        weights = (
            2 * self._conv_w(gw, gw) + self._conv_w(c, gw)
            + self._conv_w(dw, c) + self._conv_w(2 * dw, dw) + 2 * dw * f
            + sum(self._conv_w(o, i) for i, o in zip(ext, ext[1:]))
        )
        masks = (
            n * gw * (2 * lr**2 + (2 * lr) ** 2)  # G conv1-3
            + n * px * (dw + 2 * dw)  # D(fake)
            + n * px * sum(self.EXTRACTOR)  # extractor, tapped post
            + k * n  # clip
        )
        sigmoid_outputs = n * c * px * f + k * n * f  # fake, then the loss
        log_inputs = k * n * f
        absolute_inputs = n * px * (c + self.EXTRACTOR[-1]) * f  # l_pix, l_fea
        mul_operands = 4 * f  # the -1.0 and the three loss weights
        return (inputs + weights + masks + sigmoid_outputs + log_inputs
                + absolute_inputs + mul_operands)

    @pytest.mark.parametrize("adversarial", ["relativistic", "standard"])
    def test_held_bytes_at_the_default_shape(self, monkeypatch, adversarial):
        held = []
        real = ad.Tape.backward

        def counted(tape, loss):
            held.append(self._held_bytes(tape))
            real(tape, loss)

        monkeypatch.setattr(ad.Tape, "backward", counted)
        cfg = model.TrainConfig(
            dataset="unused", output_dir="unused", seed=5, pretrain_iters=0,
            adversarial_iters=1, adversarial=adversarial,
        )
        assert (cfg.batch_size, cfg.patch_size, cfg.gen_width, cfg.disc_width) == (
            self.N, self.HR, self.GW, self.DW
        )
        g, d = model.init_networks(cfg.seed, self.C, cfg.gen_width, cfg.disc_width)
        list(model.adversarial_phase(g, d, make_corpus(seed=5, count=2, size=64), cfg))
        assert held == [self._d_step_bytes(), self._g_step_bytes(adversarial)]

    def test_bias_add_and_frozen_conv_outputs_die_when_dropped(self):
        rng = np.random.default_rng(0)
        x = Parameter(rng.standard_normal((2, 3, 5, 5)), name="x")
        w = Parameter(rng.standard_normal((4, 3, 3, 3)), name="w")
        w.requires_grad = False  # frozen, as D is in the generator step
        b = Parameter(np.zeros(4), name="b")
        with Tape() as tape:
            h = ad.conv2d(x, w)
            conv_out = weakref.ref(h.data)
            z = ad.bias_add(h, b)
            bias_out = weakref.ref(z.data)
            loss = ad.reduce_sum(ad.leaky_relu(z))
            del h, z
            assert conv_out() is None and bias_out() is None
            tape.backward(loss)
        assert x.grad.shape == x.data.shape and b.grad.shape == (4,)
        assert w.grad is None


class TestForwardValues:
    def test_mean_of_squares_gradient(self):
        (g,) = _grad_of(lambda p: ad.reduce_mean(ad.square(p[0])),
                        [np.array([1.0, 2.0, 3.0])])
        assert np.allclose(g, [2.0 / 3.0, 4.0 / 3.0, 2.0], rtol=1e-15)

    def test_sigmoid_at_zero(self):
        out = ad.sigmoid(Tensor(0.0))
        assert out.data == 0.5
        (g,) = _grad_of(lambda p: ad.sigmoid(p[0]), [np.asarray(0.0)])
        assert g == pytest.approx(0.25, rel=1e-15)

    def test_sigmoid_is_stable_at_large_magnitudes(self):
        out = ad.sigmoid(Tensor(np.array([-800.0, 800.0])))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0, abs=1e-300)
        assert out.data[1] == 1.0

    def test_leaky_relu_values_and_slope(self):
        x = np.array([-2.0, 3.0])
        out = ad.leaky_relu(Tensor(x))
        assert np.allclose(out.data, [-0.4, 3.0], rtol=1e-15)
        (g,) = _grad_of(lambda p: ad.reduce_sum(ad.leaky_relu(p[0])), [x])
        assert np.allclose(g, [0.2, 1.0], rtol=0, atol=1e-15)

    def test_clip_passes_gradient_at_the_boundary(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        (g,) = _grad_of(lambda p: ad.reduce_sum(ad.clip(p[0], -1.0, 1.0)), [x])
        assert np.array_equal(g, [0.0, 1.0, 1.0, 1.0, 0.0])

    def test_upsample_nearest_replicates_pixels(self):
        x = np.arange(4.0).reshape(1, 1, 2, 2)
        out = ad.upsample_nearest(Tensor(x))
        want = np.array([[0.0, 0.0, 1.0, 1.0],
                         [0.0, 0.0, 1.0, 1.0],
                         [2.0, 2.0, 3.0, 3.0],
                         [2.0, 2.0, 3.0, 3.0]])
        assert np.array_equal(out.data[0, 0], want)

    # (input shape, the oracle's factor): batch 1 and 4, non-square, one
    # input column, and G's two upsample inputs at batch 4, patch 48, width 16
    UPSAMPLE_CASES = [
        ((4, 16, 12, 12), 2), ((4, 16, 24, 24), 2), ((1, 16, 16, 16), 2),
        ((2, 3, 5, 7), 2), ((4, 3, 6, 1), 2),
    ]

    @pytest.mark.parametrize("shape, f", UPSAMPLE_CASES)
    def test_upsample_nearest_matches_reference_bit_for_bit(self, shape, f):
        rng = np.random.default_rng(74)
        x = _signed_zeros(rng, rng.standard_normal(shape))
        n, c, h, w = shape
        g = _signed_zeros(rng, rng.standard_normal((n, c, f * h, f * w)))
        g[:, :, :f, :f] = -0.0  # a whole block of -0.0 sums to +0.0
        out = ad.upsample_nearest(Tensor(x))
        assert np.array_equal(_bits(out.data), _bits(upsample_nearest_reference(x, f)))
        (gx,) = _grad_of(
            lambda p: ad.reduce_sum(ad.mul(ad.upsample_nearest(p[0]), Tensor(g))), [x]
        )
        assert np.array_equal(_bits(gx), _bits(upsample_nearest_vjp_reference(g, f)))

    @pytest.mark.parametrize(
        "d", [np.array([800.0, -800.0, 0.0, -0.0]),
              4.0 * np.random.default_rng(75).standard_normal((4, 1, 48, 48))],
        ids=["extremes_and_zeros", "random_4x1x48x48"],
    )
    def test_sigmoid_matches_reference_bit_for_bit(self, d):
        g = np.random.default_rng(76).standard_normal(d.shape)
        y = sigmoid_reference(d)
        assert np.array_equal(_bits(ad.sigmoid(Tensor(d)).data), _bits(y))
        (gd,) = _grad_of(lambda p: ad.reduce_sum(ad.mul(ad.sigmoid(p[0]), Tensor(g))), [d])
        assert np.array_equal(_bits(gd), _bits(sigmoid_vjp_reference(g, y)))

    @pytest.mark.parametrize("alpha", [0.2])
    def test_leaky_relu_matches_reference_bit_for_bit(self, alpha):
        rng = np.random.default_rng(77)
        # signed zeros and subnormals, where alpha * x rounds to zero
        x = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, -1e-320, 2.0, -3.0],
                            rng.standard_normal((4, 16, 12, 12)).ravel()])
        g = _signed_zeros(rng, rng.standard_normal(x.shape))
        g[:2] = [-0.0, 1.5]
        want_y, want_g = leaky_relu_reference(x, g, alpha)
        assert np.array_equal(_bits(ad.leaky_relu(Tensor(x)).data), _bits(want_y))
        (gx,) = _grad_of(
            lambda p: ad.reduce_sum(ad.mul(ad.leaky_relu(p[0]), Tensor(g))), [x]
        )
        assert np.array_equal(_bits(gx), _bits(want_g))

    # loss-sized () cotangents, signed zeros included, and a D-logit-sized
    # batch, where p also holds signed zeros, one and a subnormal
    @pytest.mark.parametrize("g", [
        np.array(-0.0), np.array(0.0), np.array(0.37),
        np.array([[1.5], [-0.0], [0.0], [-2.0]]),
    ], ids=["neg_zero", "zero", "scalar", "batch"])
    def test_float_operands_match_the_scaled_and_complemented_forms(self, g):
        rng = np.random.default_rng(79)
        x = np.asarray(rng.standard_normal(g.shape))
        p = np.asarray(rng.random(g.shape))
        if g.ndim:
            p[:, 0] = [0.0, -0.0, 1.0, 5e-324]
        for c in (-1.0, 0.0517, 3e5):
            assert np.array_equal(_bits(ad.mul(Tensor(x), c).data), _bits(x * c))
            (gx,) = _grad_of(lambda q: ad.reduce_sum(ad.mul(ad.mul(q[0], c), Tensor(g))), [x])
            assert np.array_equal(_bits(gx), _bits(g * c))
        assert np.array_equal(_bits(ad.sub(1.0, Tensor(p)).data), _bits((p * -1.0) + 1.0))
        (gp,) = _grad_of(lambda q: ad.reduce_sum(ad.mul(ad.sub(1.0, q[0]), Tensor(g))), [p])
        assert np.array_equal(_bits(gp), _bits(-g))

    def test_mean_spatial_shape_and_value(self):
        x = np.arange(24.0).reshape(2, 3, 2, 2)
        out = ad.mean_spatial(Tensor(x))
        assert out.data.shape == (2, 3)
        assert np.allclose(out.data, x.mean(axis=(2, 3)), rtol=1e-15)

    def test_conv2d_matches_naive_reference(self):
        rng = np.random.default_rng(70)
        # non-square kernels, N=1 and O=1, then random draws
        shapes = [((1, 2, 5, 7), (3, 1, 3)), ((2, 3, 6, 4), (1, 3, 5)),
                  ((1, 1, 4, 6), (1, 5, 1))]
        for _ in range(10):
            n, ci, co = (int(v) for v in rng.integers(1, 4, size=3))
            h, w = (int(v) for v in rng.integers(3, 8, size=2))
            kh, kw = (int(v) for v in rng.choice([1, 3, 5], size=2))
            shapes.append(((n, ci, h, w), (co, kh, kw)))
        for (n, ci, h, w), (co, kh, kw) in shapes:
            x = rng.standard_normal((n, ci, h, w))
            ker = rng.standard_normal((co, ci, kh, kw))
            out = ad.conv2d(Tensor(x), Tensor(ker))
            assert np.allclose(out.data, conv2d_naive(x, ker), rtol=0, atol=1e-12)


class TestShapeAndDomainErrors:
    def test_mismatched_elementwise_shapes(self):
        with pytest.raises(ValueError, match="add"):
            ad.add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_scalar_broadcast_is_allowed(self):
        out = ad.add(Tensor(np.ones(3)), Tensor(2.0))
        assert np.array_equal(out.data, 3.0 * np.ones(3))

    def test_scalar_side_gradient_is_summed(self):
        def fn(p):
            return ad.reduce_sum(ad.mul(p[0], p[1]))

        gs = _grad_of(fn, [np.array([1.0, 2.0, 3.0]), np.asarray(2.0)])
        assert np.array_equal(gs[0], 2.0 * np.ones(3))
        assert gs[1] == pytest.approx(6.0)

    def test_matmul_shape_error(self):
        with pytest.raises(ValueError, match="matmul"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_conv2d_rejects_even_kernels(self):
        with pytest.raises(ValueError, match="odd"):
            ad.conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 2, 2))))

    def test_bias_add_shape_error(self):
        with pytest.raises(ValueError, match="bias_add"):
            ad.bias_add(Tensor(np.ones((1, 3, 2, 2))), Tensor(np.ones(2)))

    def test_log_raises_on_nonpositive(self):
        with pytest.raises(FloatingPointError, match="positive"):
            ad.log(Tensor(np.array([1.0, 0.0])))

    def test_overflow_raises_immediately(self):
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="'mul'"):
            ad.mul(Tensor(1e300), 1e300)

    @pytest.mark.parametrize("call, message", [
        (lambda: ad.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3)))),
         r"conv2d: incompatible shapes \(1, 2, 4, 4\) and \(1, 3, 3, 3\)"),
        (lambda: ad.clip(Tensor(np.ones(2)), 1.0, 1.0),
         r"clip: need lo < hi, got \(1.0, 1.0\)"),
        (lambda: ad.mean_spatial(Tensor(np.ones((2, 3)))),
         r"mean_spatial: need \(N,C,H,W\), got \(2, 3\)"),
        (lambda: ad.upsample_nearest(Tensor(np.ones((2, 3)))),
         r"upsample_nearest: need \(N,C,H,W\), got \(2, 3\)"),
    ], ids=["conv2d_channels", "clip_bounds", "mean_spatial_rank", "upsample_rank"])
    def test_bad_operand_is_named(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestFiniteDiff:
    def test_reports_small_error_for_a_correct_gradient(self):
        err = ad.finite_diff_check(
            lambda p: ad.reduce_sum(ad.square(p[0])),
            [np.random.default_rng(71).standard_normal((3, 3))],
        )
        assert err < 1e-8

    def test_flags_a_wrong_gradient(self):
        # forward computes sum(x^2) but the detached factor hides half the
        # gradient, so the checker must report an O(1) discrepancy
        def fn(p):
            return ad.reduce_sum(ad.mul(p[0], p[0].detach()))

        x = np.random.default_rng(72).standard_normal((3, 3)) + 3.0
        err = ad.finite_diff_check(fn, [x])
        assert err > 0.1

    # O < C, O = C and O > C: each side of the conv kernels' shape rules
    @pytest.mark.parametrize(
        "c, o, kh, kw", [(3, 2, 3, 3), (2, 2, 3, 1), (2, 3, 3, 3)],
        ids=["narrowing", "square", "widening"],
    )
    def test_conv2d_gradients_on_each_kernel_branch(self, c, o, kh, kw):
        rng = np.random.default_rng(73)
        x = rng.standard_normal((2, c, 4, 5))
        ker = rng.standard_normal((o, c, kh, kw))
        weight = rng.standard_normal((2, o, 4, 5))
        err = ad.finite_diff_check(
            lambda p: ad.reduce_sum(ad.mul(ad.conv2d(p[0], p[1]), Tensor(weight))),
            [x, ker],
        )
        assert err < 1e-7

    def test_every_primitive_is_registered_once(self):
        want = {
            "add", "sub", "mul", "scalar_broadcast",
            "matmul", "conv2d", "bias_add", "leaky_relu", "sigmoid", "log",
            "absolute", "square", "clip", "reduce_sum", "reduce_mean",
            "mean_spatial", "upsample_nearest",
        }
        assert set(ad.PRIMITIVES) == want

    def test_gradcheck_suite_passes_at_tolerance(self):
        results = ad.gradcheck_suite()
        assert [name for name, _ in results] == sorted(ad.PRIMITIVES)
        for name, worst in results:
            assert worst < 1e-5, f"{name}: {worst}"
