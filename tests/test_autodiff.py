import numpy as np
import pytest

from hvgan import autodiff as ad
from hvgan.autodiff import Parameter, Tape, Tensor

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

    def test_zero_grads(self):
        p = Parameter(np.ones(2), name="w")
        p.grad = np.ones(2)
        ad.zero_grads([p])
        assert p.grad is None


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
        out = ad.leaky_relu(Tensor(x), alpha=0.2)
        assert np.allclose(out.data, [-0.4, 3.0], rtol=1e-15)
        (g,) = _grad_of(lambda p: ad.reduce_sum(ad.leaky_relu(p[0], 0.2)), [x])
        assert np.allclose(g, [0.2, 1.0], rtol=0, atol=1e-15)

    def test_clip_passes_gradient_at_the_boundary(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        (g,) = _grad_of(lambda p: ad.reduce_sum(ad.clip(p[0], -1.0, 1.0)), [x])
        assert np.array_equal(g, [0.0, 1.0, 1.0, 1.0, 0.0])

    def test_upsample_nearest_replicates_pixels(self):
        x = np.arange(4.0).reshape(1, 1, 2, 2)
        out = ad.upsample_nearest(Tensor(x), 2)
        want = np.array([[0.0, 0.0, 1.0, 1.0],
                         [0.0, 0.0, 1.0, 1.0],
                         [2.0, 2.0, 3.0, 3.0],
                         [2.0, 2.0, 3.0, 3.0]])
        assert np.array_equal(out.data[0, 0], want)

    # (input shape, factor): f in {1, 2, 3}, batch 1 and 4, non-square, one
    # input column, and G's two upsample inputs at batch 4, patch 48, width 16
    UPSAMPLE_CASES = [
        ((4, 16, 12, 12), 2), ((4, 16, 24, 24), 2), ((1, 16, 16, 16), 2),
        ((2, 3, 5, 7), 2), ((2, 3, 5, 7), 3), ((1, 2, 3, 4), 1),
        ((4, 2, 7, 5), 3), ((4, 3, 6, 1), 2), ((1, 2, 4, 1), 3),
    ]

    @pytest.mark.parametrize("shape, f", UPSAMPLE_CASES)
    def test_upsample_nearest_matches_reference_bit_for_bit(self, shape, f):
        rng = np.random.default_rng(74)
        x = _signed_zeros(rng, rng.standard_normal(shape))
        n, c, h, w = shape
        g = _signed_zeros(rng, rng.standard_normal((n, c, f * h, f * w)))
        g[:, :, :f, :f] = -0.0  # a whole block of -0.0 sums to +0.0
        out = ad.upsample_nearest(Tensor(x), f)
        assert np.array_equal(_bits(out.data), _bits(upsample_nearest_reference(x, f)))
        (gx,) = _grad_of(
            lambda p: ad.reduce_sum(ad.mul(ad.upsample_nearest(p[0], f), Tensor(g))), [x]
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

    @pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0])
    def test_leaky_relu_matches_reference_bit_for_bit(self, alpha):
        rng = np.random.default_rng(77)
        # signed zeros and subnormals, where alpha * x rounds to zero
        x = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, -1e-320, 2.0, -3.0],
                            rng.standard_normal((4, 16, 12, 12)).ravel()])
        g = _signed_zeros(rng, rng.standard_normal(x.shape))
        g[:2] = [-0.0, 1.5]
        want_y, want_g = leaky_relu_reference(x, g, alpha)
        assert np.array_equal(_bits(ad.leaky_relu(Tensor(x), alpha).data), _bits(want_y))
        (gx,) = _grad_of(
            lambda p: ad.reduce_sum(ad.mul(ad.leaky_relu(p[0], alpha), Tensor(g))), [x]
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

    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_leaky_relu_rejects_a_slope_outside_0_1(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            ad.leaky_relu(Tensor(np.ones(2)), alpha)

    def test_log_raises_on_nonpositive(self):
        with pytest.raises(FloatingPointError, match="positive"):
            ad.log(Tensor(np.array([1.0, 0.0])))

    def test_overflow_raises_immediately(self):
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="'mul'"):
            ad.mul(Tensor(1e300), 1e300)


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

    def test_upsample_nearest_gradient_at_factor_3(self):
        rng = np.random.default_rng(78)
        weight = rng.standard_normal((2, 2, 9, 12))
        err = ad.finite_diff_check(
            lambda p: ad.reduce_sum(ad.mul(ad.upsample_nearest(p[0], 3), Tensor(weight))),
            [rng.standard_normal((2, 2, 3, 4))],
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
        results = ad.gradcheck_suite(trials=2)
        assert [name for name, _ in results] == sorted(ad.PRIMITIVES)
        for name, worst in results:
            assert worst < 1e-5, f"{name}: {worst}"
