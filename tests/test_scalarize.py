import math
import re

import numpy as np
import pytest

from hvgan.moo import Orientation, PointSet, hypervolume_exact
from hvgan.scalarize import (
    DEFAULT_EPS,
    MODE_KINDS,
    clamp_flags,
    gradient_weights,
    scalarize,
)


def _random_unclamped(rng, n):
    """(l, mu) with every gap mu_k - l_k comfortably above the clamp floor."""
    mu = rng.uniform(0.5, 5.0, size=n)
    frac = rng.uniform(0.05, 0.95, size=n)
    return mu * frac, mu


class TestHvLogLoss:
    def test_zero_losses_unit_bounds(self):
        assert scalarize([0.0, 0.0], "hv_log", [1.0, 1.0]) == 0.0

    def test_each_term_at_gap_e(self):
        e = math.e
        assert scalarize([1.0, 1.0], "hv_log", [1.0 + e, 1.0 + e]) == pytest.approx(
            -2.0, rel=1e-12
        )

    def test_half_gap(self):
        assert scalarize([0.5], "hv_log", [1.0]) == pytest.approx(-math.log(0.5), rel=1e-12)

    def test_clamp_keeps_value_finite_past_the_bound(self):
        v = scalarize([2.0], "hv_log", [1.0], eps=1e-6)
        assert v == pytest.approx(-math.log(1e-6), rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            scalarize([1.0], "hv_log", [1.0, 2.0])

    def test_non_finite_loss_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            scalarize([np.nan], "hv_log", [1.0])

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            scalarize([0.0], "hv_log", [0.0])

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            scalarize([0.0], "hv_log", [1.0], eps=0.0)
        # 1/eps, the clamp weight, overflows to inf
        with pytest.raises(ValueError, match="eps"):
            gradient_weights([0.0], [1.0], eps=1e-320)
        # a bool is not a real number, as TrainConfig has it
        with pytest.raises(ValueError, match="eps must be a finite positive real, got True"):
            gradient_weights([1, 1, 1], [2, 2, 2], True)

    def test_strictly_increasing_in_each_component(self):
        rng = np.random.default_rng(41)
        h = 1e-6
        for _ in range(100):
            l, mu = _random_unclamped(rng, 3)
            base = scalarize(l, "hv_log", mu)
            for k in range(3):
                bumped = l.copy()
                bumped[k] += h
                assert scalarize(bumped, "hv_log", mu) > base

    def test_negative_log_of_single_point_hypervolume(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            l, mu = _random_unclamped(rng, n)
            hv = hypervolume_exact(
                PointSet([l], Orientation.MINIMIZE), mu
            )
            assert math.exp(-scalarize(l, "hv_log", mu)) == pytest.approx(hv, rel=1e-12)


class TestHvLogLossNormalized:
    def test_zero_losses(self):
        assert scalarize([0.0, 0.0], "hv_log_norm", [7.0, 13.0]) == 0.0

    def test_coincides_with_unnormalized_at_unit_bound(self):
        assert scalarize([0.5], "hv_log_norm", [1.0]) == pytest.approx(
            -math.log(0.5), rel=1e-12
        )

    def test_direct_two_term_value(self):
        want = -(math.log(0.5) + math.log(0.75))
        assert scalarize([1.0, 1.0], "hv_log_norm", [2.0, 4.0]) == pytest.approx(
            want, rel=1e-12
        )

    def test_additive_constant_relation(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            l, mu = _random_unclamped(rng, n)
            gap = scalarize(l, "hv_log_norm", mu) - scalarize(l, "hv_log", mu)
            assert gap == pytest.approx(float(np.sum(np.log(mu))), rel=1e-12)


class TestGradientWeights:
    def test_direct_substitution(self):
        assert gradient_weights([1.0, 0.0], [2.0, 2.0]) == pytest.approx(
            [1.0, 0.5], rel=1e-15
        )

    def test_clamp_floor_gives_reciprocal_eps(self):
        w = gradient_weights([2.0], [2.0], eps=1e-6)
        assert w[0] == pytest.approx(1e6, rel=1e-15)

    def test_matches_central_differences_of_both_objectives(self):
        rng = np.random.default_rng(44)
        h = 1e-6
        for _ in range(100):
            l, mu = _random_unclamped(rng, 3)
            w = gradient_weights(l, mu)
            for k in range(3):
                up, dn = l.copy(), l.copy()
                up[k] += h
                dn[k] -= h
                fd_plain = (
                    scalarize(up, "hv_log", mu) - scalarize(dn, "hv_log", mu)
                ) / (2 * h)
                fd_norm = (
                    scalarize(up, "hv_log_norm", mu) - scalarize(dn, "hv_log_norm", mu)
                ) / (2 * h)
                assert fd_plain == pytest.approx(w[k], rel=1e-6)
                assert fd_norm == pytest.approx(w[k], rel=1e-6)

    def test_larger_loss_gets_larger_weight_under_equal_bounds(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            mu = float(rng.uniform(1.0, 5.0))
            li, lj = sorted(rng.uniform(0.0, mu * 0.9, size=2))
            w = gradient_weights([lj, li], [mu, mu])
            assert w[0] > w[1]

    def test_clamp_flags_fire_only_past_the_floor(self):
        flags = clamp_flags([0.0, 1.0 - 5e-7, 2.0], [1.0, 1.0, 1.0], eps=1e-6)
        assert flags.tolist() == [False, True, True]


class TestLinearFixed:
    def test_zero_weights(self):
        assert scalarize([1.0, 2.0], "linear", weights=[0.0, 0.0]) == 0.0

    def test_unit_weights(self):
        assert scalarize([1.0, 2.0], "linear", weights=[1.0, 1.0]) == 3.0

    def test_single_term(self):
        assert scalarize([3.0], "linear", weights=[0.5]) == 1.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            scalarize([1.0, 2.0], "linear", weights=[1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            scalarize([1.0], "linear", weights=[-0.5])

    def test_non_finite_loss_rejected(self):
        with pytest.raises(ValueError, match=r"loss vector has non-finite components: \[nan\]"):
            scalarize([np.nan], "linear", weights=[1.0])


class TestScalarizeDispatch:
    def test_hv_log_mode(self):
        assert scalarize([0.0, 0.0], "hv_log", [1.0, 1.0]) == 0.0

    def test_linear_mode(self):
        assert scalarize([1.0, 2.0], "linear", weights=(1.0, 1.0)) == 3.0

    def test_normalized_mode(self):
        assert scalarize([0.5], "hv_log_norm", [1.0]) == pytest.approx(
            -math.log(0.5), rel=1e-12
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match=re.escape(f"one of {MODE_KINDS}")):
            scalarize([0.0], "geometric", [1.0])

    def test_linear_requires_weights(self):
        with pytest.raises(ValueError, match="weights"):
            scalarize([1.0], "linear")

    def test_negative_linear_weights_rejected(self):
        with pytest.raises(ValueError, match="weights must be finite and >= 0"):
            scalarize([1.0, 2.0], "linear", weights=(1.0, -0.5))

    def test_hv_modes_take_no_weights(self):
        for mode in ("hv_log", "hv_log_norm"):
            with pytest.raises(ValueError, match="no weights"):
                scalarize([0.0], mode, [1.0], weights=(1.0,))

    def test_default_eps_value(self):
        assert DEFAULT_EPS == 1e-6
