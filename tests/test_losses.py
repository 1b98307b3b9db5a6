import math

import numpy as np
import pytest

from hvgan import autodiff as ad
from hvgan.autodiff import Tensor
from hvgan.losses import (
    PROB_CLAMP,
    FeatureExtractor,
    adv_loss_relativistic_g,
    adv_loss_standard_g,
    disc_loss,
    feature_loss,
    pixel_loss,
)

from oracles import feature_stack_reference

LOG2 = math.log(2.0)

# Pinned reference values for the frozen random stack, computed once by
# feature_stack_reference (straight-line redraw + naive convs) with seed 42,
# real = zeros(1,1,8,8), fake = 0.1 * ones(1,1,8,8).
GOLDEN_FEATURE_LOSS = {
    ("post", 1): 0.008286082496995972,
    ("post", 2): 0.00018634357752509708,
    ("pre", 1): 0.017009615123467124,
    ("pre", 2): 0.00045501571624299256,
}


class TestDiscLoss:
    def test_all_zero_logits(self):
        z = Tensor(np.zeros(4))
        assert disc_loss(z, z).item() == pytest.approx(2 * LOG2, rel=1e-12)

    def test_single_sample_matches_batch(self):
        one = Tensor(np.zeros(1))
        assert disc_loss(one, one).item() == pytest.approx(2 * LOG2, rel=1e-12)

    def test_perfect_discriminator_limit(self):
        real = Tensor(np.full(4, 50.0))
        fake = Tensor(np.full(4, -50.0))
        v = disc_loss(real, fake).item()
        assert 0.0 <= v <= 3e-7

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            disc_loss(Tensor(np.zeros(0)), Tensor(np.zeros(2)))

    def test_gradient_passes_finite_differences(self):
        rng = np.random.default_rng(90)
        err = ad.finite_diff_check(
            lambda p: disc_loss(p[0], p[1]),
            [rng.standard_normal(4), rng.standard_normal(4)],
        )
        assert err < 1e-4


class TestAdvStandard:
    def test_zero_logit(self):
        assert adv_loss_standard_g(Tensor(np.zeros(1))).item() == pytest.approx(
            LOG2, rel=1e-12
        )

    def test_mean_preserves_value(self):
        assert adv_loss_standard_g(Tensor(np.zeros(2))).item() == pytest.approx(
            LOG2, rel=1e-12
        )

    def test_fooled_discriminator_limit(self):
        v = adv_loss_standard_g(Tensor(np.full(3, 50.0))).item()
        assert 0.0 <= v <= 2e-7
        assert v == pytest.approx(-math.log(1.0 - PROB_CLAMP), rel=1e-6)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            adv_loss_standard_g(Tensor(np.zeros(0)))

    def test_gradient_passes_finite_differences(self):
        rng = np.random.default_rng(91)
        err = ad.finite_diff_check(
            lambda p: adv_loss_standard_g(p[0]), [rng.standard_normal(5)]
        )
        assert err < 1e-4


class TestAdvRelativistic:
    def test_equal_constant_batches(self):
        for c in (-3.0, 0.0, 2.5):
            v = adv_loss_relativistic_g(
                Tensor(np.full(4, c)), Tensor(np.full(4, c))
            ).item()
            assert v == pytest.approx(2 * LOG2, rel=1e-12)

    def test_single_pair_value(self):
        sig = lambda t: 1.0 / (1.0 + math.exp(-t))
        want = -math.log(1.0 - sig(1.0)) - math.log(sig(-1.0))
        got = adv_loss_relativistic_g(
            Tensor(np.array([1.0])), Tensor(np.array([0.0]))
        ).item()
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(2.626523, abs=1e-6)

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(92)
        real = rng.standard_normal(6)
        fake = rng.standard_normal(6)
        a = adv_loss_relativistic_g(Tensor(real), Tensor(fake)).item()
        perm = rng.permutation(6)
        b = adv_loss_relativistic_g(Tensor(real[perm]), Tensor(fake[perm])).item()
        assert a == pytest.approx(b, rel=1e-14)

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ValueError, match="batch shapes differ"):
            adv_loss_relativistic_g(Tensor(np.zeros(3)), Tensor(np.zeros(2)))

    def test_gradient_passes_finite_differences(self):
        rng = np.random.default_rng(93)
        err = ad.finite_diff_check(
            lambda p: adv_loss_relativistic_g(p[0], p[1]),
            [rng.standard_normal(4), rng.standard_normal(4)],
        )
        assert err < 1e-4


class TestPixelLoss:
    def test_identical_inputs(self):
        x = Tensor(np.random.default_rng(94).uniform(size=(2, 1, 4, 4)))
        assert pixel_loss(x, x, 1).item() == 0.0
        assert pixel_loss(x, x, 2).item() == 0.0

    def test_constant_offset(self):
        a = Tensor(np.full((1, 1, 3, 3), 0.75))
        b = Tensor(np.full((1, 1, 3, 3), 0.25))
        assert pixel_loss(a, b, 1).item() == pytest.approx(0.5, rel=1e-15)
        assert pixel_loss(a, b, 2).item() == pytest.approx(0.25, rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(95)
        a = Tensor(rng.uniform(size=(2, 3, 4, 4)))
        b = Tensor(rng.uniform(size=(2, 3, 4, 4)))
        for p in (1, 2):
            assert pixel_loss(a, b, p).item() == pixel_loss(b, a, p).item()

    def test_p2_is_mean_squared_error(self):
        rng = np.random.default_rng(96)
        a = rng.uniform(size=(1, 3, 5, 5))
        b = rng.uniform(size=(1, 3, 5, 5))
        got = pixel_loss(Tensor(a), Tensor(b), 2).item()
        assert got == pytest.approx(float(np.mean((a - b) ** 2)), rel=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            pixel_loss(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))

    def test_bad_norm_rejected(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError, match="p must be"):
            pixel_loss(x, x, 3)

    def test_gradients_pass_finite_differences(self):
        rng = np.random.default_rng(97)
        base = rng.uniform(size=(1, 1, 4, 4))
        # keep the difference bounded away from the p=1 kink at zero
        other = base + rng.uniform(0.1, 0.3, size=base.shape)
        for p in (1, 2):
            err = ad.finite_diff_check(
                lambda t, p=p: pixel_loss(t[0], t[1], p), [base, other]
            )
            assert err < 1e-4


class TestFeatureExtractor:
    def test_same_seed_same_features(self):
        x = Tensor(np.random.default_rng(98).uniform(size=(1, 3, 8, 8)))
        a = FeatureExtractor(3, 7).features(x)
        b = FeatureExtractor(3, 7).features(x)
        assert np.array_equal(a.data, b.data)

    def test_different_seed_different_features(self):
        x = Tensor(np.random.default_rng(99).uniform(size=(1, 3, 8, 8)))
        a = FeatureExtractor(3, 7).features(x)
        b = FeatureExtractor(3, 8).features(x)
        assert not np.allclose(a.data, b.data)

    def test_output_channels_and_shape(self):
        x = Tensor(np.zeros((2, 1, 8, 8)))
        out = FeatureExtractor(1, 0).features(x)
        assert out.data.shape == (2, 16, 8, 8)

    def test_no_input_channels_rejected(self):
        with pytest.raises(ValueError, match="in_channels must be >= 1, got 0"):
            FeatureExtractor(0, 0)

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(100)
        x = rng.uniform(size=(1, 3, 6, 6))
        for tap in ("pre", "post"):
            got = FeatureExtractor(3, 11, tap=tap).features(Tensor(x)).data
            want = feature_stack_reference(x, 11, tap)
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_weights_are_frozen(self):
        ex = FeatureExtractor(1, 0)
        with pytest.raises(ValueError):
            ex._weights[0][0, 0, 0, 0] = 1.0

    def test_bad_tap_rejected(self):
        with pytest.raises(ValueError, match="tap"):
            FeatureExtractor(1, 0, tap="mid")

    def test_channel_mismatch_rejected(self):
        ex = FeatureExtractor(3, 0)
        with pytest.raises(ValueError, match="extractor expects"):
            ex.features(Tensor(np.zeros((1, 1, 8, 8))))


class TestFeatureLoss:
    def test_identical_inputs(self):
        x = Tensor(np.random.default_rng(101).uniform(size=(1, 1, 8, 8)))
        ex = FeatureExtractor(1, 42)
        assert feature_loss(x, x, ex, 1).item() == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(102)
        a = Tensor(rng.uniform(size=(1, 1, 8, 8)))
        b = Tensor(rng.uniform(size=(1, 1, 8, 8)))
        ex = FeatureExtractor(1, 42)
        for p in (1, 2):
            lhs = feature_loss(a, b, ex, p).item()
            rhs = feature_loss(b, a, ex, p).item()
            assert lhs == pytest.approx(rhs, rel=1e-14)

    @pytest.mark.parametrize("tap,p", sorted(GOLDEN_FEATURE_LOSS))
    def test_pinned_golden_values(self, tap, p):
        real = Tensor(np.zeros((1, 1, 8, 8)))
        fake = Tensor(np.full((1, 1, 8, 8), 0.1))
        ex = FeatureExtractor(1, 42, tap=tap)
        got = feature_loss(fake, real, ex, p).item()
        assert got == pytest.approx(GOLDEN_FEATURE_LOSS[(tap, p)], rel=1e-12)

    def test_shape_mismatch_rejected(self):
        ex = FeatureExtractor(1, 0)
        with pytest.raises(ValueError, match="shapes differ"):
            feature_loss(
                Tensor(np.zeros((1, 1, 8, 8))), Tensor(np.zeros((1, 1, 6, 6))), ex
            )

    def test_gradient_passes_finite_differences(self):
        rng = np.random.default_rng(103)
        ex = FeatureExtractor(1, 5)
        err = ad.finite_diff_check(
            lambda t: feature_loss(t[0], t[1], ex, 2),
            [rng.uniform(size=(1, 1, 5, 5)), rng.uniform(size=(1, 1, 5, 5))],
        )
        assert err < 1e-4
