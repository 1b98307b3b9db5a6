import math

import numpy as np
import pytest

from hvgan.metrics import gmsd, psnr, ssim

from oracles import gmsd_reference, ssim_reference


def _pair(seed, shape=(24, 32), noise=0.1):
    rng = np.random.default_rng(seed)
    a = rng.uniform(size=shape)
    b = np.clip(a + rng.normal(0.0, noise, size=shape), 0.0, 1.0)
    return a, b


class TestPsnr:
    def test_identical_images_give_infinity(self):
        a = np.random.default_rng(110).uniform(size=(3, 16, 16))
        assert psnr(a, a) == math.inf

    def test_unit_difference_at_255_peak(self):
        a = np.zeros((16, 16))
        b = np.ones((16, 16))
        assert psnr(a, b, peak=255.0) == pytest.approx(
            20.0 * math.log10(255.0), rel=1e-12
        )
        assert psnr(a, b, peak=255.0) == pytest.approx(48.1308, abs=1e-3)

    def test_half_difference_at_unit_peak(self):
        a = np.zeros((16, 16))
        b = np.full((16, 16), 0.5)
        assert psnr(a, b) == pytest.approx(10.0 * math.log10(4.0), rel=1e-12)
        assert psnr(a, b) == pytest.approx(6.0206, abs=1e-3)

    def test_strictly_decreasing_in_mse(self):
        a = np.zeros((8, 8))
        values = [psnr(a, np.full((8, 8), d)) for d in (0.1, 0.2, 0.3, 0.4)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_channels_are_averaged(self):
        a = np.zeros((2, 8, 8))
        b = np.stack([np.full((8, 8), 0.1), np.full((8, 8), 0.2)])
        want = (psnr(a[0], b[0]) + psnr(a[1], b[1])) / 2.0
        assert psnr(a, b) == pytest.approx(want, rel=1e-14)

    def test_one_perfect_channel_dominates(self):
        a = np.zeros((2, 8, 8))
        b = np.stack([np.zeros((8, 8)), np.full((8, 8), 0.5)])
        assert psnr(a, b) == math.inf

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            psnr(np.zeros((4, 4)), np.zeros((5, 5)))

    # 1e200 and 1e-200 are finite, but peak^2/MSE overflows to inf or
    # underflows to 0 at MSE 1
    @pytest.mark.parametrize("peak", [0.0, math.inf, 1e200, 1e-200])
    def test_bad_peak_rejected(self, peak):
        with pytest.raises(ValueError, match="peak"):
            psnr(np.zeros((4, 4)), np.ones((4, 4)), peak=peak)


class TestSsim:
    def test_identity_is_exactly_one(self):
        a = np.random.default_rng(111).uniform(size=(16, 16))
        assert ssim(a, a) == 1.0

    def test_symmetry(self):
        for seed in range(5):
            a, b = _pair(seed)
            assert ssim(a, b) == pytest.approx(ssim(b, a), rel=1e-14)

    def test_inverted_image_scores_negative(self):
        a = np.random.default_rng(112).uniform(size=(32, 32))
        assert ssim(a, 1.0 - a) < 0.0

    def test_values_stay_in_range(self):
        for seed in range(10):
            a, b = _pair(seed, noise=0.5)
            assert -1.0 <= ssim(a, b) <= 1.0

    def test_window_lower_bound(self):
        with pytest.raises(ValueError, match="smaller than"):
            ssim(np.zeros((10, 16)), np.zeros((10, 16)))

    def test_channels_are_averaged(self):
        rng = np.random.default_rng(113)
        a = rng.uniform(size=(3, 16, 16))
        b = np.clip(a + rng.normal(0, 0.1, size=a.shape), 0, 1)
        want = np.mean([ssim(a[c], b[c]) for c in range(3)])
        assert ssim(a, b) == pytest.approx(want, rel=1e-14)

    def test_matches_straight_line_reference(self):
        for seed, shape in enumerate([(16, 16), (3, 11, 19), (20, 13), (3, 14, 14)]):
            a, b = _pair(seed, shape=shape, noise=0.2)
            assert ssim(a, b) == pytest.approx(ssim_reference(a, b), abs=1e-12)

    def test_matches_skimage_reference(self):
        structural_similarity = pytest.importorskip(
            "skimage.metrics"
        ).structural_similarity
        for seed in range(5):
            a, b = _pair(seed, shape=(32, 48))
            want = structural_similarity(
                a, b, win_size=11, gaussian_weights=True, sigma=1.5,
                use_sample_covariance=False, data_range=1.0,
            )
            assert ssim(a, b) == pytest.approx(want, abs=1e-12)


class TestGmsd:
    def test_identity_is_exactly_zero(self):
        a = np.random.default_rng(114).uniform(size=(16, 16))
        assert gmsd(a, a) == 0.0

    def test_two_constants_give_zero(self):
        assert gmsd(np.full((8, 8), 0.2), np.full((8, 8), 0.9)) == 0.0

    def test_symmetry(self):
        for seed in range(5):
            a, b = _pair(seed)
            assert gmsd(a, b) == pytest.approx(gmsd(b, a), rel=1e-14)

    def test_nonnegative(self):
        for seed in range(10):
            a, b = _pair(seed, noise=0.4)
            assert gmsd(a, b) >= 0.0

    def test_matches_straight_line_reference(self):
        for seed in range(8):
            a, b = _pair(seed, shape=(17, 22), noise=0.3)
            assert gmsd(a, b) == pytest.approx(gmsd_reference(a, b), abs=1e-13)

    def test_size_lower_bound(self):
        with pytest.raises(ValueError, match="smaller than 4x4"):
            gmsd(np.zeros((3, 8)), np.zeros((3, 8)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            gmsd(np.zeros((8, 8)), np.zeros((8, 9)))

    def test_channels_are_averaged(self):
        rng = np.random.default_rng(115)
        a = rng.uniform(size=(3, 12, 12))
        b = np.clip(a + rng.normal(0, 0.2, size=a.shape), 0, 1)
        want = np.mean([gmsd(a[c], b[c]) for c in range(3)])
        assert gmsd(a, b) == pytest.approx(want, rel=1e-14)


class TestSharedProperties:
    def test_flip_invariance_on_even_sizes(self):
        for seed in range(5):
            a, b = _pair(seed, shape=(24, 32), noise=0.2)
            af, bf = a[:, ::-1], b[:, ::-1]
            assert psnr(a, b) == pytest.approx(psnr(af, bf), abs=1e-12)
            assert ssim(a, b) == pytest.approx(ssim(af, bf), abs=1e-12)
            assert gmsd(a, b) == pytest.approx(gmsd(af, bf), abs=1e-12)

    def test_two_d_arrays_promote_to_single_channel(self):
        a, b = _pair(0, shape=(16, 16))
        assert psnr(a, b) == psnr(a[None], b[None])
        assert ssim(a, b) == ssim(a[None], b[None])
        assert gmsd(a, b) == gmsd(a[None], b[None])

    @pytest.mark.parametrize("metric", [psnr, ssim, gmsd], ids=["psnr", "ssim", "gmsd"])
    def test_four_d_arrays_rejected(self, metric):
        a = np.zeros((1, 1, 16, 16))
        name = metric.__name__
        with pytest.raises(
            ValueError, match=rf"{name}: need \(C,H,W\) or \(H,W\), got shape \(1, 1, 16, 16\)"
        ):
            metric(a, a)
