import numpy as np
import pytest

from hvgan import kernels
from hvgan.moo import MAX_HV_DIM, _pareto_mask

from oracles import conv2d_grad_input_naive, conv2d_grad_weight_naive, conv2d_naive


# shapes every conv test covers whatever the random draws give: non-square
# kernels (the tap loops index kh and kw separately), N=1 and O=1, and each
# side of the kernels' shape rules. Forward and grad_weight take shifted GEMMs
# where O <= C and im2col where O > C; grad_input takes col2im where C < O and
# otherwise a forward pass with O and C swapped.
FIXED_SHAPES = [  # ((N, C, H, W), (O, kh, kw))
    ((1, 2, 5, 7), (3, 1, 3)),
    ((2, 3, 6, 4), (1, 3, 5)),
    ((1, 1, 4, 6), (1, 5, 1)),
    ((3, 2, 5, 5), (2, 5, 3)),
    ((1, 3, 6, 5), (16, 3, 3)),  # 3 -> 16: O > C, col2im grad_input
    ((2, 16, 5, 4), (3, 3, 3)),  # 16 -> 3: O < C
    ((2, 3, 4, 6), (8, 3, 3)),  # 3 -> 8
    ((1, 4, 5, 5), (4, 3, 3)),  # O = C
    ((2, 5, 4, 3), (2, 1, 1)),  # 1x1, O < C
    ((1, 2, 3, 7), (2, 1, 5)),  # non-square, O = C
    ((2, 3, 2, 4), (1, 5, 3)),  # kh > H: taps past the flat buffer's end
    ((1, 2, 2, 2), (6, 5, 5)),  # kh > H and kw > W, C < O
    ((1, 6, 3, 2), (6, 5, 1)),  # kh > H, O = C
]


def _random_case(rng, shape=None):
    if shape is None:
        n, ci, co = (int(v) for v in rng.integers(1, 4, size=3))
        h, w = (int(v) for v in rng.integers(3, 9, size=2))
        kh, kw = (int(v) for v in rng.choice([1, 3, 5], size=2))
    else:
        (n, ci, h, w), (co, kh, kw) = shape
    x = rng.standard_normal((n, ci, h, w))
    ker = rng.standard_normal((co, ci, kh, kw))
    return x, ker


def _cases(rng, count):
    return [_random_case(rng, s) for s in FIXED_SHAPES] + [
        _random_case(rng) for _ in range(count)
    ]


class TestNumpyKernels:
    def test_forward_matches_naive(self):
        rng = np.random.default_rng(80)
        for x, ker in _cases(rng, 20):
            got = kernels.conv2d_forward(x, ker)
            assert np.allclose(got, conv2d_naive(x, ker), rtol=0, atol=1e-12)

    def test_identity_kernel(self):
        x = np.random.default_rng(81).standard_normal((2, 3, 5, 5))
        ker = np.zeros((3, 3, 3, 3))
        for c in range(3):
            ker[c, c, 1, 1] = 1.0
        assert np.allclose(kernels.conv2d_forward(x, ker), x, rtol=0, atol=0)

    def test_grad_weight_matches_finite_differences(self):
        rng = np.random.default_rng(82)
        x = rng.standard_normal((2, 2, 5, 5))
        ker = rng.standard_normal((3, 2, 3, 3))
        gy = rng.standard_normal((2, 3, 5, 5))
        gw = kernels.conv2d_grad_weight(x, gy, 3, 3)
        h = 1e-6
        for idx in [(0, 0, 0, 0), (1, 1, 1, 2), (2, 0, 2, 1)]:
            kp, km = ker.copy(), ker.copy()
            kp[idx] += h
            km[idx] -= h
            fd = np.sum(
                (kernels.conv2d_forward(x, kp)
                 - kernels.conv2d_forward(x, km)) * gy
            ) / (2 * h)
            assert gw[idx] == pytest.approx(fd, rel=1e-5)

    def test_grad_input_is_the_transpose_map(self):
        # <conv(x, w), gy> == <x, grad_input(gy, w)> for all x, gy
        rng = np.random.default_rng(83)
        for x, ker in _cases(rng, 10):
            gy = rng.standard_normal(
                (x.shape[0], ker.shape[0], x.shape[2], x.shape[3])
            )
            lhs = np.sum(kernels.conv2d_forward(x, ker) * gy)
            rhs = np.sum(x * kernels.conv2d_grad_input(gy, ker))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_grad_weight_is_the_adjoint_of_the_naive_conv(self):
        # <conv(x, w), gy> == <w, grad_weight(x, gy)> for all w, gy
        rng = np.random.default_rng(86)
        for x, ker in _cases(rng, 10):
            gy = rng.standard_normal(
                (x.shape[0], ker.shape[0], x.shape[2], x.shape[3])
            )
            lhs = np.sum(conv2d_naive(x, ker) * gy)
            gw = kernels.conv2d_grad_weight(x, gy, ker.shape[2], ker.shape[3])
            assert gw.shape == ker.shape
            assert lhs == pytest.approx(np.sum(ker * gw), rel=1e-12)

    def test_grad_input_matches_naive(self):
        rng = np.random.default_rng(87)
        for x, ker in _cases(rng, 20):
            gy = rng.standard_normal(
                (x.shape[0], ker.shape[0], x.shape[2], x.shape[3])
            )
            got = kernels.conv2d_grad_input(gy, ker)
            assert got.shape == x.shape
            want = conv2d_grad_input_naive(gy, ker)
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_grad_weight_matches_naive(self):
        rng = np.random.default_rng(88)
        for x, ker in _cases(rng, 20):
            gy = rng.standard_normal(
                (x.shape[0], ker.shape[0], x.shape[2], x.shape[3])
            )
            kh, kw = ker.shape[2:]
            got = kernels.conv2d_grad_weight(x, gy, kh, kw)
            want = conv2d_grad_weight_naive(x, gy, kh, kw)
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_pad_grad_is_the_output_gradient_on_the_padded_grid(self):
        # the kh > H shapes put the end of the window in the trailing slack
        rng = np.random.default_rng(89)
        for (n, _, h, w), (o, kh, kw) in FIXED_SHAPES:
            gy = rng.standard_normal((n, o, h, w))
            want = np.zeros((o, n, h + kh - 1, w + kw - 1))
            want[:, :, :h, :w] = gy.transpose(1, 0, 2, 3)
            got = kernels._pad_grad(gy, kh, kw)
            assert got.shape == (o, want[0].size)
            assert np.array_equal(got, want.reshape(o, -1))

    def test_count_dominated_small_cases(self):
        points = np.array([[0.5, 0.5]])
        samples = np.array([[0.4, 0.9], [0.6, 0.6], [0.5, 0.5], [0.9, 0.4]])
        assert kernels.count_dominated(samples, points) == 2

    def test_count_dominated_brute_force(self):
        rng = np.random.default_rng(84)
        cases = []
        for _ in range(20):
            nd = int(rng.integers(1, MAX_HV_DIM + 1))
            cases.append((rng.uniform(size=(int(rng.integers(1, 8)), nd)),
                          rng.uniform(size=(200, nd))))
        # samples equal to a point count as (weakly) dominated
        pts = rng.uniform(size=(4, 3))
        cases.append((pts, np.vstack([pts, pts - 0.01, rng.uniform(size=(50, 3))])))
        # one objective, and no points at all
        cases.append((rng.uniform(size=(3, 1)), rng.uniform(size=(100, 1))))
        cases.append((np.zeros((0, 4)), rng.uniform(size=(30, 4))))
        # dominated and duplicate rows add no hit: their nondominated rows
        # count the same samples
        grid = rng.integers(0, 4, size=(12, 3)).astype(float)
        front = rng.uniform(0.2, 0.6, size=(6, 6))
        for pts in (
            np.vstack([grid, grid[:4]]),
            np.vstack([front, front[:2] + 0.1, front[:3], front[1:2] + 0.3]),
        ):
            smp = rng.uniform(pts.min(0), pts.max(0) + 0.5, size=(500, pts.shape[1]))
            cases.append((pts, smp))
            assert kernels.count_dominated(smp, pts[_pareto_mask(pts)]) == (
                kernels.count_dominated(smp, pts)
            )
        for pts, smp in cases:
            want = int(
                ((pts[None, :, :] <= smp[:, None, :]).all(2).any(1)).sum()
            )
            assert kernels.count_dominated(smp, pts) == want

    def test_count_dominated_chunking_is_seamless(self):
        # a long sample array, past 2**16 rows, counts like a short one
        rng = np.random.default_rng(85)
        pts = rng.uniform(size=(3, 2))
        smp = rng.uniform(size=((1 << 16) + 17, 2))
        want = int(((pts[None, :, :] <= smp[:, None, :]).all(2).any(1)).sum())
        assert kernels.count_dominated(smp, pts) == want
