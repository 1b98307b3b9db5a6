"""Independent reference implementations used to derive expected test values.

Everything here is written as straight-line numpy with explicit loops, on
purpose: these are oracles, so they must not share code paths with the
package under test.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np


def hv_inclusion_exclusion(points: np.ndarray, ref: np.ndarray) -> float:
    """Exact hypervolume (minimize) by inclusion-exclusion over all subsets.

    vol(union of boxes) = sum over nonempty subsets T of (-1)^(|T|+1) times
    the volume of the intersection box, whose lower corner is the
    componentwise max of T. Exponential in the point count; fine for <= 10.
    """
    pts = np.asarray(points, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    total = 0.0
    k = pts.shape[0]
    for size in range(1, k + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for combo in itertools.combinations(range(k), size):
            corner = pts[list(combo)].max(axis=0)
            side = ref - corner
            if np.all(side >= 0.0):
                total += sign * float(np.prod(side))
    return total


def hv_sweep_plain(front: list, ref: tuple) -> float:
    """Exact hypervolume of distinct, mutually nondominated minimize-oriented
    float tuples against ref, by the slicing-objectives dimension sweep with
    no reuse of sub-volumes: every slab recomputes its lower-dimensional
    volume. Its float operations are those of the memoized sweep in
    ``hvgan.moo``, so the two must agree bit for bit."""
    n = len(ref)
    if n == 1:
        return ref[0] - min(p[0] for p in front)
    if n == 2:
        pts = sorted(front)
        area = 0.0
        for i, (x, y) in enumerate(pts):
            next_x = pts[i + 1][0] if i + 1 < len(pts) else ref[0]
            area += (next_x - x) * (ref[1] - y)
        return area
    # No point's projection is weakly dominated by the projections before it
    # (the point itself would then be dominated), so every point joins the
    # front and only evicts the projections it dominates.
    pts = sorted(front, key=lambda p: p[-1])
    sub_ref = ref[:-1]
    slab: list = []
    total = 0.0
    for i, p in enumerate(pts):
        q = p[:-1]
        slab = [f for f in slab if not all(map(operator.le, q, f))]
        slab.append(q)
        z = p[-1]
        z_next = pts[i + 1][-1] if i + 1 < len(pts) else ref[-1]
        # Tied points close one slab together, at the last of them; a
        # point on the reference face closes none.
        if z_next != z:
            total += (z_next - z) * hv_sweep_plain(slab, sub_ref)
    return total


def hypervolume_mc_one_draw(
    points: np.ndarray, ref: np.ndarray, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo hypervolume (minimize) and its binomial standard error
    from one ``uniform`` draw of all samples in the box between the best
    corner of ``points`` and ``ref``."""
    pts = np.asarray(points, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    ideal = pts.min(axis=0)
    box_vol = math.prod(r - i for r, i in zip(ref.tolist(), ideal.tolist()))
    draws = np.random.default_rng(seed).uniform(ideal, ref, size=(samples, ref.size))
    dominated = np.zeros(samples, dtype=bool)
    for p in pts:
        dominated |= (draws >= p).all(axis=1)
    frac = int(dominated.sum()) / samples
    return frac * box_vol, box_vol * float(np.sqrt(frac * (1.0 - frac) / samples))


def pareto_brute(rows: list) -> list:
    """Indices of nondominated rows (minimize) by literal pairwise scans."""
    keep = []
    for i, a in enumerate(rows):
        dominated = False
        for j, b in enumerate(rows):
            if i == j:
                continue
            if all(bx <= ax for ax, bx in zip(a, b)) and any(
                bx < ax for ax, bx in zip(a, b)
            ):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


def nearest_upscale_reference(x: np.ndarray, factor: int) -> np.ndarray:
    """Pixel replication of a (C,H,W) array by ``factor`` on both sides."""
    return np.repeat(np.repeat(x, factor, axis=1), factor, axis=2)


def conv2d_naive(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Quadruple-loop stride-1 same-zero-padding correlation."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    out = np.zeros((n, o, h, wd))
    for im in range(n):
        for oc in range(o):
            for y in range(h):
                for xx in range(wd):
                    acc = 0.0
                    for ic in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                yy = y + i - kh // 2
                                xj = xx + j - kw // 2
                                if 0 <= yy < h and 0 <= xj < wd:
                                    acc += w[oc, ic, i, j] * x[im, ic, yy, xj]
                    out[im, oc, y, xx] = acc
    return out


def _tap_overlap(length: int, shift: int) -> tuple[slice, slice]:
    """Output positions along one axis whose input position, shifted by
    ``shift``, lies inside the image, as (output slice, input slice)."""
    lo, hi = max(0, -shift), min(length, length - shift)
    if lo >= hi:
        return slice(0, 0), slice(0, 0)
    return slice(lo, hi), slice(lo + shift, hi + shift)


def conv2d_grad_input_naive(gy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Input gradient of conv2d_naive, one kernel tap and channel pair at a
    time: output pixel (y, x) read input pixel (y + i - kh//2, x + j - kw//2)
    with weight w[o, c, i, j], so it sends back that weight times its
    gradient."""
    n, o, h, wd = gy.shape
    _, c, kh, kw = w.shape
    gx = np.zeros((n, c, h, wd))
    for i in range(kh):
        ys_out, ys_in = _tap_overlap(h, i - kh // 2)
        for j in range(kw):
            xs_out, xs_in = _tap_overlap(wd, j - kw // 2)
            for oc in range(o):
                for ic in range(c):
                    gx[:, ic, ys_in, xs_in] += w[oc, ic, i, j] * gy[:, oc, ys_out, xs_out]
    return gx


def conv2d_grad_weight_naive(x: np.ndarray, gy: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Weight gradient of conv2d_naive, one kernel tap and channel pair at a
    time: the sum over images and output pixels of the output gradient times
    the input pixel that tap read."""
    n, c, h, wd = x.shape
    o = gy.shape[1]
    gw = np.zeros((o, c, kh, kw))
    for i in range(kh):
        ys_out, ys_in = _tap_overlap(h, i - kh // 2)
        for j in range(kw):
            xs_out, xs_in = _tap_overlap(wd, j - kw // 2)
            for oc in range(o):
                for ic in range(c):
                    gw[oc, ic, i, j] = np.sum(
                        gy[:, oc, ys_out, xs_out] * x[:, ic, ys_in, xs_in]
                    )
    return gw


def feature_stack_reference(
    img: np.ndarray, seed, tap: str = "post", widths=(8, 16, 16)
) -> np.ndarray:
    """Straight-line recomputation of the frozen random conv stack.

    Draws the same weight sequence (unit normal over (c_out, c_in, 3, 3),
    scaled by 1/sqrt(fan-in)) and runs conv -> leaky_relu(0.2) with the final
    activation included only for tap='post'.
    """
    rng = np.random.default_rng(seed)
    h = np.asarray(img, dtype=np.float64)
    c_in = h.shape[1]
    weights = []
    for c_out in widths:
        weights.append(
            rng.standard_normal((c_out, c_in, 3, 3)) / np.sqrt(c_in * 9)
        )
        c_in = c_out
    for i, w in enumerate(weights):
        h = conv2d_naive(h, w)
        if i < len(weights) - 1 or tap == "post":
            h = np.where(h > 0.0, h, 0.2 * h)
    return h


def gmsd_reference(a: np.ndarray, b: np.ndarray) -> float:
    """Straight-line GMSD for one channel: 2x mean pool, Prewitt/3 gradients
    with reflect-edge indexing, similarity map, population standard deviation."""

    def pool(img):
        hh, ww = img.shape
        img = img[: hh - hh % 2, : ww - ww % 2]
        out = np.zeros((img.shape[0] // 2, img.shape[1] // 2))
        for y in range(out.shape[0]):
            for x in range(out.shape[1]):
                out[y, x] = img[2 * y : 2 * y + 2, 2 * x : 2 * x + 2].mean()
        return out

    def reflect(i, n):
        # symmetric padding: ... 1 0 | 0 1 2 ... n-1 | n-1 n-2 ...
        if i < 0:
            return -i - 1
        if i >= n:
            return 2 * n - 1 - i
        return i

    def grad_mag(img):
        hx = np.array([[1.0, 0.0, -1.0]] * 3) / 3.0
        hy = hx.T
        hh, ww = img.shape
        gx = np.zeros_like(img)
        gy = np.zeros_like(img)
        for y in range(hh):
            for x in range(ww):
                ax = ay = 0.0
                for i in range(3):
                    for j in range(3):
                        v = img[reflect(y + i - 1, hh), reflect(x + j - 1, ww)]
                        ax += hx[i, j] * v
                        ay += hy[i, j] * v
                gx[y, x] = ax
                gy[y, x] = ay
        return np.sqrt(gx * gx + gy * gy)

    c = 170.0 / 255.0**2
    ma = grad_mag(pool(np.asarray(a, dtype=np.float64)))
    mb = grad_mag(pool(np.asarray(b, dtype=np.float64)))
    sim = (2.0 * ma * mb + c) / (ma * ma + mb * mb + c)
    return float(np.sqrt(np.mean((sim - sim.mean()) ** 2)))


def ssim_reference(a: np.ndarray, b: np.ndarray) -> float:
    """Straight-line SSIM: the 11x11 window outer(g, g) of the normalized
    Gaussian g (sigma 1.5) at every fully interior position, C1 = 0.01^2 and
    C2 = 0.03^2, the mean of each channel's map, then the channel mean."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 2:
        a, b = a[None], b[None]
    r = np.arange(11) - 5.0
    g = np.exp(-(r * r) / (2.0 * 1.5 * 1.5))
    g /= g.sum()
    win = np.outer(g, g)
    c1, c2 = 0.01**2, 0.03**2
    channel_means = []
    for ca, cb in zip(a, b):
        hh, ww = ca.shape
        vals = []
        for y in range(hh - 10):
            for x in range(ww - 10):
                pa = ca[y : y + 11, x : x + 11]
                pb = cb[y : y + 11, x : x + 11]
                mu_a = np.sum(win * pa)
                mu_b = np.sum(win * pb)
                var_a = np.sum(win * pa * pa) - mu_a * mu_a
                var_b = np.sum(win * pb * pb) - mu_b * mu_b
                cov = np.sum(win * pa * pb) - mu_a * mu_b
                num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
                den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
                vals.append(num / den)
        channel_means.append(np.mean(vals))
    return float(np.mean(channel_means))


def adam_reference(param, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam trajectory for a single parameter given a grad sequence."""
    p = np.array(param, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def upsample_nearest_reference(x: np.ndarray, f: int) -> np.ndarray:
    """(N,C,H,W) -> (N,C,fH,fW) pixel replication by two ``np.repeat``."""
    return np.repeat(np.repeat(x, f, axis=2), f, axis=3)


def upsample_nearest_vjp_reference(g: np.ndarray, f: int) -> np.ndarray:
    """Gradient of upsample_nearest_reference: the sum of each input pixel's
    f x f block of ``g``, as one reshape-reduction."""
    n, c, fh, fw = g.shape
    return g.reshape(n, c, fh // f, f, fw // f, f).sum(axis=(3, 5))


def sigmoid_reference(d: np.ndarray) -> np.ndarray:
    """Logistic function evaluated on each sign's half through a boolean
    mask, so that ``exp`` only ever sees a non-positive argument."""
    y = np.empty_like(d)
    pos = d >= 0.0
    y[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    y[~pos] = ez / (1.0 + ez)
    return y


def sigmoid_vjp_reference(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the logistic function from its output ``y``."""
    return g * y * (1.0 - y)


def leaky_relu_reference(x: np.ndarray, g: np.ndarray, alpha: float):
    """(value, gradient) of leaky ReLU through a per-element slope array."""
    slope = np.where(x > 0.0, 1.0, alpha)
    return x * slope, g * slope
