"""Acceptance battery: one test per shipped guarantee, one PASS/FAIL line each.

Run as part of the normal suite (``pytest``) or alone
(``pytest tests/test_acceptance.py``). The lines print even under capture so
a plain ``pytest -v`` shows the battery verdicts inline.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from hvgan import autodiff as ad
from hvgan import cli, model
from hvgan.autodiff import gradcheck_suite
from hvgan.data_io import ImageBuffer, extract_patches, nearest_upscale
from hvgan.losses import (
    FeatureExtractor,
    adv_loss_relativistic_g,
    feature_loss,
    pixel_loss,
)
from hvgan.metrics import gmsd, psnr, ssim
from hvgan.moo import Orientation, PointSet, hypervolume_exact, hypervolume_mc
from hvgan.scalarize import (
    gradient_weights,
    hv_log_loss,
    hv_log_loss_normalized,
)
from hvgan.synth import make_corpus, write_corpus

from oracles import conv2d_naive


def _report(capsys, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f" ({detail})"
        print(line)
    assert ok, f"{name}: {detail}"


def _random_unclamped(rng, n):
    mu = rng.uniform(0.5, 5.0, size=n)
    return mu * rng.uniform(0.05, 0.95, size=n), mu


def test_hypervolume_oracle_equivalence(capsys):
    """Exact hypervolume sits within 4 standard errors of a million-sample
    Monte-Carlo estimate on at least 95 of 100 seeded point sets, in < 60 s."""
    t0 = time.perf_counter()
    hits = 0
    for case in range(100):
        rng = np.random.default_rng([1000, case])
        n = int(rng.choice([2, 3]))
        k = int(rng.integers(2, 9))
        pts = PointSet.from_rows(rng.uniform(size=(k, n)), Orientation.MINIMIZE)
        ref = np.ones(n)
        exact = hypervolume_exact(pts, ref)
        est, stderr = hypervolume_mc(pts, ref, 10**6, seed=[2000, case])
        if abs(exact - est) <= 4.0 * stderr:
            hits += 1
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        "hypervolume exact-vs-monte-carlo equivalence",
        hits >= 95 and elapsed < 60.0,
        f"{hits}/100 within 4 stderr, {elapsed:.1f}s",
    )


def test_scalarization_volume_identity(capsys):
    """exp(-scalarized loss) reproduces the exact single-point hypervolume
    to 1e-12 relative on 1000 random unclamped pairs."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        l, mu = _random_unclamped(rng, n)
        hv = hypervolume_exact(PointSet.from_rows([l], Orientation.MINIMIZE), mu)
        worst = max(worst, abs(math.exp(-hv_log_loss(l, mu)) - hv) / hv)
    _report(
        capsys,
        "log-loss / hypervolume identity",
        worst <= 1e-12,
        f"worst relative error {worst:.2e} over 1000 pairs",
    )


def test_gradient_weight_law(capsys):
    """The closed-form weights equal the tape gradient of both log objectives
    to 1e-10 absolute on 1000 points, and the two objectives differ by
    exactly the sum of log bounds (1e-12 relative)."""
    rng = np.random.default_rng(1002)
    worst_grad = 0.0
    worst_offset = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        l, mu = _random_unclamped(rng, n)
        w = gradient_weights(l, mu)

        for normalized in (False, True):
            lp = ad.Parameter(l.copy(), name="l")
            with ad.Tape() as tape:
                gap = ad.sub(ad.Tensor(mu), lp)
                if normalized:
                    gap = ad.mul(gap, ad.Tensor(1.0 / mu))
                loss = ad.mul(ad.reduce_sum(ad.log(gap)), -1.0)
                tape.backward(loss)
            worst_grad = max(worst_grad, float(np.max(np.abs(lp.grad - w))))

        offset = hv_log_loss_normalized(l, mu) - hv_log_loss(l, mu)
        want = float(np.sum(np.log(mu)))
        worst_offset = max(worst_offset, abs(offset - want) / abs(want))
    _report(
        capsys,
        "gradient weights equal both objective gradients",
        worst_grad <= 1e-10 and worst_offset <= 1e-12,
        f"worst gradient gap {worst_grad:.2e}, worst offset error {worst_offset:.2e}",
    )


def test_autodiff_soundness(capsys):
    """Every tape primitive passes central finite differences at 10 random
    points below 1e-5, and conv2d matches the quadruple-loop reference."""
    results = gradcheck_suite(trials=10)
    worst_name, worst = max(results, key=lambda kv: kv[1])

    rng = np.random.default_rng(1003)
    conv_worst = 0.0
    for _ in range(10):
        x = rng.standard_normal((2, 3, 6, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        got = ad.conv2d(ad.Tensor(x), ad.Tensor(w)).data
        conv_worst = max(conv_worst, float(np.max(np.abs(got - conv2d_naive(x, w)))))

    _report(
        capsys,
        "autodiff finite-difference soundness",
        worst < 1e-5 and conv_worst <= 1e-12,
        f"worst primitive {worst_name} {worst:.2e}, conv2d vs naive {conv_worst:.2e}",
    )


def test_weighted_sum_update(capsys):
    """From a fixed pretrained checkpoint, the scalarized generator gradient
    equals the weight-combined single-loss gradients to 1e-8 relative."""
    corpus = make_corpus(seed=0, count=4, size=64)
    mu = (20.0, 0.1, 10.0)
    extractor = FeatureExtractor(1, [3, 3])

    g, _ = model.init_networks(3, 1, 16, 8)
    model.pretrain_generator(g, corpus, model.TrainConfig(
        dataset="unused", output_dir="unused", seed=3, norm_p=2,
        pretrain_iters=50, batch_size=4, patch_size=16, lr=1e-3,
    ))
    checkpoint = model.get_state(g.params())
    _, d = model.init_networks(3, 1, 16, 8)
    lr_b, hr_b = model._draw_batch(corpus, 4, 16, np.random.default_rng([3, 2]))

    def fresh_generator():
        g2, _ = model.init_networks(3, 1, 16, 8)
        model.set_state(g2.params(), checkpoint)
        return g2

    def loss_terms(g2, fake, hr_t):
        l_gan = adv_loss_relativistic_g(d.forward(hr_t), d.forward(fake))
        l_pix = pixel_loss(fake, hr_t, 1)
        l_fea = feature_loss(fake, hr_t, extractor, 1)
        return l_gan, l_pix, l_fea

    singles = []
    for k in range(3):
        g2 = fresh_generator()
        with ad.Tape() as tape:
            fake = g2.forward(ad.Tensor(lr_b))
            loss = loss_terms(g2, fake, ad.Tensor(hr_b))[k]
            tape.backward(loss)
        singles.append(
            (loss.item(),
             {p.name: (np.zeros_like(p.data) if p.grad is None else p.grad)
              for p in g2.params()})
        )
    losses = np.array([v for v, _ in singles])
    weights = gradient_weights(losses, mu)

    g2 = fresh_generator()
    with ad.Tape() as tape:
        fake = g2.forward(ad.Tensor(lr_b))
        l_gan, l_pix, l_fea = loss_terms(g2, fake, ad.Tensor(hr_b))
        total = ad.add(
            ad.add(ad.mul(l_gan, weights[0]),
                   ad.mul(l_pix, weights[1])),
            ad.mul(l_fea, weights[2]),
        )
        tape.backward(total)

    worst = 0.0
    for p in g2.params():
        combo = sum(w * singles[k][1][p.name] for k, w in enumerate(weights))
        scale = max(float(np.max(np.abs(combo))), 1e-30)
        worst = max(worst, float(np.max(np.abs(p.grad - combo))) / scale)
    _report(
        capsys,
        "scalarized update is the weighted sum of single-loss updates",
        worst <= 1e-8,
        f"worst relative gradient gap {worst:.2e}",
    )


def test_pretraining_beats_nearest_neighbor(capsys):
    """2000 pixel-loss pretraining iterations on the bundled 8-image corpus
    lift mean training-patch PSNR at least 0.5 dB above nearest-neighbor
    upscaling, in under 15 minutes."""
    t0 = time.perf_counter()
    corpus = make_corpus(seed=0, count=8, size=64)
    g, _ = model.init_networks(0, 1, 16, 8)
    model.pretrain_generator(g, corpus, model.TrainConfig(
        dataset="unused", output_dir="unused", seed=0, norm_p=2,
        pretrain_iters=2000, batch_size=4, patch_size=48, lr=1e-3,
    ))
    gen_vals, nn_vals = [], []
    for img in corpus:
        for lr, hr in extract_patches(img, 48, 2, seed=123):
            lr = ImageBuffer(lr)
            sr = model.apply_generator(g, lr)
            gen_vals.append(psnr(sr.data, hr))
            nn_vals.append(psnr(nearest_upscale(lr, 4).data, hr))
    margin = float(np.mean(gen_vals) - np.mean(nn_vals))
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        "pretraining beats the nearest-neighbor baseline",
        margin >= 0.5 and elapsed < 900.0,
        f"margin {margin:+.3f} dB over {np.mean(nn_vals):.2f} dB, {elapsed:.0f}s",
    )


def test_adversarial_stability(capsys, tmp_path):
    """1000 adversarial iterations at default bounds stay finite; with the
    bounds loosened tenfold the mode comparison records zero clamp events and
    the two hypervolume variants' result rows agree to 1e-6."""
    corpus = make_corpus(seed=0, count=8, size=64)
    cfg = model.TrainConfig(
        dataset="unused", output_dir="unused", seed=0, mode="hv_log",
        adversarial="relativistic", pretrain_iters=200, adversarial_iters=1000,
        batch_size=4, patch_size=32, lr=1e-4, lr_milestones=(500,),
    )
    g, d = model.init_networks(0, 1, cfg.gen_width, cfg.disc_width)
    model.pretrain_generator(g, corpus, dataclasses.replace(cfg, lr=1e-3, norm_p=2))
    rows = model.adversarial_phase(g, d, corpus, cfg)
    all_finite = len(rows) == 1000 and all(
        math.isfinite(float(v)) for row in rows for v in row
    )

    corpus_dir = tmp_path / "corpus"
    paths = write_corpus(corpus_dir, seed=0, count=8, size=64)
    compare_cfg = {
        "dataset": str(corpus_dir),
        "output_dir": str(tmp_path / "out"),
        "seed": 0,
        "mu": [200.0, 1.0, 100.0],
        "adversarial": "relativistic",
        "pretrain_iters": 150,
        "adversarial_iters": 120,
        "batch_size": 4,
        "patch_size": 32,
        "lr": 1e-4,
        "lr_milestones": [60],
        "eval_list": paths[:2],
    }
    cfg_path = tmp_path / "compare.json"
    cfg_path.write_text(json.dumps(compare_cfg))
    rc = cli.main(["compare", "--config", str(cfg_path)])

    table = {}
    for line in (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]:
        fields = line.split(",")
        table[fields[0]] = [float(v) for v in fields[1:4]] + [int(fields[4])]
    clamp_free = table["hv_log"][3] == 0 and table["hv_log_norm"][3] == 0
    row_gap = max(
        abs(a - b) for a, b in zip(table["hv_log"][:3], table["hv_log_norm"][:3])
    )
    _report(
        capsys,
        "adversarial phase stays finite; loose bounds make variants agree",
        all_finite and rc == 0 and clamp_free and row_gap <= 1e-6,
        f"finite {all_finite}, clamp-free {clamp_free}, row gap {row_gap:.2e}",
    )


def test_metric_identities(capsys):
    """Identity, symmetry, flip invariance, and the two pinned PSNR values."""
    rng = np.random.default_rng(1004)
    ok = True
    details = []

    a = rng.uniform(size=(24, 32))
    b = np.clip(a + rng.normal(0, 0.15, size=a.shape), 0, 1)
    ok &= math.isinf(psnr(a, a)) and ssim(a, a) == 1.0 and gmsd(a, a) == 0.0

    ok &= abs(psnr(a, b) - psnr(b, a)) <= 1e-12
    ok &= abs(ssim(a, b) - ssim(b, a)) <= 1e-12
    ok &= abs(gmsd(a, b) - gmsd(b, a)) <= 1e-12

    af, bf = a[:, ::-1], b[:, ::-1]
    ok &= abs(psnr(a, b) - psnr(af, bf)) <= 1e-12
    ok &= abs(ssim(a, b) - ssim(af, bf)) <= 1e-12
    ok &= abs(gmsd(a, b) - gmsd(af, bf)) <= 1e-12

    v255 = psnr(np.zeros((8, 8)), np.ones((8, 8)), peak=255.0)
    v1 = psnr(np.zeros((8, 8)), np.full((8, 8), 0.5))
    details.append(f"{v255:.4f} dB and {v1:.4f} dB")
    ok &= abs(v255 - 48.1308) <= 1e-3 and abs(v1 - 6.0206) <= 1e-3

    _report(
        capsys,
        "metric identity, symmetry, flip invariance, pinned decibel values",
        bool(ok),
        ", ".join(details),
    )


def test_determinism(capsys, tmp_path):
    """Repeating train and compare with one config yields byte-identical
    history and results files."""
    corpus_dir = tmp_path / "corpus"
    paths = write_corpus(corpus_dir, seed=0, count=2, size=24)

    def config(sub, extra=None):
        cfg = {
            "dataset": str(corpus_dir), "output_dir": str(tmp_path / sub),
            "seed": 0, "pretrain_iters": 3, "adversarial_iters": 4,
            "batch_size": 2, "patch_size": 8, "lr": 1e-3,
            "lr_milestones": [3], "gen_width": 4, "disc_width": 4,
        }
        cfg.update(extra or {})
        path = tmp_path / f"{sub}.json"
        path.write_text(json.dumps(cfg))
        return path

    ok = True
    for sub_a, sub_b in [("t1", "t2")]:
        assert cli.main(["train", "--config", str(config(sub_a))]) == 0
        assert cli.main(["train", "--config", str(config(sub_b))]) == 0
        for name in ("history.csv", "pretrain.csv", "checkpoint.hvgn"):
            ok &= (
                (tmp_path / sub_a / name).read_bytes()
                == (tmp_path / sub_b / name).read_bytes()
            )

    extra = {"eval_list": paths[:1]}
    assert cli.main(["compare", "--config", str(config("c1", extra))]) == 0
    assert cli.main(["compare", "--config", str(config("c2", extra))]) == 0
    ok &= (
        (tmp_path / "c1" / "results.csv").read_bytes()
        == (tmp_path / "c2" / "results.csv").read_bytes()
    )
    for mode in cli.COMPARE_MODES:
        ok &= (
            (tmp_path / "c1" / mode / "history.csv").read_bytes()
            == (tmp_path / "c2" / mode / "history.csv").read_bytes()
        )

    _report(
        capsys,
        "repeated runs are byte-identical",
        bool(ok),
        "train history/pretrain/checkpoint and compare results/histories",
    )
