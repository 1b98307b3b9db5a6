import math
import re
import struct
import warnings

import numpy as np
import pytest

from hvgan import autodiff as ad
from hvgan import kernels
from hvgan import model
from hvgan.data_io import SCALE, ImageBuffer
from hvgan.losses import (
    FeatureExtractor,
    adv_loss_relativistic_g,
    feature_loss,
    pixel_loss,
)
from hvgan.model import (
    Adam,
    TrainConfig,
    adversarial_phase,
    apply_generator,
    get_state,
    init_networks,
    load_checkpoint,
    load_corpus,
    lr_at,
    pretrain_generator,
    save_checkpoint,
    set_state,
    train_step_discriminator,
    train_step_generator,
)
from hvgan.synth import make_corpus, write_corpus

from oracles import adam_reference


def _tiny_nets(seed=0):
    return init_networks(seed, channels=1, gen_width=4, disc_width=4)


def _const_images(value=0.6, size=16, count=2):
    return [ImageBuffer(np.full((1, size, size), value)) for _ in range(count)]


def _pretrain_config(seed=0, iters=1, lr=1e-3):
    """What pretrain_generator reads: seed, iterations, lr, batch 2, patch 8."""
    return TrainConfig(
        dataset="unused", output_dir="unused", seed=seed, pretrain_iters=iters,
        lr=lr, batch_size=2, patch_size=8,
    )


def _batch(seed=0, n=2, ps=8):
    imgs = make_corpus(seed=seed, count=2, size=24)
    rng = np.random.default_rng([seed, 9])
    return model._draw_batch(imgs, n, ps, rng)


def _taped_fake(g, lr_b):
    """G's output on a tape of its own, as adversarial_phase makes it."""
    with ad.Tape() as tape:
        fake = g.forward(ad.Tensor(lr_b))
    return tape, fake


def _step_config(mode="hv_log", mu=(20.0, 0.1, 10.0), eps=1e-6, **over):
    """What train_step_generator reads: mode, mu, eps, norm_p 1, relativistic."""
    return TrainConfig(
        dataset="unused", output_dir="unused", mode=mode, mu=mu, eps=eps,
        norm_p=1, adversarial="relativistic", **over,
    )


class TestNetworks:
    def test_same_seed_identical_weights(self):
        g1, d1 = _tiny_nets(5)
        g2, d2 = _tiny_nets(5)
        for a, b in zip(g1.params() + d1.params(), g2.params() + d2.params()):
            assert a.name == b.name
            assert np.array_equal(a.data, b.data)

    def test_generator_x4_shape_law(self):
        # the generator's two doubling stages undo data_io's downscale
        g, _ = _tiny_nets()
        for h, w in [(8, 8), (4, 6), (12, 5)]:
            out = g.forward(ad.Tensor(np.random.default_rng(0).uniform(size=(1, 1, h, w))))
            assert out.data.shape == (1, 1, SCALE * h, SCALE * w)

    def test_generator_output_in_unit_interval(self):
        g, _ = _tiny_nets(1)
        out = g.forward(ad.Tensor(np.random.default_rng(1).uniform(size=(2, 1, 8, 8))))
        assert out.data.min() > 0.0 and out.data.max() < 1.0

    def test_discriminator_emits_one_logit_per_sample(self):
        _, d = _tiny_nets(2)
        out = d.forward(ad.Tensor(np.random.default_rng(2).uniform(size=(3, 1, 8, 8))))
        assert out.data.shape == (3, 1)

    def test_parameter_names_are_unique_and_structured(self):
        g, d = _tiny_nets()
        names = [p.name for p in g.params() + d.params()]
        assert len(names) == len(set(names))
        assert "g.conv1.w" in names and "d.fc.b" in names

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError, match="width"):
            init_networks(0, gen_width=0)

    def test_invalid_channels_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            init_networks(0, channels=2)

    @pytest.mark.parametrize("call, message", [
        (lambda: init_networks(0, disc_width=0), "discriminator width must be >= 1, got 0"),
        (lambda: TrainConfig.from_dict(["dataset", "output_dir"]),
         "config must be a JSON object, got list"),
    ], ids=["disc_width", "config_not_an_object"])
    def test_bad_argument_is_named(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_apply_generator_wraps_whole_images(self):
        g, _ = _tiny_nets()
        img = ImageBuffer(np.random.default_rng(3).uniform(size=(1, 8, 8)))
        out = apply_generator(g, img)
        assert out.data.shape == (1, 32, 32)


class TestAdam:
    def test_matches_textbook_trajectory(self):
        rng = np.random.default_rng(120)
        start = rng.standard_normal((3, 2))
        grads = [rng.standard_normal((3, 2)) for _ in range(7)]
        p = ad.Parameter(start.copy(), name="w")
        opt = Adam([p], lr=0.05)
        for g in grads:
            p.grad = g
            opt.step()
        want = adam_reference(start, grads, lr=0.05)
        assert np.allclose(p.data, want, rtol=0, atol=1e-15)

    def test_step_consumes_its_gradients(self):
        # a gradient on the first step only: later steps read zeros, and the
        # first moment keeps moving the parameter
        rng = np.random.default_rng(122)
        start, g0 = rng.standard_normal(3), rng.standard_normal(3)
        p = ad.Parameter(start.copy(), name="w")
        opt = Adam([p], lr=0.05)
        p.grad = g0
        for _ in range(3):
            opt.step()
            assert p.grad is None
        want = adam_reference(start, [g0, np.zeros(3), np.zeros(3)], lr=0.05)
        assert np.allclose(p.data, want, rtol=0, atol=1e-15)

    def test_first_step_size_is_about_lr(self):
        p = ad.Parameter(np.zeros(4), name="w")
        opt = Adam([p], lr=1e-3)
        p.grad = np.full(4, 2.5)
        opt.step()
        # bias correction makes m_hat/sqrt(v_hat) = sign(g) on step one
        assert np.allclose(p.data, -1e-3, rtol=1e-6)

    def test_lr_is_mutable_between_steps(self):
        rng = np.random.default_rng(121)
        start = rng.standard_normal(3)
        g1, g2 = rng.standard_normal(3), rng.standard_normal(3)

        p = ad.Parameter(start.copy(), name="w")
        opt = Adam([p], lr=0.1)
        p.grad = g1
        opt.step()
        opt.lr = 0.05
        p.grad = g2
        opt.step()

        q = np.array(start)
        m = np.zeros(3)
        v = np.zeros(3)
        for t, (g, lr) in enumerate([(g1, 0.1), (g2, 0.05)], start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            q = q - lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert np.allclose(p.data, q, rtol=0, atol=1e-15)

    def test_missing_grad_counts_as_zero(self):
        p = ad.Parameter(np.ones(2), name="w")
        opt = Adam([p], lr=0.1)
        opt.step()
        assert np.array_equal(p.data, np.ones(2))


class TestLrSchedule:
    def test_halves_exactly_at_milestones(self):
        assert lr_at(1e-4, (500,), 499) == 1e-4
        assert lr_at(1e-4, (500,), 500) == 5e-5
        assert lr_at(1e-4, (500,), 1000) == 5e-5

    def test_multiple_milestones_compound(self):
        assert lr_at(8.0, (2, 4, 6), 1) == 8.0
        assert lr_at(8.0, (2, 4, 6), 3) == 4.0
        assert lr_at(8.0, (2, 4, 6), 5) == 2.0
        assert lr_at(8.0, (2, 4, 6), 6) == 1.0

    def test_no_milestones(self):
        assert lr_at(1e-4, (), 10**6) == 1e-4


def _one_param_header(*extents, name=b"w"):
    """A version-1 checkpoint for one parameter with these extents, and no
    data."""
    return (b"HVGN" + struct.pack("<IQH", 1, 1, len(name)) + name
            + struct.pack(f"<B{len(extents)}Q", len(extents), *extents))


class TestStateAndCheckpoints:
    def test_state_round_trip(self):
        g1, _ = _tiny_nets(7)
        g2, _ = _tiny_nets(8)
        set_state(g2.params(), get_state(g1.params()))
        for a, b in zip(g1.params(), g2.params()):
            assert np.array_equal(a.data, b.data)

    def test_set_state_missing_name(self):
        g, _ = _tiny_nets()
        with pytest.raises(ValueError, match="missing parameter"):
            set_state(g.params(), {})

    def test_set_state_shape_mismatch(self):
        g, _ = _tiny_nets()
        state = get_state(g.params())
        state["g.conv1.w"] = np.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            set_state(g.params(), state)

    def test_checkpoint_round_trip_is_exact(self, tmp_path):
        g, d = _tiny_nets(9)
        path = tmp_path / "ck.hvgn"
        save_checkpoint(path, g.params() + d.params())
        state = load_checkpoint(path)
        for p in g.params() + d.params():
            assert np.array_equal(state[p.name], p.data)
            assert state[p.name].shape == p.data.shape

    def test_checkpoint_preserves_rank_zero_params(self, tmp_path):
        _, d = _tiny_nets(10)
        path = tmp_path / "ck.hvgn"
        save_checkpoint(path, d.params())
        assert load_checkpoint(path)["d.fc.b"].shape == ()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.hvgn"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        import struct

        path = tmp_path / "v9.hvgn"
        path.write_bytes(b"HVGN" + struct.pack("<I", 9) + struct.pack("<Q", 0))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        g, _ = _tiny_nets()
        path = tmp_path / "t.hvgn"
        save_checkpoint(path, g.params())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("blob, want", [
        (b"HVGN", "truncated checkpoint"),
        (b"HVGN\x01\x00\x00\x00", "truncated checkpoint"),
        (b"HVGN\x01\x00\x00\x00" + bytes(7), "truncated checkpoint"),
        (_one_param_header(2**40, 2**40), "truncated checkpoint"),
        # the product wraps to 1 in uint64, and 8 data bytes follow
        (_one_param_header(2**64 - 1, 2**64 - 1) + bytes(8), "truncated checkpoint"),
        (_one_param_header(0, 2**64 - 1), r"bad extents \(0, 18446744073709551615\)"),
        (_one_param_header(name=b"\xff") + bytes(8), "parameter name is not UTF-8"),
    ], ids=["magic_only", "8_bytes", "15_bytes", "extents_2^40x2^40",
            "extents_(2^64-1)^2", "zero_beside_2^64-1", "name_not_utf8"])
    def test_corrupt_header_error_names_the_file(self, tmp_path, blob, want):
        path = tmp_path / "c.hvgn"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {want}"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        g, _ = _tiny_nets()
        path = tmp_path / "t.hvgn"
        save_checkpoint(path, g.params())
        path.write_bytes(path.read_bytes() + bytes(24))
        want = f"{re.escape(str(path))}: 24 trailing bytes"
        with pytest.raises(ValueError, match=want):
            load_checkpoint(path)


class TestTrainConfig:
    def test_minimal_construction_uses_defaults(self):
        cfg = TrainConfig(dataset="d", output_dir="o")
        assert cfg.mode == "hv_log"
        assert cfg.adversarial == "relativistic"
        assert cfg.lr == 1e-4
        assert cfg.lr_milestones == (500,)

    def test_default_mu_tracks_adversarial_variant(self):
        rel = TrainConfig(dataset="d", output_dir="o", adversarial="relativistic")
        std = TrainConfig(dataset="d", output_dir="o", adversarial="standard")
        assert rel.resolved_mu == (20.0, 0.1, 10.0)
        assert std.resolved_mu == (200.0, 0.1, 10.0)
        over = TrainConfig(dataset="d", output_dir="o", mu=(1.0, 2.0, 3.0))
        assert over.resolved_mu == (1.0, 2.0, 3.0)

    def test_from_dict_rejects_unknown_keys_by_name(self):
        with pytest.raises(ValueError, match="unknown config key\\(s\\): foo"):
            TrainConfig.from_dict({"dataset": "d", "output_dir": "o", "foo": 1})

    def test_from_dict_requires_dataset_and_output(self):
        with pytest.raises(ValueError, match="missing required.*output_dir"):
            TrainConfig.from_dict({"dataset": "d"})

    def test_from_dict_coerces_lists(self):
        cfg = TrainConfig.from_dict(
            {"dataset": "d", "output_dir": "o",
             "mu": [1.0, 2.0, 3.0], "lr_milestones": [10, 20]}
        )
        assert cfg.mu == (1.0, 2.0, 3.0)
        assert cfg.lr_milestones == (10, 20)

    @pytest.mark.parametrize("bad", [
        {"mode": "geometric"},
        {"adversarial": "wasserstein"},
        {"norm_p": 3},
        {"lr": 0.0},
        {"eps": -1.0},
        {"batch_size": 0},
        {"pretrain_iters": -1},
        {"lr_milestones": (5, 5)},
        {"lr_milestones": (10, 5)},
        {"mu": (1.0, 2.0)},
        {"mu": (1.0, 2.0, -3.0)},
        {"feature_tap": "mid"},
        {"baseline_weights": (1.0, -1.0, 0.0)},
        # wrongly typed values, as a JSON config can carry them
        {"lr": "0.1"},
        {"eps": None},
        {"lr_milestones": 5},
        {"mu": 5},
        {"mu": ("a", 1.0, 2.0)},
        {"baseline_weights": None},
        {"eval_list": 5},
        {"dataset": 5},
        {"output_dir": None},
        # an empty path would be the working directory
        {"dataset": ""},
        {"output_dir": ""},
        {"eval_list": ["a.pgm", ""]},
        # JSON true/false are not integers
        {"batch_size": True},
        {"seed": False},
        {"norm_p": True},
        {"lr_milestones": (True,)},
        # JSON integers beyond float range
        {"lr": 10**400},
        {"mu": (10**400, 1.0, 1.0)},
        {"baseline_weights": (10**400, 0, 0)},
        # finite, but the clamp weight 1/eps overflows
        {"eps": 1e-320},
    ])
    def test_invalid_fields_rejected(self, bad):
        (key,) = bad
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{"dataset": "d", "output_dir": "o", **bad})


class TestPretrain:
    def test_zero_iterations_leaves_weights_untouched(self):
        g, _ = _tiny_nets(20)
        before = get_state(g.params())
        rows = pretrain_generator(g, _const_images(), _pretrain_config(iters=0))
        assert rows == []
        for name, arr in get_state(g.params()).items():
            assert np.array_equal(arr, before[name])

    def test_constant_target_loss_decreases(self):
        g, _ = _tiny_nets(21)
        rows = pretrain_generator(
            g, _const_images(), _pretrain_config(21, iters=200, lr=1e-2)
        )
        assert len(rows) == 200
        assert rows[-1][1] < rows[0][1]

    def test_seeded_determinism(self):
        finals = []
        for _ in range(2):
            g, _ = _tiny_nets(22)
            pretrain_generator(g, _const_images(), _pretrain_config(22, iters=10))
            finals.append(get_state(g.params()))
        for name in finals[0]:
            assert np.array_equal(finals[0][name], finals[1][name])

    def test_empty_dataset_rejected(self):
        g, _ = _tiny_nets()
        with pytest.raises(ValueError, match="empty dataset"):
            pretrain_generator(g, [], _pretrain_config())

    def test_pretrain_names_an_empty_dataset(self):
        with pytest.raises(ValueError, match="pretrain: empty dataset"):
            model.pretrain(_pretrain_config(), [])


class TestDiscriminatorStep:
    def test_loss_finite_and_nonnegative(self):
        g, d = _tiny_nets(30)
        lr_b, hr_b = _batch(30)
        opt = Adam(d.params(), 1e-4)
        _, fake = _taped_fake(g, lr_b)
        loss = train_step_discriminator(d, fake, hr_b, opt)
        assert math.isfinite(loss) and loss >= 0.0

    def test_generator_is_frozen(self):
        g, d = _tiny_nets(31)
        before = get_state(g.params())
        lr_b, hr_b = _batch(31)
        _, fake = _taped_fake(g, lr_b)
        train_step_discriminator(d, fake, hr_b, Adam(d.params(), 1e-3))
        assert fake.grad is None
        assert all(p.grad is None for p in g.params())
        for name, arr in get_state(g.params()).items():
            assert np.array_equal(arr, before[name])

    def test_identical_states_give_identical_updates(self):
        lr_b, hr_b = _batch(32)
        results = []
        for _ in range(2):
            g, d = _tiny_nets(32)
            _, fake = _taped_fake(g, lr_b)
            train_step_discriminator(d, fake, hr_b, Adam(d.params(), 1e-3))
            results.append(get_state(d.params()))
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])


class TestGeneratorStep:
    @staticmethod
    def _step(mode, seed=40, **over):
        g, d = _tiny_nets(seed)
        extractor = FeatureExtractor(1, [seed, 3])
        lr_b, hr_b = _batch(seed)
        opt = Adam(g.params(), 1e-3)
        cfg = _step_config(mode, **over)
        tape, fake = _taped_fake(g, lr_b)
        out = train_step_generator(d, tape, fake, hr_b, cfg, opt, extractor)
        return g, d, out

    def test_returned_weights_match_reciprocal_gaps(self):
        _, _, (losses, _, weights, _) = self._step("hv_log")
        want = 1.0 / np.maximum(np.array((20.0, 0.1, 10.0)) - losses, 1e-6)
        assert np.allclose(weights, want, rtol=0, atol=1e-10)

    def test_hv_modes_produce_identical_updates(self):
        states = []
        for kind in ("hv_log", "hv_log_norm"):
            g, _, _ = self._step(kind)
            states.append(get_state(g.params()))
        for name in states[0]:
            assert np.array_equal(states[0][name], states[1][name])

    def test_pure_adversarial_linear_mode(self):
        # weights (1,0,0) must reproduce the update of the lone gan loss
        g1, _, _ = self._step("linear", baseline_weights=(1.0, 0.0, 0.0), seed=41)

        g2, d2 = _tiny_nets(41)
        lr_b, hr_b = _batch(41)
        opt = Adam(g2.params(), 1e-3)
        with ad.Tape() as tape:
            fake = g2.forward(ad.Tensor(lr_b))
            loss = adv_loss_relativistic_g(
                d2.forward(ad.Tensor(hr_b)), d2.forward(fake)
            )
            tape.backward(loss)
        opt.step()

        s1, s2 = get_state(g1.params()), get_state(g2.params())
        for name in s1:
            assert np.array_equal(s1[name], s2[name])

    def test_discriminator_is_frozen(self):
        g, d = _tiny_nets(42)
        before = get_state(d.params())
        extractor = FeatureExtractor(1, [42, 3])
        lr_b, hr_b = _batch(42)
        tape, fake = _taped_fake(g, lr_b)
        train_step_generator(
            d, tape, fake, hr_b, _step_config(), Adam(g.params(), 1e-3), extractor
        )
        for name, arr in get_state(d.params()).items():
            assert np.array_equal(arr, before[name])

    def test_clamp_event_is_counted_and_weight_capped(self):
        # mu_pix below any reachable pixel loss forces a clamp on that entry
        _, _, (losses, _, weights, clamped) = self._step(
            "hv_log", mu=(20.0, 1e-9, 10.0), seed=43
        )
        assert losses[1] > 1e-9
        assert clamped >= 1
        assert weights[1] == pytest.approx(1e6, rel=1e-12)

    def test_update_gradient_is_weighted_sum_of_single_loss_gradients(self):
        seed = 44
        mu = (20.0, 0.1, 10.0)
        lr_b, hr_b = _batch(seed)
        extractor = FeatureExtractor(1, [seed, 3])

        def single_loss_grads(which):
            g, d = _tiny_nets(seed)
            with ad.Tape() as tape:
                fake = g.forward(ad.Tensor(lr_b))
                hr_t = ad.Tensor(hr_b)
                if which == 0:
                    loss = adv_loss_relativistic_g(
                        d.forward(hr_t), d.forward(fake)
                    )
                elif which == 1:
                    loss = pixel_loss(fake, hr_t, 1)
                else:
                    loss = feature_loss(fake, hr_t, extractor, 1)
                tape.backward(loss)
            return loss.item(), {
                p.name: (np.zeros_like(p.data) if p.grad is None else p.grad)
                for p in g.params()
            }

        parts = [single_loss_grads(k) for k in range(3)]
        losses = np.array([v for v, _ in parts])
        weights = 1.0 / np.maximum(np.array(mu) - losses, 1e-6)

        g, d = _tiny_nets(seed)
        with ad.Tape() as tape:
            fake = g.forward(ad.Tensor(lr_b))
            hr_t = ad.Tensor(hr_b)
            l_gan = adv_loss_relativistic_g(d.forward(hr_t), d.forward(fake))
            l_pix = pixel_loss(fake, hr_t, 1)
            l_fea = feature_loss(fake, hr_t, extractor, 1)
            total = ad.add(
                ad.add(
                    ad.mul(l_gan, weights[0]),
                    ad.mul(l_pix, weights[1]),
                ),
                ad.mul(l_fea, weights[2]),
            )
            tape.backward(total)

        for p in g.params():
            combo = sum(w * parts[k][1][p.name] for k, w in enumerate(weights))
            assert np.allclose(p.grad, combo, rtol=1e-8, atol=1e-12)


class TestNoDiscardedGradients:
    """Each step runs exactly the conv gradient kernels whose results it keeps.

    Tiny nets: G has 4 convs, D 2, the frozen extractor 3. A gradient w.r.t.
    a conv input is needed only when that input depends on a trained weight.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"grad_weight": 0, "grad_input": 0}
        for kind in counts:
            real = getattr(kernels, f"conv2d_{kind}")

            def counted(*args, _real=real, _kind=kind):
                counts[_kind] += 1
                return _real(*args)

            monkeypatch.setattr(kernels, f"conv2d_{kind}", counted)
        return counts

    @staticmethod
    def _g_step(g, d, lr_b, hr_b, seed=60):
        tape, fake = _taped_fake(g, lr_b)
        return train_step_generator(
            d, tape, fake, hr_b, _step_config(), Adam(g.params(), 1e-3),
            FeatureExtractor(1, [seed, 3]),
        )

    def test_pretrain_step(self, calls):
        g, _ = _tiny_nets(60)
        pretrain_generator(g, _const_images(), _pretrain_config())
        # every G conv weight; every G conv input but the constant LR batch
        assert calls == {"grad_weight": 4, "grad_input": 3}

    def test_discriminator_step(self, calls):
        g, d = _tiny_nets(61)
        lr_b, hr_b = _batch(61)
        _, fake = _taped_fake(g, lr_b)
        train_step_discriminator(d, fake, hr_b, Adam(d.params(), 1e-3))
        # D's 2 weights on the real and the detached fake branch; only conv2's
        # input (an activation of conv1) needs a gradient on each branch
        assert calls == {"grad_weight": 4, "grad_input": 2}

    def test_generator_step(self, calls):
        g, d = _tiny_nets(62)
        lr_b, hr_b = _batch(62)
        self._g_step(g, d, lr_b, hr_b, seed=62)
        # G's 4 weights; inputs: 3 in G, 2 in D(fake), 3 in the extractor on
        # fake. D(real), the extractor on real and every frozen weight: none.
        assert calls == {"grad_weight": 4, "grad_input": 8}
        assert all(p.requires_grad is True and p.grad is None for p in d.params())

    def test_discriminator_is_unfrozen_after_a_failed_step(self):
        g, d = _tiny_nets(63)
        lr_b, hr_b = _batch(63)
        hr_b[0, 0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            self._g_step(g, d, lr_b, hr_b, seed=63)
        assert all(p.requires_grad is True for p in d.params())


class TestAdversarialPhase:
    @staticmethod
    def _phase(mode="hv_log", iters=6, milestones=(4,), seed=50, mu=None, lr=1e-3):
        """The phase's row generator, not yet started."""
        images = make_corpus(seed=seed, count=2, size=24)
        cfg = TrainConfig(
            dataset="unused", output_dir="unused", seed=seed, mode=mode, mu=mu,
            pretrain_iters=0, adversarial_iters=iters, batch_size=2,
            patch_size=8, lr=lr, lr_milestones=milestones,
            gen_width=4, disc_width=4,
        )
        g, d = init_networks(seed, 1, cfg.gen_width, cfg.disc_width)
        return adversarial_phase(g, d, images, cfg)

    @classmethod
    def _run(cls, **kwargs):
        return list(cls._phase(**kwargs))

    def test_empty_dataset_rejected(self):
        g, d = _tiny_nets()
        with pytest.raises(ValueError, match="adversarial_phase: empty dataset"):
            next(adversarial_phase(g, d, [], _step_config()))

    @pytest.fixture
    def g_forwards(self, monkeypatch):
        """The input shape of every generator forward, in call order."""
        calls = []
        forward = model.GeneratorNet.forward

        def counted(g, x):
            calls.append(x.shape)
            return forward(g, x)

        monkeypatch.setattr(model.GeneratorNet, "forward", counted)
        return calls

    def test_one_generator_forward_per_iteration(self, g_forwards):
        self._run(iters=3)
        assert len(g_forwards) == 3

    def test_each_row_is_yielded_as_its_iteration_ends(self, g_forwards):
        phase = self._phase(iters=3)
        assert g_forwards == []
        row = next(phase)
        assert isinstance(row, model.HistoryRow)
        assert row.iter == 1
        assert len(g_forwards) == 1

    def test_a_diverging_iteration_raises_without_a_warning(self):
        # Adam steps of about 1e308 overflow D in the first iteration; the
        # tape names the op, and numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="non-finite"):
                self._run(iters=2, lr=1e308)

    def test_the_caller_keeps_its_warning_setting_between_rows(self):
        with np.errstate(over="warn", invalid="warn", divide="warn"):
            caller = np.geterr()
            assert [np.geterr() for _ in self._phase(iters=2)] == [caller] * 2

    def test_one_row_per_iteration(self):
        rows = self._run(iters=5)
        assert [r.iter for r in rows] == [1, 2, 3, 4, 5]

    def test_lr_column_halves_at_milestone(self):
        rows = self._run(iters=6, milestones=(4,))
        lrs = [r.lr for r in rows]
        assert lrs[:3] == [1e-3] * 3
        assert lrs[3:] == [5e-4] * 3

    def test_recorded_scalar_recomputes_from_recorded_losses(self):
        mu = (20.0, 0.1, 10.0)
        rows = self._run(mode="hv_log", iters=5, mu=mu)
        for row in rows:
            l = np.array([row.l_gan, row.l_pix, row.l_fea])
            want = float(-np.sum(np.log(np.maximum(np.array(mu) - l, 1e-6))))
            assert row.scalar == pytest.approx(want, rel=1e-12)

    def test_identical_runs_give_identical_rows(self):
        assert self._run(seed=51) == self._run(seed=51)

    def test_all_recorded_values_finite(self):
        for row in self._run(iters=8):
            assert all(math.isfinite(float(v)) for v in row)


class TestTrainEndToEnd:
    @staticmethod
    def _run(tmp_path, sub):
        corpus_dir = tmp_path / "corpus"
        if not corpus_dir.exists():
            write_corpus(corpus_dir, seed=0, count=2, size=24)
        cfg = TrainConfig(
            dataset=str(corpus_dir), output_dir=str(tmp_path / sub), seed=0,
            pretrain_iters=3, adversarial_iters=4, batch_size=2, patch_size=8,
            lr=1e-3, lr_milestones=(3,), gen_width=4, disc_width=4,
        )
        images = load_corpus(cfg.dataset)
        g, d, pre_rows = model.pretrain(cfg, images)
        history = list(adversarial_phase(g, d, images, cfg))
        ckpt = tmp_path / f"{sub}.hvgn"
        save_checkpoint(ckpt, g.params() + d.params())
        return pre_rows, history, ckpt.read_bytes()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        pre_a, hist_a, ck_a = self._run(tmp_path, "a")
        pre_b, hist_b, ck_b = self._run(tmp_path, "b")
        assert pre_a == pre_b
        assert hist_a == hist_b
        assert ck_a == ck_b


class TestLoadCorpus:
    def test_single_file(self, tmp_path):
        paths = write_corpus(tmp_path, count=1, size=16)
        imgs = load_corpus(paths[0])
        assert len(imgs) == 1

    def test_directory_is_sorted(self, tmp_path):
        write_corpus(tmp_path, count=3, size=16)
        imgs = load_corpus(tmp_path)
        assert len(imgs) == 3

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        with pytest.raises(ValueError, match="no .pgm/.ppm"):
            load_corpus(d)

    def test_mixed_channels_rejected(self, tmp_path):
        from hvgan.data_io import save_image

        save_image(ImageBuffer(np.zeros((1, 8, 8))), tmp_path / "a.pgm")
        save_image(ImageBuffer(np.zeros((3, 8, 8))), tmp_path / "b.ppm")
        with pytest.raises(ValueError, match="mixes channel counts"):
            load_corpus(tmp_path)
