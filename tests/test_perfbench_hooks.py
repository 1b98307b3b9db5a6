"""The benchmark's tracer still finds what it wraps.

``perfbench/tracer.py`` patches hvgan functions where their callers look them
up and reads step arguments by name (``g``, ``opt``). A rename or a signature
change there would not fail any other test; it would only break
``perfbench/run.py --trace 1``. These tests trace one tiny ``compare`` run
and one tiny ``train`` run (the path of the ``pretrain`` workload) and check
the step counts and the useful-gradient fractions the tracer reports.
"""

import json
import sys
from pathlib import Path

import numpy as np

from hvgan import autodiff, cli, kernels, losses, model
from hvgan.data_io import ImageBuffer, save_image
from hvgan.synth import write_corpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ADVERSARIAL_ITERS = 2


def _tracer_module():
    """Import perfbench/tracer.py without writing bytecode next to it."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return tracer


def test_traced_compare_counts_every_step_and_wastes_no_gradient(tmp_path):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, seed=0, count=2, size=24)
    eval_img = tmp_path / "eval.pgm"
    save_image(ImageBuffer(np.full((1, 16, 16), 0.5)), eval_img)
    cfg = {
        "dataset": str(corpus), "output_dir": str(tmp_path / "out"), "seed": 0,
        "pretrain_iters": 2, "adversarial_iters": ADVERSARIAL_ITERS,
        "batch_size": 2, "patch_size": 8, "lr": 1e-3, "lr_milestones": [2],
        "gen_width": 4, "disc_width": 4, "eval_list": [str(eval_img)],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    tracer = _tracer_module().Tracer({
        "cli": cli, "model": model, "kernels": kernels,
        "autodiff": autodiff, "losses": losses,
    })
    tracer.install()
    try:
        assert cli.main(["compare", "--config", str(cfg_path)]) == 0
    finally:
        tracer.uninstall()
    tracer.end_rep(0.0)
    metrics = tracer.metrics(0.0)

    # compare trains linear and hv_log; hv_log_norm shares hv_log's
    # trajectory and is not trained again
    steps = 2 * ADVERSARIAL_ITERS
    assert metrics["model.train_step_generator.n"] == steps
    assert metrics["model.train_step_discriminator.n"] == steps
    assert metrics["autodiff.grad_weight_useful_frac"] == 1.0
    assert metrics["autodiff.grad_input_useful_frac"] == 1.0


def test_traced_train_counts_every_step_and_saves_through_model(tmp_path):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, seed=0, count=2, size=24)
    cfg = {
        "dataset": str(corpus), "output_dir": str(tmp_path / "out"), "seed": 0,
        "pretrain_iters": 2, "adversarial_iters": ADVERSARIAL_ITERS,
        "batch_size": 2, "patch_size": 8, "lr": 1e-3, "lr_milestones": [2],
        "gen_width": 4, "disc_width": 4,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    tracer = _tracer_module().Tracer({
        "cli": cli, "model": model, "kernels": kernels,
        "autodiff": autodiff, "losses": losses,
    })
    tracer.install()
    try:
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
    finally:
        tracer.uninstall()
    tracer.end_rep(0.0)
    metrics = tracer.metrics(0.0)

    # G's four convs need weight gradients, and every conv but the first
    # passes one back to its input
    assert metrics["autodiff.pretrain_step.grad_weight_calls"] == 4
    assert metrics["autodiff.pretrain_step.grad_input_calls"] == 3
    assert metrics["model.train_step_generator.n"] == ADVERSARIAL_ITERS
    assert metrics["autodiff.grad_weight_useful_frac"] == 1.0
    assert metrics["autodiff.grad_input_useful_frac"] == 1.0
    # the checkpoint is written through model.save_checkpoint, where the
    # tracer looks it up
    assert metrics["model.checkpoint.self_ms"] > 0
    # patch sampling goes through model.random_patch_pair and
    # model.augment_with_rng, which the tracer times as model.batch
    assert metrics["model.batch.self_ms"] > 0
