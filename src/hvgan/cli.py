"""Command-line surface: MOO utilities, training, evaluation, comparison.

Exit codes: 0 success, 1 validation or precondition failure or a request for
more memory than the machine has, 2 I/O failure or a usage error (argparse
prints a usage line and an error line for a missing subcommand, a missing
flag, or a malformed flag value such as ``--mc abc``), 141 (128 + SIGPIPE, the
status a shell gives a writer that the pipe signal ended) when the reader of
stdout closed it early, as in ``hvgan pareto front.csv | head -1``; that case
prints nothing on stderr. 130 (128 + SIGINT) when the command was interrupted,
as by Ctrl-C; that case prints one line on stderr.
The training code (``model``, ``autodiff``, ``losses``, ``scalarize``) is
imported by the commands that run it: ``train`` and ``compare`` load it all,
``gradcheck`` loads ``autodiff``. ``hv``, ``pareto``, ``eval`` and ``synth``
start without it.
Every command is deterministic given its inputs; wall-clock timestamps appear
only inside run manifests.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .data_io import (
    SCALE,
    ImageBuffer,
    bicubic_downscale,
    check_patch,
    load_image,
    parse_number,
    read_points_csv,
    write_atomic,
)
from .metrics import SSIM_WINDOW, gmsd, psnr, ssim
from .moo import Orientation, PointSet, hypervolume_exact, hypervolume_mc, pareto_filter
from .synth import write_corpus

if TYPE_CHECKING:
    from . import model

GRADCHECK_GATE = 1e-4

EXIT_BROKEN_PIPE = 141
EXIT_INTERRUPTED = 130

_ORIENTATIONS = {"min": Orientation.MINIMIZE, "max": Orientation.MAXIMIZE}

COMPARE_MODES = ("linear", "hv_log", "hv_log_norm")

PRETRAIN_HEADER = "iter,l_pix"
RESULTS_HEADER = "mode,psnr,ssim,gmsd,clamp_events"


def _fmt12(v: float) -> str:
    """12 significant digits; exact zero prints as plain 0."""
    if v == 0.0:
        return "0"
    return np.format_float_positional(v, precision=12, unique=False, fractional=False)


def _fmt_point(v: float) -> str:
    """The shortest text that reads back as ``v``, without a trailing ".0":
    3, 1.5, -0, 1e+16."""
    text = repr(float(v))
    return text[:-2] if text.endswith(".0") else text


def _utc_now() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def _read_config(path) -> tuple[model.TrainConfig, str]:
    """The parsed config and its raw text, which the manifest keeps verbatim
    without a leading UTF-8 byte-order mark. Text that is not UTF-8, not
    JSON, or nested too deep for the parser is rejected by path."""
    import json

    from . import model

    try:
        raw_text = Path(path).read_text(encoding="utf-8-sig")
        raw = json.loads(raw_text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"{path}: {e}") from None
    return model.TrainConfig.from_dict(raw), raw_text


def _write_csv(path: Path, header: str, rows) -> list:
    """Atomically write ``header``, then one line per row, each line flushed
    as ``rows`` yields its row, and return the rows written. Integers (Python
    or numpy) and strings print through ``str``, every other value as
    ``repr(float(v))``, the shortest text that reads back to the same double."""
    written = []

    def lines():
        yield header
        for row in rows:
            written.append(row)
            yield ",".join(
                str(v) if isinstance(v, (int, np.integer, str)) else repr(float(v))
                for v in row
            )

    write_atomic(path, (f"{line}\n".encode("utf-8") for line in lines()))
    return written


def _write_manifest(
    out: Path, config: model.TrainConfig, raw_text: str, started: str, tail: dict
) -> None:
    """Atomically write ``out/manifest.json``: the common run keys, then the
    command's own keys in ``tail`` (which ends with ``outputs``)."""
    import json

    payload = {
        "artifact_version": __version__,
        "seed": config.seed,
        "started_at": started,
        "finished_at": _utc_now(),
        "config": raw_text,
        **tail,
    }
    write_atomic(
        out / "manifest.json", [(json.dumps(payload, indent=2) + "\n").encode("utf-8")]
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _parse_ref(text: str) -> list[float]:
    """``--ref``'s comma-separated coordinates; an error names the field."""
    ref = []
    for pos, tok in enumerate(text.split(","), start=1):
        try:
            ref.append(parse_number(tok))
        except ValueError:
            raise ValueError(
                f"--ref: field {pos}: non-numeric value {tok.strip()!r}"
            ) from None
    return ref


def cmd_hv(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed: must be a non-negative integer, got {args.seed}")
    points = PointSet(read_points_csv(args.points), _ORIENTATIONS[args.orient])
    ref = _parse_ref(args.ref)
    # Both results are computed before either prints, so a failing
    # command leaves nothing on stdout.
    lines = [_fmt12(hypervolume_exact(points, ref))]
    if args.mc is not None:
        est, stderr = hypervolume_mc(points, ref, args.mc, args.seed)
        lines.append(f"{_fmt12(est)} {_fmt12(stderr)}")
    print("\n".join(lines))
    return 0


def cmd_pareto(args) -> int:
    points = PointSet(read_points_csv(args.points), _ORIENTATIONS[args.orient])
    for row in pareto_filter(points).values.tolist():
        print(",".join(_fmt_point(v) for v in row))
    return 0


def cmd_eval(args) -> int:
    ref = load_image(args.ref)
    test = load_image(args.test)
    if ref.data.shape != test.data.shape:
        raise ValueError(
            f"shape mismatch: {args.ref} is {ref.data.shape}, "
            f"{args.test} is {test.data.shape}"
        )
    report_psnr = psnr(ref.data, test.data, peak=args.peak)
    report_ssim = ssim(ref.data, test.data)
    report_gmsd = gmsd(ref.data, test.data)
    psnr_field = "inf" if np.isinf(report_psnr) else f"{report_psnr:.6f}"
    print(f"{psnr_field},{report_ssim:.6f},{report_gmsd:.6f}")
    return 0


def _load_corpus(config: model.TrainConfig) -> list[ImageBuffer]:
    """The training corpus; a ``patch_size`` that is not a multiple of 4 or
    does not fit in one of its images fails here, before any output is
    written."""
    from . import model

    images = model.load_corpus(config.dataset)
    for img in images:
        check_patch(img, config.patch_size)
    return images


@contextlib.contextmanager
def _output_dir(out: Path):
    """Make ``out`` for a run. If the run fails and this call made ``out``,
    remove it while it is still empty; parent directories stay."""
    made = not out.is_dir()
    out.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        if made:
            # rmdir removes only an empty directory
            with contextlib.suppress(OSError):
                out.rmdir()
        raise


def _write_history(out_dir: Path, rows) -> list:
    """Stream ``rows`` (``model.HistoryRow``s) into ``out_dir/history.csv``
    and return them; a failure removes ``out_dir`` if this call made it."""
    from . import model

    with _output_dir(out_dir):
        header = ",".join(model.HistoryRow._fields)
        return _write_csv(out_dir / "history.csv", header, rows)


def cmd_train(args) -> int:
    from . import model

    config, raw_text = _read_config(args.config)
    started = _utc_now()
    images = _load_corpus(config)
    out = Path(config.output_dir)
    with _output_dir(out):
        g, d, pre_rows = model.pretrain(config, images)
        # written before the adversarial phase, so a failure there keeps it
        pretrain_path = out / "pretrain.csv"
        _write_csv(pretrain_path, PRETRAIN_HEADER, pre_rows)

        history_path = out / "history.csv"
        checkpoint_path = out / "checkpoint.hvgn"
        _write_history(out, model.adversarial_phase(g, d, images, config))
        model.save_checkpoint(checkpoint_path, g.params() + d.params())
        outputs = [str(pretrain_path), str(history_path), str(checkpoint_path)]
        _write_manifest(out, config, raw_text, started, {"outputs": outputs})
        print(f"wrote {history_path}")
        return 0


def _load_eval_pairs(paths, channels: int) -> list[tuple[ImageBuffer, ImageBuffer]]:
    """(original, x4 bicubic downscale) of every eval image, each loaded and
    downscaled once; an image whose channel count differs from the corpus's,
    that is smaller than SSIM's window, or whose sides are not multiples of
    4, is rejected by name."""
    pairs = []
    for path in paths:
        img = load_image(path)
        if img.channels != channels:
            raise ValueError(
                f"eval image {path} has {img.channels} channel(s), "
                f"the corpus has {channels}"
            )
        if min(img.height, img.width) < SSIM_WINDOW:
            raise ValueError(
                f"eval image {path} is {img.height}x{img.width}, smaller than "
                f"the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
            )
        if img.height % SCALE or img.width % SCALE:
            raise ValueError(
                f"eval image {path} is {img.height}x{img.width}, not divisible "
                f"by {SCALE} for the x{SCALE} downscale"
            )
        pairs.append((img, bicubic_downscale(img)))
    return pairs


def _evaluate_generator(g: model.GeneratorNet, eval_pairs) -> tuple[float, float, float]:
    """Average metrics of x4 SR reconstructions against the originals."""
    from . import model

    psnrs, ssims, gmsds = [], [], []
    for img, lr in eval_pairs:
        sr = model.apply_generator(g, lr)
        psnrs.append(psnr(sr.data, img.data))
        ssims.append(ssim(sr.data, img.data))
        gmsds.append(gmsd(sr.data, img.data))
    return float(np.mean(psnrs)), float(np.mean(ssims)), float(np.mean(gmsds))


def cmd_compare(args) -> int:
    import hashlib

    from . import model
    from .scalarize import scalarize

    config, raw_text = _read_config(args.config)
    if not config.eval_list:
        raise ValueError("compare requires a nonempty eval_list in the config")
    started = _utc_now()
    images = _load_corpus(config)
    eval_pairs = _load_eval_pairs(config.eval_list, images[0].channels)
    out = Path(config.output_dir)
    with _output_dir(out):
        g, d, pre_rows = model.pretrain(config, images)

        params = g.params() + d.params()
        shared_ckpt = out / "pretrained.hvgn"
        model.save_checkpoint(shared_ckpt, params)
        ckpt_sha = hashlib.sha256(shared_ckpt.read_bytes()).hexdigest()
        print(f"pretrained checkpoint sha256 {ckpt_sha}")
        _write_csv(out / "pretrain.csv", PRETRAIN_HEADER, pre_rows)
        pretrained = model.get_state(params)

        outputs = [str(shared_ckpt), str(out / "pretrain.csv")]
        rows = []
        for mode_name in ("linear", "hv_log"):
            # every trained mode starts from the pretrained weights
            model.set_state(params, pretrained)
            history = _write_history(out / mode_name, model.adversarial_phase(
                g, d, images, dataclasses.replace(config, mode=mode_name)
            ))
            clamp_events = sum(r.clamped for r in history)
            rows.append((mode_name, *_evaluate_generator(g, eval_pairs), clamp_events))
        # hv_log_norm differs from hv_log by the constant sum_k log(mu_k), so
        # both take the gradient weights 1/max(mu_k - l_k, eps) and train the
        # same trajectory: reuse hv_log's rows and results, with the scalar
        # recomputed by the call model.train_step_generator makes in this mode
        mu, eps = config.resolved_mu, config.eps
        _write_history(out / "hv_log_norm", (
            r._replace(scalar=scalarize(
                np.array([r.l_gan, r.l_pix, r.l_fea]), "hv_log_norm", mu, eps
            ))
            for r in history
        ))
        outputs += [str(out / m / "history.csv") for m in COMPARE_MODES]
        rows.append(("hv_log_norm", *rows[-1][1:]))

        results_path = out / "results.csv"
        _write_csv(results_path, RESULTS_HEADER, rows)
        outputs.append(str(results_path))

        _write_manifest(
            out, config, raw_text, started,
            {"pretrained_checkpoint_sha256": ckpt_sha, "outputs": outputs},
        )
        print(f"wrote {results_path}")
        return 0


def cmd_gradcheck(args) -> int:
    from .autodiff import gradcheck_suite

    results = gradcheck_suite()
    failures = []
    for name, err in results:
        print(f"{name} {err:.3g}")
        if err > GRADCHECK_GATE:
            failures.append(name)
    if failures:
        print(f"failed primitives: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed: must be a non-negative integer, got {args.seed}")
    paths = write_corpus(args.out, args.seed, args.count, args.size)
    print(f"wrote {len(paths)} images to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvgan",
        description=(
            "Hypervolume-scalarized GAN training at desk scale, plus Pareto "
            "and hypervolume utilities."
        ),
    )
    parser.add_argument("--version", action="version", version=f"hvgan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hv", help="exact (and optional Monte-Carlo) hypervolume")
    p.add_argument("points", help="headerless CSV, one objective vector per line")
    p.add_argument("--ref", required=True, help="reference point, e.g. '3,3'")
    p.add_argument("--orient", choices=("min", "max"), default="min")
    p.add_argument("--mc", type=int, default=None, help="Monte-Carlo sample count")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_hv)

    p = sub.add_parser("pareto", help="print the nondominated subset")
    p.add_argument("points")
    p.add_argument("--orient", choices=("min", "max"), default="min")
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("train", help="run the two-phase training loop")
    p.add_argument("--config", required=True, help="JSON config path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="PSNR/SSIM/GMSD of test against reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--peak", type=float, default=1.0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "compare", help="train baseline + both hypervolume modes from one checkpoint"
    )
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference check of every primitive")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="write the seeded synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--size", type=int, default=64)
    p.set_defaults(func=cmd_synth)

    return parser


def _attach_negative_ref(argv: list[str]) -> list[str]:
    """argparse reads a token that starts with '-' as an option unless it is
    one plain negative number, so ``--ref -1,-1`` or ``--ref -inf,0`` would
    lose its value. Join any value led by a single '-' to its flag, giving
    ``--ref=-1,-1``, so both forms read and fail alike."""
    out = []
    for tok in argv:
        if out and out[-1] == "--ref" and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"--ref={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_negative_ref(argv))
    try:
        code = args.func(args)
        # flushed here, so that a reader that left is seen below and not in
        # the flush at shutdown
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout goes to devnull, so the flush at shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (ValueError, FloatingPointError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
