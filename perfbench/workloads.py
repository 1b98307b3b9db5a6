"""The benchmark's workloads: inputs made from a seed, the ``hvgan`` commands
one operation runs, and the checks on what those commands write.

Every workload is a closed loop with one caller: one operation at a time, in
one process.  The program sees only the files made here (corpus, configs,
point CSVs); the benchmark seed itself never reaches it.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# inputs of the stored reference (reference.json) are made from this seed
REFERENCE_SEED = 0

# relative tolerance against reference.json.  Reassociating the conv sums
# (einsum in place of the BLAS matmul) moved the stored values by at most
# 4e-16; leaving the kernel unflipped in conv2d_grad_input moved them by up
# to 0.25 (pretrain) and 0.006 (compare).
REFERENCE_RTOL = 1e-8

CORPUS_COUNT = 8
CORPUS_SIZE = 64
PRETRAIN_ITERS = 20
COMPARE_PRETRAIN_ITERS = 2
COMPARE_ADVERSARIAL_ITERS = 2
COMPARE_EVAL_IMAGES = 4
HV_POINTS = 32
MC_SAMPLES = 200_000
MC_SEED = 0
COMPARE_MODES = ("linear", "hv_log", "hv_log_norm")


class CheckFailed(Exception):
    """An output of an operation is missing or wrong."""


def _write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _corpus(work: Path, seed: int) -> list[str]:
    from hvgan.synth import write_corpus

    return write_corpus(work / "data", seed, CORPUS_COUNT, CORPUS_SIZE)


def _sha(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as e:
        raise CheckFailed(f"missing output {path}: {e}") from None


def _csv_floats(path: Path) -> list[list[float]]:
    """Rows of a CSV with a header, every field but the first as a float;
    raises CheckFailed on any non-finite loss or weight."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
    except OSError as e:
        raise CheckFailed(f"missing output {path}: {e}") from None
    rows = [[float(v) for v in line.split(",")[1:]] for line in lines]
    for i, row in enumerate(rows, start=1):
        if not all(math.isfinite(v) for v in row):
            raise CheckFailed(f"{path}: row {i} is not finite: {row}")
    return rows


def _checkpoint_summary(path: Path) -> dict:
    from hvgan.model import load_checkpoint

    state = load_checkpoint(path)
    return {k: [float(np.abs(v).sum()), float(np.sqrt((v * v).sum()))] for k, v in state.items()}


# ---------------------------------------------------------------------------
# pretrain: pixel-loss warmup only (adversarial_iters 0)
# ---------------------------------------------------------------------------

def _make_pretrain(work: Path, seed: int) -> dict:
    data = _corpus(work, seed)
    base = {"dataset": str(Path(data[0]).parent), "seed": 0, "adversarial_iters": 0}
    run = _write_config(work / "pretrain.json", {
        **base, "output_dir": str(work / "run"), "pretrain_iters": PRETRAIN_ITERS,
    })
    setup = _write_config(work / "setup.json", {
        **base, "output_dir": str(work / "setup"), "pretrain_iters": 0,
    })
    return {
        "out": str(work / "run"),
        "op": [["train", "--config", run]],
        "setup": [["train", "--config", setup]],
    }


def _check_pretrain(spec: dict, stdouts: list[str]) -> tuple[dict, dict]:
    out = Path(spec["out"])
    names = ("pretrain.csv", "history.csv", "checkpoint.hvgn")
    fingerprint = {n: _sha(out / n) for n in names}
    losses = [r[0] for r in _csv_floats(out / "pretrain.csv")]
    if len(losses) != PRETRAIN_ITERS or _csv_floats(out / "history.csv"):
        raise CheckFailed(f"expected {PRETRAIN_ITERS} pretrain rows and no history rows")
    values = {"pretrain_loss": losses, "weights": _checkpoint_summary(out / "checkpoint.hvgn")}
    return fingerprint, values


# ---------------------------------------------------------------------------
# compare: short pretraining, three adversarial runs, whole-image evaluation
# ---------------------------------------------------------------------------

def _make_compare(work: Path, seed: int) -> dict:
    data = _corpus(work, seed)
    base = {"dataset": str(Path(data[0]).parent), "seed": 0,
            "eval_list": data[:COMPARE_EVAL_IMAGES]}
    run = _write_config(work / "compare.json", {
        **base, "output_dir": str(work / "run"),
        "pretrain_iters": COMPARE_PRETRAIN_ITERS,
        "adversarial_iters": COMPARE_ADVERSARIAL_ITERS,
    })
    setup = _write_config(work / "setup.json", {
        **base, "output_dir": str(work / "setup"),
        "pretrain_iters": 0, "adversarial_iters": 0,
    })
    return {
        "out": str(work / "run"),
        "op": [["compare", "--config", run]],
        "setup": [["compare", "--config", setup]],
    }


def _check_compare(spec: dict, stdouts: list[str]) -> tuple[dict, dict]:
    out = Path(spec["out"])
    names = ["pretrain.csv", "pretrained.hvgn", "results.csv"]
    names += [f"{m}/history.csv" for m in COMPARE_MODES]
    fingerprint = {n: _sha(out / n) for n in names}
    values = {"pretrain_loss": [r[0] for r in _csv_floats(out / "pretrain.csv")]}
    for m in COMPARE_MODES:
        rows = _csv_floats(out / m / "history.csv")
        if len(rows) != COMPARE_ADVERSARIAL_ITERS:
            raise CheckFailed(f"{m}/history.csv has {len(rows)} rows")
        values[f"history_{m}"] = rows
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
    results = {line.split(",", 1)[0]: line.split(",", 1)[1] for line in lines}
    if sorted(results) != sorted(COMPARE_MODES):
        raise CheckFailed(f"results.csv modes are {sorted(results)}")
    if results["hv_log"] != results["hv_log_norm"]:
        raise CheckFailed("hv_log and hv_log_norm rows of results.csv differ")
    for m, row in results.items():
        nums = [float(v) for v in row.split(",")]
        if not all(math.isfinite(v) for v in nums):
            raise CheckFailed(f"results.csv row {m} is not finite")
        values[f"results_{m}"] = nums
    return fingerprint, values


# ---------------------------------------------------------------------------
# hv: exact and Monte-Carlo hypervolume, Pareto filtering
# ---------------------------------------------------------------------------

def _base_points(dim: int) -> np.ndarray:
    """The fixed point structure of one hv input.

    3 objectives: 32 points on the unit sphere's positive orthant (mutually
    nondominated).  6 objectives: 32 uniform points, of which 25 are
    nondominated (the exact algorithm takes at most 32).  The stream
    is fixed; it was picked for an exact 6-d cost near 0.7 s on a 2-CPU x86
    sandbox, so one operation stays near 1.5 s.
    """
    rng = np.random.default_rng([dim, HV_POINTS, 7])
    if dim == 3:
        g = np.abs(rng.standard_normal((HV_POINTS, dim)))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    return rng.uniform(size=(HV_POINTS, dim))


def _seeded_points(dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seed-varied values with the base structure kept.

    Each objective goes through its own strictly increasing map and the rows
    are shuffled.  That keeps every dominance relation and every per-objective
    order, so the exact recursion does the same work for every seed (with a
    fresh random structure its time swings by 15-25% per 6-d set).
    """
    rng = np.random.default_rng([seed, dim])
    base = _base_points(dim)
    scale = rng.uniform(0.5, 2.0, size=dim)
    power = rng.uniform(0.7, 1.4, size=dim)
    shift = rng.uniform(0.0, 1.0, size=dim)
    pts = shift + scale * base**power
    pts = pts[rng.permutation(len(pts))]
    ref = pts.max(axis=0) + 0.1 * (pts.max(axis=0) - pts.min(axis=0))
    return pts, ref


def _nondominated(pts: np.ndarray) -> list[tuple]:
    """Oracle for ``hvgan pareto``: rows no other row dominates, in order."""
    rows = [tuple(map(float, p)) for p in pts]
    return [
        a for a in rows
        if not any(all(x <= y for x, y in zip(b, a)) and b != a for b in rows)
    ]


def _csv_row(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write_points(path: Path, pts) -> str:
    path.write_text("\n".join(_csv_row(p) for p in pts) + "\n", encoding="utf-8")
    return str(path)


def _make_hv(work: Path, seed: int) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    op = []
    for dim in (3, 6):
        pts, ref = _seeded_points(dim, seed)
        path = _write_points(work / f"points{dim}.csv", pts)
        op.append(["hv", path, "--ref", _csv_row(ref), "--mc", str(MC_SAMPLES),
                   "--seed", str(MC_SEED)])
    op.append(["pareto", path])
    one = _write_points(work / "one_point.csv", pts[:1])
    return {
        "out": str(work),
        "op": op,
        "setup": [["hv", one, "--ref", _csv_row(ref)]],
        "pareto": [list(r) for r in _nondominated(pts)],
    }


def _check_hv(spec: dict, stdouts: list[str]) -> tuple[dict, dict]:
    fingerprint = {f"stdout{i}": hashlib.sha256(s.encode()).hexdigest()
                   for i, s in enumerate(stdouts)}
    values = {}
    for dim, text in zip((3, 6), (stdouts[0], stdouts[1])):
        fields = text.split()
        if len(fields) != 3:
            raise CheckFailed(f"hv {dim}-d printed {text!r}")
        exact, est, stderr = map(float, fields)
        if not (stderr > 0 and abs(exact - est) <= 4.0 * stderr):
            raise CheckFailed(
                f"hv {dim}-d: exact {exact} is not within 4 stderr of MC {est} +- {stderr}"
            )
        values[f"hv{dim}"] = [exact, est, stderr]
    printed = [[float(v) for v in line.split(",")] for line in stdouts[2].splitlines()]
    if printed != spec["pareto"]:
        raise CheckFailed(
            f"pareto printed {len(printed)} rows, expected the {len(spec['pareto'])} "
            "nondominated rows in input order"
        )
    return fingerprint, values


WORKLOADS = {
    "pretrain": (_make_pretrain, _check_pretrain),
    "compare": (_make_compare, _check_compare),
    "hv": (_make_hv, _check_hv),
}


def make(workload: str, work: Path, seed: int) -> dict:
    """Write the inputs of one workload under ``work``; return its spec."""
    return WORKLOADS[workload][0](Path(work), seed)


def check(workload: str, spec: dict, stdouts: list[str]) -> tuple[dict, dict]:
    """(fingerprint of the outputs, values compared with the reference);
    raises CheckFailed when an output is missing or wrong."""
    return WORKLOADS[workload][1](spec, stdouts)


def compare_to_reference(values, reference, rtol: float = REFERENCE_RTOL, where="") -> list[str]:
    """Differences between measured values and the stored reference."""
    if isinstance(reference, dict):
        if not isinstance(values, dict) or sorted(values) != sorted(reference):
            return [f"{where}: keys differ from the reference"]
        return [d for k in reference
                for d in compare_to_reference(values[k], reference[k], rtol, f"{where}.{k}")]
    if isinstance(reference, list):
        if not isinstance(values, list) or len(values) != len(reference):
            return [f"{where}: length differs from the reference"]
        return [d for i, (v, r) in enumerate(zip(values, reference))
                for d in compare_to_reference(v, r, rtol, f"{where}[{i}]")]
    if abs(values - reference) > rtol * max(abs(values), abs(reference)) + 1e-300:
        return [f"{where}: {values!r} differs from reference {reference!r}"]
    return []
