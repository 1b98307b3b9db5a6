"""Golden reference: pinned outputs of a tiny training run and of ``hv --mc``.

The values below were recorded once and are compared against, not against a
rerun of the current code. A refactor that keeps them passes; one that moves
a training value past 1e-12 relative or changes one dominance count fails.
"""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from hvgan import cli, model
from hvgan.synth import write_corpus

REL = 1e-12

PRETRAIN_HEADER = ["iter", "l_pix"]
PRETRAIN_ROWS = [
    [1, 0.16782442470843423],
    [2, 0.19780598770941804],
    [3, 0.1334483061766263],
]

HISTORY_HEADER = [
    "iter", "l_gan", "l_pix", "l_fea", "scalar",
    "w_gan", "w_pix", "w_fea", "clamped", "lr",
]
HISTORY_ROWS = [
    [1, 1.383163705877228, 0.19196385881647, 0.045845488071704014,
     8.593454206654824, 0.05371481943555008, 1000000.0, 0.10046056636971795,
     1, 0.001],
    [2, 1.3948736305747036, 0.14111432235469432, 0.032218747605528376,
     8.592715387139702, 0.05374862713339848, 1000000.0, 0.10032322887902248,
     1, 0.001],
    [3, 1.3729552116474202, 0.15517777386576237, 0.037433193817757233,
     8.592061262572045, 0.053685381195051195, 1000000.0, 0.1003757384471894,
     1, 0.0005],
    [4, 1.390938655453493, 0.19567094782402894, 0.046866317858526546,
     8.59397448229662, 0.0537372617288435, 1000000.0, 0.10047086997276664,
     1, 0.0005],
]

# Per-parameter L2 norm of checkpoint.hvgn, in file order.
CHECKPOINT_NORMS = [
    ("g.conv1.w", 1.5493406621199233),
    ("g.conv1.b", 0.004062732832619477),
    ("g.conv2.w", 2.0184879302783147),
    ("g.conv2.b", 0.003342325964559363),
    ("g.conv3.w", 2.1588376174555823),
    ("g.conv3.b", 0.005349482909820713),
    ("g.conv4.w", 0.9140763401180513),
    ("g.conv4.b", 0.0002669353042396873),
    ("d.conv1.w", 1.7080213275779408),
    ("d.conv1.b", 0.0057509243886417856),
    ("d.conv2.w", 2.821088956235484),
    ("d.conv2.b", 0.008224198822202416),
    ("d.fc.w", 0.9815065114218674),
    ("d.fc.b", 0.002996237792675491),
]

POINTS_3D = (
    "0.1,0.6,0.7\n0.3,0.3,0.5\n0.6,0.1,0.4\n"
    "0.2,0.5,0.2\n0.7,0.4,0.1\n0.5,0.2,0.6\n"
)
POINTS_6D = (
    "0.13,0.26,0.77,0.57,0.13,0.44\n"
    "0.48,0.19,0.71,0.15,0.4,0.52\n"
    "0.44,0.58,0.71,0.91,0.31,0.63\n"
    "0.68,0.31,0.05,0.93,0.32,0.33\n"
    "0.85,0.58,0.47,0.75,0.08,0.69\n"
    "0.39,0.13,0.64,0.89,0.24,0.62\n"
    "0.32,0.72,0.7,0.25,0.8,0.64\n"
    "0.66,0.79,0.44,0.73,0.84,0.14\n"
)
POINTS = {3: POINTS_3D, 6: POINTS_6D}
HV_STDOUT = {
    3: "0.48600000000\n0.485951400000 0.00243012147266\n",
    6: "0.0587967646700\n0.0583921483834 0.00111417157695\n",
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """The test_determinism tiny config, trained once."""
    root = tmp_path_factory.mktemp("golden")
    corpus = root / "corpus"
    write_corpus(corpus, seed=0, count=2, size=24)
    cfg = {
        "dataset": str(corpus), "output_dir": str(root / "run"),
        "seed": 0, "pretrain_iters": 3, "adversarial_iters": 4,
        "batch_size": 2, "patch_size": 8, "lr": 1e-3,
        "lr_milestones": [3], "gen_width": 4, "disc_width": 4,
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    return root / "run"


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


@pytest.mark.parametrize(
    "name, header, rows",
    [
        ("pretrain.csv", PRETRAIN_HEADER, PRETRAIN_ROWS),
        ("history.csv", HISTORY_HEADER, HISTORY_ROWS),
    ],
    ids=["pretrain", "history"],
)
def test_training_csv_matches_pinned_values(tiny_run, name, header, rows):
    got_header, got_rows = _read_csv(tiny_run / name)
    assert got_header == header
    assert len(got_rows) == len(rows)
    for got, want in zip(got_rows, rows):
        assert got == pytest.approx(want, rel=REL, abs=0)


def test_checkpoint_norms_match_pinned_values(tiny_run):
    state = model.load_checkpoint(tiny_run / "checkpoint.hvgn")
    assert list(state) == [name for name, _ in CHECKPOINT_NORMS]
    for name, want in CHECKPOINT_NORMS:
        got = float(np.linalg.norm(state[name]))
        assert got == pytest.approx(want, rel=REL, abs=0), name


@pytest.mark.parametrize("dim", [3, 6])
def test_hv_mc_stdout_is_pinned(tmp_path, dim):
    pts = tmp_path / f"p{dim}.csv"
    pts.write_text(POINTS[dim])
    ref = ",".join(["1"] * dim)
    proc = subprocess.run(
        [sys.executable, "-m", "hvgan", "hv", str(pts), "--ref", ref,
         "--mc", "20000", "--seed", "7"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == HV_STDOUT[dim]
