"""Seeded byte-mutation fuzz of every file reader, through ``cli.main``.

Each input is a valid file that a command accepts. The mutations are the
classic four of byte-level fuzzers: flip one bit, delete a byte, insert a
random byte, truncate. Whatever the bytes, a command exits 0, 1 or 2, and a
failing one prints exactly one ``error:`` line and no traceback.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from hvgan import cli
from hvgan.data_io import ImageBuffer, save_image
from hvgan.synth import write_corpus

MUTATIONS = 120


def _mutate(blob: bytes, rng: random.Random) -> bytes:
    pos = rng.randrange(len(blob))
    op = rng.choice(("flip", "delete", "insert", "truncate"))
    if op == "flip":
        return blob[:pos] + bytes([blob[pos] ^ (1 << rng.randrange(8))]) + blob[pos + 1:]
    if op == "delete":
        return blob[:pos] + blob[pos + 1:]
    if op == "insert":
        return blob[:pos] + bytes([rng.randrange(256)]) + blob[pos:]
    return blob[:pos]


def _run(argv, capsys) -> int:
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert out == "", (argv, out)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err
    else:
        assert err == "", (argv, err)
    return code


def _image(tmp_path, name, channels):
    rng = np.random.default_rng(160 + channels)
    path = tmp_path / name
    save_image(ImageBuffer(rng.integers(0, 256, (channels, 16, 16)) / 255.0), path)
    return path


def _fuzz(path: Path, seed: int, argvs, capsys, runnable=lambda: True) -> list[int]:
    """Write each mutation of ``path``'s bytes over it and run every argv;
    returns the exit codes."""
    original = path.read_bytes()
    rng = random.Random(seed)
    codes = []
    for _ in range(MUTATIONS):
        path.write_bytes(_mutate(original, rng))
        if runnable():
            codes += [_run(argv, capsys) for argv in argvs]
    return codes


@pytest.mark.parametrize("name, channels", [("img.pgm", 1), ("img.ppm", 3)])
def test_mutated_image(tmp_path, capsys, name, channels):
    ref = _image(tmp_path, f"ref_{name}", channels)
    test = _image(tmp_path, name, channels)
    codes = _fuzz(test, 161, [["eval", "--ref", str(ref), "--test", str(test)]], capsys)
    assert len(codes) == MUTATIONS and {0, 1} <= set(codes)


def test_mutated_points_csv(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("1,2,3\n2,1,3\n3,3,1\n0.5,2.5,2\n")
    argvs = [["hv", str(pts), "--ref", "4,4,4", "--mc", "64"], ["pareto", str(pts)]]
    codes = _fuzz(pts, 162, argvs, capsys)
    assert len(codes) == 2 * MUTATIONS and {0, 1} <= set(codes)


def test_mutated_train_config(tmp_path, capsys, monkeypatch):
    # relative paths in a mutated config land in tmp_path too
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path / "corpus", seed=0, count=1, size=8)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(
        dataset=str(tmp_path / "corpus"), output_dir=str(tmp_path / "out"),
        pretrain_iters=1, adversarial_iters=1, batch_size=1, patch_size=8,
        gen_width=1, disc_width=1,
    )))

    def inside_tmp_path():
        """A config runs unless it names a path outside tmp_path; one that
        does not parse or validate fails before writing anything."""
        try:
            parsed = json.loads(cfg.read_text(encoding="utf-8"))
        except ValueError:
            return True
        if not isinstance(parsed, dict):
            return True
        return all(
            Path(parsed[key]).resolve().is_relative_to(tmp_path.resolve())
            for key in ("dataset", "output_dir")
            if isinstance(parsed.get(key), str)
        )

    codes = _fuzz(cfg, 163, [["train", "--config", str(cfg)]], capsys, inside_tmp_path)
    assert len(codes) >= MUTATIONS // 2 and {0, 1} <= set(codes)
