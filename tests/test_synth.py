import io
from pathlib import Path

import numpy as np
import pytest

from hvgan import data_io
from hvgan.data_io import load_image
from hvgan.synth import make_corpus, make_image, write_corpus


class TestMakeImage:
    def test_shape_and_channels(self):
        img = make_image(0, 0)
        assert img.data.shape == (1, 64, 64)

    def test_values_stay_inside_the_working_band(self):
        for i in range(8):
            img = make_image(0, i)
            assert img.data.min() >= 0.02 - 1e-12
            assert img.data.max() <= 0.98 + 1e-12

    def test_deterministic_per_seed_and_index(self):
        a = make_image(3, 5)
        b = make_image(3, 5)
        assert np.array_equal(a.data, b.data)

    def test_different_indices_differ(self):
        a = make_image(0, 0)
        b = make_image(0, 4)  # same recipe family, different draw
        assert not np.array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_image(0, 1).data, make_image(1, 1).data)

    def test_edge_family_is_piecewise_constant(self):
        img = make_image(0, 3)
        assert len(np.unique(img.data)) <= 3

    def test_size_lower_bound(self):
        with pytest.raises(ValueError, match="size"):
            make_image(0, 0, size=4)


class TestCorpus:
    def test_default_corpus_shape(self):
        corpus = make_corpus()
        assert len(corpus) == 8
        assert all(img.data.shape == (1, 64, 64) for img in corpus)

    def test_write_round_trips_through_pgm(self, tmp_path):
        paths = write_corpus(tmp_path, seed=0, count=3, size=16)
        assert [p.split("/")[-1] for p in paths] == [
            "img_000.pgm", "img_001.pgm", "img_002.pgm",
        ]
        for i, p in enumerate(paths):
            back = load_image(p)
            orig = make_image(0, i, 16)
            assert np.max(np.abs(back.data - orig.data)) <= 1.0 / 510.0 + 1e-15

    def test_written_bytes_are_reproducible(self, tmp_path):
        a = write_corpus(tmp_path / "a", seed=1, count=2, size=16)
        b = write_corpus(tmp_path / "b", seed=1, count=2, size=16)
        for pa, pb in zip(a, b):
            assert Path(pa).read_bytes() == Path(pb).read_bytes()

    def test_an_interrupted_write_leaves_no_partial_image(self, tmp_path, monkeypatch):
        class HalfThenFail(io.FileIO):
            def write(self, data):
                super().write(data[: len(data) // 2])
                raise OSError("disk full")

        # data_io.write_atomic opens the temporary file through this name
        monkeypatch.setattr(data_io, "open", HalfThenFail, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write_corpus(tmp_path, seed=0, count=2, size=16)
        assert list(tmp_path.iterdir()) == []
