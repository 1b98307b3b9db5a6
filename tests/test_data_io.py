import re

import numpy as np
import pytest

from hvgan import autodiff as ad
from hvgan import model
from hvgan.data_io import (
    ImageBuffer,
    _bicubic_matrix,
    augment_with_rng,
    bicubic_downscale,
    load_image,
    random_patch_pair,
    read_points_csv,
    save_image,
    write_atomic,
)

from oracles import nearest_upscale_reference


def _random_image(seed, c=1, h=16, w=16):
    return ImageBuffer(np.random.default_rng(seed).uniform(size=(c, h, w)))


def _patches(img, patch_size, count, seed):
    """``count`` patch pairs drawn from one generator, as training draws them."""
    rng = np.random.default_rng(seed)
    return [random_patch_pair(img, patch_size, rng) for _ in range(count)]


def _augment(lr, hr, seed):
    return augment_with_rng(lr, hr, np.random.default_rng(seed))


class TestImageBuffer:
    def test_two_d_promotes_to_single_channel(self):
        buf = ImageBuffer(np.zeros((4, 5)))
        assert buf.data.shape == (1, 4, 5)
        assert (buf.channels, buf.height, buf.width) == (1, 4, 5)

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ValueError, match="C in {1,3}"):
            ImageBuffer(np.zeros((2, 4, 4)))

    @staticmethod
    def _one_bad_pixel(bad):
        arr = np.full((1, 48, 48), 0.5)
        arr[0, 17, 30] = bad
        return arr

    def test_rejects_out_of_range_values(self):
        for bad in (1.5, -0.25):
            with pytest.raises(ValueError, match=r"\[0,1\]"):
                ImageBuffer(self._one_bad_pixel(bad))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                ImageBuffer(self._one_bad_pixel(bad))

    def test_data_is_read_only(self):
        buf = _random_image(0)
        with pytest.raises(ValueError):
            buf.data[0, 0, 0] = 0.5

    def test_owns_its_pixels(self):
        for arr in (np.full((1, 4, 4), 0.25), np.full((1, 4, 4), 0.25)[:, :, :]):
            buf = ImageBuffer(arr)
            assert arr.flags.writeable
            arr[0, 0, 0] = 1.0
            assert buf.data[0, 0, 0] == 0.25

    def test_apply_generator_output_is_validated(self, monkeypatch):
        # the generator's output is the one derived buffer whose pixels are
        # not valid by construction: clipping keeps a NaN
        g, _ = model.init_networks(0, gen_width=4, disc_width=4)
        monkeypatch.setattr(
            g, "forward", lambda x: ad.Tensor(np.full((1, 1, 32, 32), np.nan))
        )
        with pytest.raises(ValueError, match="ImageBuffer: values must be finite"):
            model.apply_generator(g, ImageBuffer(np.full((1, 8, 8), 0.5)))


class TestPgmPpm:
    def test_p5_bytes_map_to_fractions(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        buf = load_image(path)
        assert buf.data.shape == (1, 2, 2)
        want = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
        assert np.allclose(buf.data[0], want, rtol=0, atol=1e-15)

    def test_p6_all_zero(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n3 1\n255\n" + bytes(9))
        buf = load_image(path)
        assert buf.data.shape == (3, 1, 3)
        assert np.all(buf.data == 0.0)

    def test_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n# made by hand\n1 1\n255\n\x80")
        assert load_image(path).data[0, 0, 0] == pytest.approx(128 / 255)

    @pytest.mark.parametrize("header", [
        b"P5\n2 2#c\n255\n",
        b"P5\n# c\r2 2\n255\n",
        b"P5\n2 2\n255#c\n",
    ], ids=["comment_ends_a_field", "comment_ends_at_cr", "comment_after_maxval"])
    def test_comments_as_pgm5_defines_them(self, tmp_path, header):
        # a comment runs from "#" to the next line end; after maxval, that
        # line end is the one byte before the raster
        pixels = bytes([0, 255, 10, 35])
        plain = tmp_path / "plain.pgm"
        plain.write_bytes(b"P5\n2 2\n255\n" + pixels)
        path = tmp_path / "c.pgm"
        path.write_bytes(header + pixels)
        assert np.array_equal(load_image(path).data, load_image(plain).data)

    def test_round_trip_quantization_bound(self, tmp_path):
        img = _random_image(1, c=3, h=5, w=7)
        path = tmp_path / "rt.ppm"
        save_image(img, path)
        back = load_image(path)
        assert np.max(np.abs(back.data - img.data)) <= 1.0 / 510.0 + 1e-15

    def test_save_is_round_half_up(self, tmp_path):
        img = ImageBuffer(np.full((1, 1, 1), 0.5))
        path = tmp_path / "h.pgm"
        save_image(img, path)
        assert path.read_bytes().endswith(bytes([128]))

    def test_save_bytes_are_deterministic(self, tmp_path):
        img = _random_image(2, c=3)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        save_image(img, p1)
        save_image(img, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_exact_byte_round_trip(self, tmp_path):
        # quantize once, then the byte stream is a fixed point of save∘load
        img = _random_image(3, c=1, h=4, w=6)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        save_image(img, p1)
        save_image(load_image(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "t.pbm"
        path.write_bytes(b"P4\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="magic"):
            load_image(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError, match="maxval"):
            load_image(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ValueError, match="truncated payload"):
            load_image(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4")
        with pytest.raises(ValueError, match="truncated header"):
            load_image(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_image(tmp_path / "absent.pgm")


class TestWriteAtomic:
    def test_chunks_arrive_concatenated(self, tmp_path):
        path = tmp_path / "out.bin"
        write_atomic(path, iter([b"ab", bytearray(b"cd"), b"", b"e"]))
        assert path.read_bytes() == b"abcde"
        assert list(tmp_path.iterdir()) == [path]

    def test_a_producer_that_raises_midway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")

        def chunks():
            yield b"new"
            # each chunk is flushed before the next one is asked for
            assert (tmp_path / "out.bin.tmp").read_bytes() == b"new"
            raise FloatingPointError("non-finite values produced by op 'conv2d'")

        with pytest.raises(FloatingPointError, match="conv2d"):
            write_atomic(path, chunks())
        assert path.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [path]


def _pgm_bytes(tmp_path, blob):
    path = tmp_path / "h.pgm"
    path.write_bytes(blob)
    return path


class TestInputChecks:
    @pytest.mark.parametrize("call, message", [
        (lambda tmp: load_image(_pgm_bytes(tmp, b"P5\nab 2\n255\n" + bytes(4))),
         r"h\.pgm: non-numeric header fields \[b'ab', b'2', b'255'\]"),
        (lambda tmp: load_image(_pgm_bytes(tmp, b"P5\n0 2\n255\n")),
         r"h\.pgm: bad dimensions 0x2"),
        (lambda tmp: ImageBuffer(np.zeros((1, 0, 4))),
         r"ImageBuffer: empty spatial extent \(1, 0, 4\)"),
    ], ids=["header_non_numeric", "header_zero_width", "empty_extent"])
    def test_bad_input_is_named(self, tmp_path, call, message):
        with pytest.raises(ValueError, match=message):
            call(tmp_path)


class TestBicubic:
    def test_rows_sum_to_one(self):
        for n in [8, 16, 64]:
            mat = _bicubic_matrix(n)
            assert np.allclose(mat.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_interior_tap_weights_at_factor_four(self):
        # phase 0.5 of the Keys a=-0.5 kernel: (-1/16, 9/16, 9/16, -1/16)
        mat = _bicubic_matrix(16)
        row = mat[2]
        nz = np.nonzero(row)[0]
        assert nz.tolist() == [8, 9, 10, 11]
        assert np.allclose(row[nz], [-0.0625, 0.5625, 0.5625, -0.0625], atol=1e-12)

    def test_mutating_returned_weights_leaves_downscale_alone(self):
        img = _random_image(12, h=48, w=48)
        before = bicubic_downscale(img).data
        with pytest.raises(ValueError, match="read-only"):
            _bicubic_matrix(48)[:] = 0.0
        assert np.array_equal(bicubic_downscale(img).data, before)

    def test_constant_image_stays_constant(self):
        img = ImageBuffer(np.full((1, 8, 8), 0.7))
        out = bicubic_downscale(img)
        assert out.data.shape == (1, 2, 2)
        assert np.allclose(out.data, 0.7, rtol=0, atol=1e-12)

    def test_ramp_stays_linear_in_the_interior(self):
        ramp = np.tile(np.linspace(0.1, 0.9, 16), (16, 1))
        out = bicubic_downscale(ImageBuffer(ramp)).data[0]
        # away from the clamped edges the sample positions are equispaced,
        # so consecutive output differences match
        diffs = np.diff(out[0])
        assert np.allclose(diffs[1:], diffs[:-1], atol=1e-12)

    def test_commutes_with_horizontal_flip(self):
        img = _random_image(10, c=3, h=16, w=24)
        a = bicubic_downscale(ImageBuffer(img.data[:, :, ::-1])).data
        b = bicubic_downscale(img).data[:, :, ::-1]
        assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_indivisible_dimensions_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            bicubic_downscale(ImageBuffer(np.zeros((1, 9, 8))))

    def test_output_range_is_clamped(self):
        rng = np.random.default_rng(11)
        img = ImageBuffer((rng.uniform(size=(1, 32, 32)) > 0.5).astype(float))
        out = bicubic_downscale(img)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_nearest_upscale_replicates(self):
        # the acceptance battery's baseline
        out = nearest_upscale_reference(np.array([[[0.25, 0.5], [0.75, 1.0]]]), 2)
        assert np.array_equal(
            out[0],
            np.array([[0.25, 0.25, 0.5, 0.5],
                      [0.25, 0.25, 0.5, 0.5],
                      [0.75, 0.75, 1.0, 1.0],
                      [0.75, 0.75, 1.0, 1.0]]),
        )


class TestPatches:
    def test_pairs_satisfy_factor_invariant(self):
        for lr, hr in _patches(_random_image(21, h=32, w=32), 16, 5, seed=1):
            assert hr.shape == (1, 16, 16)
            assert hr.shape[1] == 4 * lr.shape[1]
            assert hr.shape[2] == 4 * lr.shape[2]

    def test_lr_is_the_bicubic_downscale_of_hr(self):
        ((lr, hr),) = _patches(_random_image(22, h=24, w=24), 16, 1, seed=2)
        want = bicubic_downscale(ImageBuffer(hr))
        assert np.array_equal(lr, want.data)

    def test_hr_is_a_read_only_view_of_the_image(self):
        img = _random_image(27, h=32, w=32)
        _, hr = random_patch_pair(img, 16, np.random.default_rng(0))
        assert np.shares_memory(hr, img.data)
        with pytest.raises(ValueError):
            hr[0, 0, 0] = 0.5

    def test_seed_reproducibility(self):
        img = _random_image(23, h=32, w=32)
        a = _patches(img, 8, 10, seed=7)
        b = _patches(img, 8, 10, seed=7)
        for (lr_a, hr_a), (lr_b, hr_b) in zip(a, b, strict=True):
            assert np.array_equal(hr_a, hr_b)
            assert np.array_equal(lr_a, lr_b)

    def test_coordinates_cover_the_range(self):
        # row i holds i/32 exactly, so a crop's first pixel gives its top row
        rows = np.arange(20, dtype=np.float64) / 32.0
        img = ImageBuffer(np.broadcast_to(rows[None, :, None], (1, 20, 20)))
        pairs = _patches(img, 8, 200, seed=3)
        tops = {int(hr[0, 0, 0] * 32.0) for _, hr in pairs}
        assert min(tops) == 0 and max(tops) == 12

    def test_patch_too_large_rejected(self):
        with pytest.raises(ValueError, match="larger than image"):
            random_patch_pair(_random_image(25, h=8, w=8), 16,
                              np.random.default_rng(0))

    def test_patch_size_must_be_multiple_of_four(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            random_patch_pair(_random_image(26), 6, np.random.default_rng(0))


class TestAugment:
    @staticmethod
    def _pair(seed, size=8):
        img = _random_image(seed, h=size * 2, w=size * 2)
        return _patches(img, size, 1, seed=seed)[0]

    def test_identity_seed_returns_unchanged(self):
        lr, hr = self._pair(30)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            if rng.random() < 0.5:
                continue
            if int(rng.integers(0, 4)) != 0:
                continue
            out_lr, out_hr = _augment(lr, hr, seed)
            assert np.array_equal(out_hr, hr)
            assert np.array_equal(out_lr, lr)
            break
        else:
            pytest.fail("no identity seed found in 200 draws")

    def test_rotation_group_property(self):
        pair = self._pair(31)

        class FixedRng:
            def __init__(self, flip, k):
                self._flip, self._k = flip, k

            def random(self):
                return 1.0 if not self._flip else 0.0

            def integers(self, lo, hi):
                return self._k

        out = pair
        for _ in range(4):
            out = augment_with_rng(*out, FixedRng(False, 1))
        assert np.array_equal(out[1], pair[1])

    def test_downscale_commutes_with_augmentation(self):
        pair = self._pair(32)
        for seed in range(10):
            lr, hr = _augment(*pair, seed)
            direct = bicubic_downscale(ImageBuffer(hr))
            assert np.allclose(lr, direct.data, rtol=0, atol=1e-12)

    def test_odd_rotation_of_non_square_rejected(self):
        img = _random_image(33, h=8, w=16)
        hr = img.data[:, :8, :16]
        lr = bicubic_downscale(ImageBuffer(hr)).data
        with pytest.raises(ValueError, match="square"):
            for seed in range(100):
                _augment(lr, hr, seed)

    def test_seeded_determinism(self):
        pair = self._pair(34)
        a = _augment(*pair, 99)
        b = _augment(*pair, 99)
        assert np.array_equal(a[1], b[1])


class TestPointsCsv:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,2\n2,1\n")
        ps = read_points_csv(path)
        assert ps.tolist() == [[1.0, 2.0], [2.0, 1.0]]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        assert len(read_points_csv(path)) == 0

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1,2\n\n2,1\n\n")
        assert len(read_points_csv(path)) == 2

    def test_ragged_row_names_the_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="line 2"):
            read_points_csv(path)

    def test_non_numeric_field_names_the_line(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1,2\n1,x\n")
        with pytest.raises(ValueError, match="line 2.*'x'"):
            read_points_csv(path)

    @pytest.mark.parametrize("tok", ["1_0", "\u0661", " 2_5 "],
                             ids=["digit_separator", "arabic_indic_one", "padded_separator"])
    def test_number_text_float_reads_but_a_column_never_holds(self, tmp_path, tok):
        path = tmp_path / "n.csv"
        path.write_text(f"1,2\n{tok},1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"line 2: non-numeric field '{tok.strip()}'"):
            read_points_csv(path)

    @pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\x85", "\u2028"])
    def test_only_a_newline_ends_a_line(self, tmp_path, sep):
        path = tmp_path / "s.csv"
        path.write_text(f"1,4{sep}3,2\n", encoding="utf-8")
        message = f"line 1: non-numeric field {f'4{sep}3'!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_points_csv(path)

    def test_surrounding_spaces_are_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(" 1 ,\t2\n")
        assert read_points_csv(path).tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("tok", ["nan", "inf", "-inf"])
    def test_non_finite_field_names_the_line(self, tmp_path, tok):
        path = tmp_path / "f.csv"
        path.write_text(f"1,2\n{tok},1\n")
        with pytest.raises(ValueError, match=f"line 2: non-finite field '{tok}'"):
            read_points_csv(path)

    def test_text_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_bytes(b"1,2\n\xff\xfe,3\n")
        with pytest.raises(ValueError, match=r"u\.csv: 'utf-8' codec can't decode byte 0xff"):
            read_points_csv(path)


class TestPipelineInvariant:
    def test_range_invariant_holds_through_random_pipelines(self):
        rng = np.random.default_rng(40)
        for trial in range(20):
            img = ImageBuffer(rng.uniform(size=(1, 32, 32)))
            pair = _patches(img, 16, 1, seed=trial)[0]
            lr, hr = _augment(*pair, trial)
            for arr in (lr, hr):
                assert arr.min() >= 0.0 and arr.max() <= 1.0
