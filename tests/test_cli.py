import ast
import ctypes
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import hvgan
from hvgan import cli, data_io, model
from hvgan.data_io import ImageBuffer, save_image
from hvgan.model import init_networks, load_checkpoint
from hvgan.scalarize import scalarize
from hvgan.synth import write_corpus


def run_cli(*args):
    """Invoke the installed CLI in a subprocess."""
    return subprocess.run(
        [sys.executable, "-m", "hvgan", *args],
        capture_output=True, text=True,
    )


def _write_pgm(path, arr):
    arr = np.asarray(arr, dtype=np.uint8)
    h, w = arr.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode() + arr.tobytes())


class TestBlasThreads:
    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def _threads_after_import(self, **overrides):
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env.update(overrides)
        code = f"import os, hvgan; print([os.environ.get(v) for v in {self.VARS!r}])"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_one_thread_by_default(self):
        assert self._threads_after_import() == "['1', '1', '1']"

    def test_user_setting_wins(self):
        got = self._threads_after_import(OPENBLAS_NUM_THREADS="3")
        assert got == "['3', '1', '1']"

    def test_exported_omp_setting_reaches_openblas_and_mkl(self):
        # both fall back to OMP_NUM_THREADS when their own variable is unset
        got = self._threads_after_import(OMP_NUM_THREADS="2")
        assert got == "[None, '2', None]"

    def _read_back(self, field, first="numpy", **overrides):
        """``hvgan._environment()[field]`` after ``first`` and then the other
        of numpy and hvgan are imported."""
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env.update(overrides)
        second = "hvgan" if first == "numpy" else "numpy"
        code = f"import {first}, {second}\nprint(hvgan._environment()[{field!r}])\n"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        if proc.stdout.strip() == "unknown":
            pytest.skip("numpy bundles no OpenBLAS")
        return proc.stdout.strip()

    @pytest.mark.parametrize("first", ["numpy", "hvgan"])
    def test_library_runs_one_thread_whatever_is_imported_first(self, first):
        assert self._read_back("blas_threads", first) == "1"

    @pytest.mark.parametrize("var", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"])
    def test_library_keeps_the_user_setting_when_numpy_is_first(self, var):
        # OpenBLAS caps its pool at the CPU count
        assert self._read_back("blas_threads", **{var: "2"}) == str(min(2, os.cpu_count()))

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                        reason="Haswell is an x86-64 kernel")
    def test_library_reports_a_forced_kernel(self):
        assert self._read_back("blas_core", OPENBLAS_CORETYPE="Haswell") == "Haswell"

    @pytest.mark.parametrize("found", ["no library", "a library without the symbols"])
    def test_what_the_library_does_not_give_is_unknown(self, monkeypatch, found):
        if found == "no library":
            monkeypatch.setattr(hvgan, "_openblas", lambda: None)
        else:
            monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())
        env = hvgan._environment()
        assert env["blas_core"] == env["blas_threads"] == "unknown"
        assert env["numpy"] == np.__version__


@pytest.mark.skipif(not hvgan._glibc(), reason="the heap policy is for glibc")
class TestHeapPolicy:
    VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
    # minor faults over 50 allocations of an 8 MB array, after one warm-up
    CHURN = (
        "import resource, hvgan, numpy as np\n"
        "np.ones(1 << 20)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(50):\n"
        "    a = np.ones(1 << 20)\n"
        "    del a\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )

    def _faults(self, **overrides):
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env.update(overrides)
        proc = subprocess.run([sys.executable, "-c", self.CHURN], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    def test_freed_buffers_stay_mapped(self):
        assert self._faults() <= 20

    @pytest.mark.parametrize("var", VARS)
    def test_user_setting_wins(self, var):
        # glibc's own default for both; each 8 MB array is faulted in afresh
        assert self._faults(**{var: "131072"}) > 100

    @pytest.mark.parametrize("reply", ["raise", None])
    def test_other_c_libraries_are_left_alone(self, monkeypatch, reply):
        def confstr(name):
            if reply == "raise":
                raise ValueError(f"unrecognized configuration name: {name}")
            return reply

        def cdll(*args, **kwargs):
            raise AssertionError("libc was loaded")

        monkeypatch.setattr(os, "confstr", confstr)
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        hvgan._heap_policy()


class TestHv:
    def test_two_point_front(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("1,2\n2,1\n")
        proc = run_cli("hv", str(pts), "--ref", "3,3")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "3.00000000000\n"

    def test_repeated_point_counts_once_against_the_point_limit(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("1,2\n" * 33)
        proc = run_cli("hv", str(pts), "--ref", "3,3")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2.00000000000\n"

    def test_empty_file_prints_zero(self, tmp_path):
        pts = tmp_path / "e.csv"
        pts.write_text("")
        proc = run_cli("hv", str(pts), "--ref", "3,3")
        assert proc.returncode == 0
        assert proc.stdout == "0\n"

    def test_reference_violation_names_the_point(self, tmp_path):
        pts = tmp_path / "v.csv"
        pts.write_text("1,2\n5,1\n")
        proc = run_cli("hv", str(pts), "--ref", "3,3")
        assert proc.returncode == 1
        assert "point 1" in proc.stderr

    def test_reference_violation_prints_the_given_values_under_max(self, tmp_path):
        pts = tmp_path / "v.csv"
        pts.write_text("0.1,0.9,0.5\n")
        proc = run_cli("hv", str(pts), "--ref", "1,1,1", "--orient", "max")
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: reference point is not weakly dominated by point 0: "
            "point (0.1, 0.9, 0.5) vs reference (1.0, 1.0, 1.0) (maximize)\n"
        )

    def test_max_orientation(self, tmp_path):
        pts = tmp_path / "m.csv"
        pts.write_text("2,1\n1,2\n")
        proc = run_cli("hv", str(pts), "--orient", "max", "--ref", "0,0")
        assert proc.returncode == 0
        assert proc.stdout == "3.00000000000\n"

    @pytest.mark.parametrize("ref, want", [("-1,-1", "8"), ("-0.5,-2", "9")])
    def test_negative_reference_as_separate_argument(self, tmp_path, ref, want):
        pts = tmp_path / "m.csv"
        pts.write_text("1,2\n2,1\n")
        proc = run_cli("hv", str(pts), "--orient", "max", "--ref", ref)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{want}.00000000000\n"
        joined = run_cli("hv", str(pts), "--orient", "max", f"--ref={ref}")
        assert joined.stdout == proc.stdout

    @pytest.mark.parametrize("ref", ["-inf,0", "-Infinity,3"])
    def test_non_finite_negative_reference_fails_alike_in_both_forms(self, tmp_path, ref):
        pts = tmp_path / "m.csv"
        pts.write_text("1,2\n2,1\n")
        proc = run_cli("hv", str(pts), "--orient", "max", "--ref", ref)
        joined = run_cli("hv", str(pts), "--orient", "max", f"--ref={ref}")
        assert joined.returncode == 1
        assert "components must be finite" in joined.stderr
        assert (proc.returncode, proc.stderr) == (joined.returncode, joined.stderr)

    def test_non_numeric_reference_field_names_ref_and_position(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("1,2\n2,1\n")
        proc = run_cli("hv", str(pts), "--ref", "3,x")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "--ref: field 2: non-numeric value 'x'" in proc.stderr

    @pytest.mark.parametrize("ref, message", [
        ("2_0,3", "--ref: field 1: non-numeric value '2_0'"),
        ("3,\u0663", "--ref: field 2: non-numeric value '\u0663'"),
    ], ids=["digit_separator", "arabic_indic_three"])
    def test_reference_text_float_reads_but_a_number_never_holds(self, tmp_path, ref, message):
        pts = tmp_path / "u.csv"
        pts.write_text("1,2\n2,1\n")
        proc = run_cli("hv", str(pts), "--ref", ref)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert message in proc.stderr

    def test_mc_adds_estimate_line(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("1,2\n2,1\n")
        proc = run_cli("hv", str(pts), "--ref", "3,3", "--mc", "20000", "--seed", "7")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        est, stderr = (float(v) for v in lines[1].split())
        assert abs(est - 3.0) <= 4.0 * stderr

    def test_points_on_the_reference_face_have_no_volume(self, tmp_path, capsys):
        # the sampling box is flat, so the Monte-Carlo estimate is exact
        pts = tmp_path / "p.csv"
        pts.write_text("3,1\n3,2\n")
        assert cli.main(["hv", str(pts), "--ref", "3,3", "--mc", "100"]) == 0
        assert capsys.readouterr().out == "0\n0 0\n"

    # finite points and reference whose exact volume, or Monte-Carlo box
    # volume, exceeds float64
    @pytest.mark.parametrize("points, mc, what", [
        ("0,0\n", ["--mc", "100"], "hypervolume_exact"),
        ("0,0\n1,-1e300\n", [], "hypervolume_exact"),
        ("-1e155,9.9999e154\n9.9999e154,-1e155\n", ["--mc", "100"], "hypervolume_mc"),
    ], ids=["exact_and_mc", "exact", "mc_box"])
    def test_overflowing_volume_is_an_error(self, tmp_path, points, mc, what):
        pts = tmp_path / "p.csv"
        pts.write_text(points)
        ref = "1e155,1e155" if what == "hypervolume_mc" else "1e200,1e200"
        proc = run_cli("hv", str(pts), "--ref", ref, *mc)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()  # no numpy RuntimeWarning either
        assert len(lines) == 1 and lines[0].startswith(f"error: {what}: ")
        assert "overflows float64 for reference point" in lines[0]

    def test_mc_is_seed_deterministic(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("1,2\n2,1\n")
        a = run_cli("hv", str(pts), "--ref", "3,3", "--mc", "5000", "--seed", "3")
        b = run_cli("hv", str(pts), "--ref", "3,3", "--mc", "5000", "--seed", "3")
        assert a.stdout == b.stdout

    def test_negative_seed_is_named(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("1,2\n2,1\n")
        proc = run_cli("hv", str(pts), "--ref", "3,3", "--mc", "10", "--seed", "-1")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "--seed" in proc.stderr

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_bad_sample_count_prints_no_partial_result(self, tmp_path, samples):
        pts = tmp_path / "p.csv"
        pts.write_text("1,2\n2,1\n")
        proc = run_cli("hv", str(pts), "--ref", "3,3", "--mc", samples)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "samples" in proc.stderr


class TestPareto:
    def test_three_point_example(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("1,2\n2,1\n2,2\n")
        proc = run_cli("pareto", str(pts))
        assert proc.returncode == 0
        assert proc.stdout == "1,2\n2,1\n"

    def test_singleton_echoed(self, tmp_path):
        pts = tmp_path / "s.csv"
        pts.write_text("5\n")
        proc = run_cli("pareto", str(pts))
        assert proc.stdout == "5\n"

    def test_fractional_values_survive(self, tmp_path):
        pts = tmp_path / "f.csv"
        pts.write_text("1.5,2\n")
        proc = run_cli("pareto", str(pts))
        assert proc.stdout == "1.5,2\n"

    @pytest.mark.parametrize("value, text", [
        ("1e15", "1000000000000000"), ("1e16", "1e+16"), ("1e300", "1e+300"),
        ("-0", "-0"), ("-2.5e-300", "-2.5e-300"),
    ])
    def test_a_value_prints_as_the_shortest_text_that_reads_back(
        self, tmp_path, capsys, value, text
    ):
        pts = tmp_path / "v.csv"
        pts.write_text(f"{value}\n")
        assert cli.main(["pareto", str(pts)]) == 0
        out = capsys.readouterr().out
        assert out == f"{text}\n"
        assert float(out).hex() == float(value).hex()  # -0 keeps its sign

    def test_ragged_input_fails_with_line_number(self, tmp_path):
        pts = tmp_path / "r.csv"
        pts.write_text("1,2\n3\n")
        proc = run_cli("pareto", str(pts))
        assert proc.returncode == 1
        assert "line 2" in proc.stderr

    @pytest.mark.parametrize("command, args", [("pareto", []), ("hv", ["--ref", "5,5"])],
                             ids=["pareto", "hv"])
    def test_a_form_feed_does_not_end_a_line(self, tmp_path, command, args):
        pts = tmp_path / "f.csv"
        pts.write_bytes(b"1,4\f3,2\n")
        proc = run_cli(command, str(pts), *args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "line 1: non-numeric field '4\\x0c3'" in proc.stderr

    @pytest.mark.parametrize("command, args", [
        ("pareto", []),
        ("hv", ["--ref", "3,3,3", "--mc", "2000", "--seed", "5"]),
    ], ids=["pareto", "hv_mc"])
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, command, args):
        # spreadsheet "CSV UTF-8" exports start with one
        text = b"1,2,0.5\n2,1,0.25\n2,2,2\n"
        outs = []
        for name, prefix in (("plain.csv", b""), ("bom.csv", b"\xef\xbb\xbf")):
            (tmp_path / name).write_bytes(prefix + text)
            assert cli.main([command, str(tmp_path / name), *args]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] and outs[1] == outs[0]


class TestEval:
    def test_identical_images(self, tmp_path):
        img = np.random.default_rng(130).integers(0, 256, size=(16, 16))
        _write_pgm(tmp_path / "a.pgm", img)
        proc = run_cli("eval", "--ref", str(tmp_path / "a.pgm"),
                       "--test", str(tmp_path / "a.pgm"))
        assert proc.returncode == 0
        assert proc.stdout == "inf,1.000000,0.000000\n"

    def test_half_offset_psnr(self, tmp_path):
        # a balanced mix of +127 and +128 byte offsets lands the MSE within
        # 2e-5 of the exact 0.25, i.e. within 1e-4 dB of 10*log10(4)
        base = np.zeros((16, 16), dtype=np.uint8)
        offs = np.indices((16, 16)).sum(axis=0) % 2
        test = (127 + offs).astype(np.uint8)
        _write_pgm(tmp_path / "a.pgm", base)
        _write_pgm(tmp_path / "b.pgm", test)
        proc = run_cli("eval", "--ref", str(tmp_path / "a.pgm"),
                       "--test", str(tmp_path / "b.pgm"))
        assert proc.returncode == 0
        psnr_field = float(proc.stdout.split(",")[0])
        assert psnr_field == pytest.approx(6.0206, abs=1e-3)

    def test_swapped_arguments_agree(self, tmp_path):
        rng = np.random.default_rng(131)
        _write_pgm(tmp_path / "a.pgm", rng.integers(0, 256, size=(16, 16)))
        _write_pgm(tmp_path / "b.pgm", rng.integers(0, 256, size=(16, 16)))
        fwd = run_cli("eval", "--ref", str(tmp_path / "a.pgm"),
                      "--test", str(tmp_path / "b.pgm"))
        rev = run_cli("eval", "--ref", str(tmp_path / "b.pgm"),
                      "--test", str(tmp_path / "a.pgm"))
        assert fwd.stdout.split(",")[1:] == rev.stdout.split(",")[1:]

    def test_shape_mismatch(self, tmp_path):
        _write_pgm(tmp_path / "a.pgm", np.zeros((16, 16), dtype=np.uint8))
        _write_pgm(tmp_path / "b.pgm", np.zeros((16, 12), dtype=np.uint8))
        proc = run_cli("eval", "--ref", str(tmp_path / "a.pgm"),
                       "--test", str(tmp_path / "b.pgm"))
        assert proc.returncode == 1
        assert "shape mismatch" in proc.stderr

    def test_missing_file_is_io_error(self, tmp_path):
        _write_pgm(tmp_path / "a.pgm", np.zeros((16, 16), dtype=np.uint8))
        proc = run_cli("eval", "--ref", str(tmp_path / "a.pgm"),
                       "--test", str(tmp_path / "nope.pgm"))
        assert proc.returncode == 2

    @pytest.mark.parametrize("peak", ["inf", "1e200", "1e-200"])
    def test_peak_without_a_finite_psnr_is_an_error(self, tmp_path, peak):
        _write_pgm(tmp_path / "a.pgm", np.full((16, 16), 128, dtype=np.uint8))
        _write_pgm(tmp_path / "b.pgm", np.zeros((16, 16), dtype=np.uint8))
        proc = run_cli("eval", "--ref", str(tmp_path / "a.pgm"),
                       "--test", str(tmp_path / "b.pgm"), "--peak", peak)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()  # no numpy RuntimeWarning either
        assert len(lines) == 1 and lines[0].startswith("error: psnr: peak")


class TestOutputsDoNotDependOnTheBlasKernel:
    """``hv``, ``pareto`` and ``eval`` print the same bytes under another
    OpenBLAS kernel, as README's "Reproducibility across machines" says."""

    @pytest.fixture(scope="class")
    def forced_env(self):
        """The environment with ``OPENBLAS_CORETYPE`` forcing a kernel other
        than the one in force here: Haswell, or Sandybridge where that is
        Haswell. Skips where the library does not take it."""
        forced = "Sandybridge" if hvgan._environment()["blas_core"] == "Haswell" else "Haswell"
        env = {**os.environ, "OPENBLAS_CORETYPE": forced}
        code = "import hvgan, numpy\nprint(hvgan._environment()['blas_core'])\n"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        if proc.stdout.strip() != forced:
            pytest.skip(f"OpenBLAS does not run its {forced} kernel here")
        return env

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("kernel")
        rng = np.random.default_rng(140)
        pts = rng.random((60, 4))
        (tmp / "p.csv").write_text(
            "".join(",".join(map(repr, row)) + "\n" for row in pts.tolist())
        )
        ref = rng.integers(0, 256, size=(32, 32))
        noise = rng.integers(-20, 21, size=ref.shape)
        _write_pgm(tmp / "ref.pgm", ref)
        _write_pgm(tmp / "test.pgm", np.clip(ref + noise, 0, 255))
        return tmp

    @pytest.mark.parametrize("command", ["hv", "pareto", "eval"])
    def test_stdout_keeps_its_bytes(self, forced_env, inputs, command):
        pts, ref, test = (str(inputs / name) for name in ("p.csv", "ref.pgm", "test.pgm"))
        args = {
            "hv": ["hv", pts, "--ref", "1,1,1,1", "--mc", "20000", "--seed", "3"],
            "pareto": ["pareto", pts],
            "eval": ["eval", "--ref", ref, "--test", test],
        }[command]
        default, forced = (
            subprocess.run([sys.executable, "-m", "hvgan", *args], env=env,
                           capture_output=True, text=True)
            for env in (os.environ, forced_env)
        )
        assert default.returncode == forced.returncode == 0, default.stderr + forced.stderr
        assert default.stdout and forced.stdout == default.stdout


def _assert_only_manifest_outputs(out):
    """``out`` holds ``manifest.json`` and the files its ``outputs`` names,
    and nothing else: no temporary file is left behind."""
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {Path(p).relative_to(out).as_posix() for p in manifest["outputs"]}
    found = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert not list(out.rglob("*.tmp"))
    assert found == listed | {"manifest.json"}


def _train_config(tmp_path, sub="run", **over):
    corpus = tmp_path / "corpus"
    if not corpus.exists():
        write_corpus(corpus, seed=0, count=2, size=24)
    cfg = dict(
        dataset=str(corpus), output_dir=str(tmp_path / sub), seed=0,
        pretrain_iters=2, adversarial_iters=2, batch_size=2, patch_size=8,
        lr=1e-3, lr_milestones=[2], gen_width=4, disc_width=4,
    )
    cfg.update(over)
    path = tmp_path / f"{sub}.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


_OOM = "Unable to allocate 2.98 TiB for an array"


def _eval_image(tmp_path):
    """``tmp_path/eval.pgm``, a flat 16x16 image that ``compare`` evaluates."""
    eval_img = tmp_path / "eval.pgm"
    save_image(ImageBuffer(np.full((1, 16, 16), 0.5)), eval_img)
    return eval_img


def _failing_config(tmp_path, monkeypatch, phase, error=MemoryError(_OOM), **over):
    """A train/compare config whose ``model.<phase>`` raises ``error``, by
    default an allocation failure."""
    eval_img = _eval_image(tmp_path)

    def fail(*args):
        raise error

    monkeypatch.setattr(model, phase, fail)
    return _train_config(tmp_path, "run", eval_list=[str(eval_img)], **over)


def _interrupted_main(argv):
    """``cli.main(argv)`` where the command is interrupted; an interrupt that
    escapes fails this test instead of stopping the whole run."""
    try:
        return cli.main(argv)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")


class TestTrain:
    def test_zero_iteration_run(self, tmp_path):
        cfg_path, cfg = _train_config(
            tmp_path, "zero", pretrain_iters=0, adversarial_iters=0
        )
        proc = run_cli("train", "--config", str(cfg_path))
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "zero"
        history = (out / "history.csv").read_text().splitlines()
        assert len(history) == 1  # header only
        state = load_checkpoint(out / "checkpoint.hvgn")
        g, d = init_networks(0, 1, 4, 4)
        for p in g.params() + d.params():
            assert np.array_equal(state[p.name], p.data)

    def test_manifest_snapshot_is_byte_identical(self, tmp_path):
        cfg_path, _ = _train_config(tmp_path, "mani")
        proc = run_cli("train", "--config", str(cfg_path))
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "mani" / "manifest.json").read_text())
        assert manifest["config"] == cfg_path.read_text()
        assert manifest["seed"] == 0
        outs = [p.split("/")[-1] for p in manifest["outputs"]]
        assert outs == ["pretrain.csv", "history.csv", "checkpoint.hvgn"]
        _assert_only_manifest_outputs(tmp_path / "mani")

    def test_config_with_byte_order_mark_trains(self, tmp_path):
        cfg_path, _ = _train_config(tmp_path, "bom")
        text = cfg_path.read_text()
        cfg_path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "bom" / "manifest.json").read_text())
        assert manifest["config"] == text

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        p1, _ = _train_config(tmp_path, "r1")
        p2, _ = _train_config(tmp_path, "r2")
        assert run_cli("train", "--config", str(p1)).returncode == 0
        assert run_cli("train", "--config", str(p2)).returncode == 0
        for name in ("pretrain.csv", "history.csv", "checkpoint.hvgn"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, name

    def test_writes_one_row_per_iteration(self, tmp_path):
        cfg_path, _ = _train_config(
            tmp_path, "rows", pretrain_iters=3, adversarial_iters=4
        )
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "rows"
        assert len((out / "pretrain.csv").read_text().splitlines()) == 1 + 3
        assert len((out / "history.csv").read_text().splitlines()) == 1 + 4

    def test_diverging_run_prints_one_error_line(self, tmp_path, capsys):
        cfg_path, _ = _train_config(
            tmp_path, "diverge", lr=1e308, batch_size=1,
            pretrain_iters=1, adversarial_iters=2,
        )
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        lines = capsys.readouterr().err.splitlines()  # no numpy RuntimeWarning
        assert len(lines) == 1
        assert lines[0].startswith("error: non-finite values produced by op")

    def test_adversarial_failure_keeps_the_pretraining_rows(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg_path, _ = _train_config(tmp_path, "crash", pretrain_iters=3)

        def fail(*args):
            raise FloatingPointError("non-finite values produced by op 'conv2d'")

        monkeypatch.setattr(model, "adversarial_phase", fail)
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "error: non-finite values produced by op 'conv2d'\n"
        )
        out = tmp_path / "crash"
        lines = (out / "pretrain.csv").read_text().splitlines()
        assert lines[0] == cli.PRETRAIN_HEADER
        assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3]
        assert all(math.isfinite(float(line.split(",")[1])) for line in lines[1:])
        assert sorted(p.name for p in out.iterdir()) == ["pretrain.csv"]

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_history_rows_reach_the_disk_as_each_iteration_ends(
        self, tmp_path, monkeypatch, capsys, command
    ):
        cfg_path, _ = _train_config(
            tmp_path, "stream", adversarial_iters=3,
            eval_list=[str(_eval_image(tmp_path))],
        )
        assert cli.main([command, "--config", str(cfg_path)]) == 0
        out = tmp_path / "stream"
        # train runs its default mode, hv_log, into out; compare runs linear,
        # then hv_log, each into out/<mode>
        modes = ["hv_log"] if command == "train" else ["linear", "hv_log"]
        dirs = {m: out if command == "train" else out / m for m in modes}
        old = {m: (dirs[m] / "history.csv").read_bytes() for m in modes}
        real_phase = model.adversarial_phase
        seen = []

        def phase(g, d, images, config):
            tmp = dirs[config.mode] / "history.csv.tmp"
            old_lines = old[config.mode].decode().splitlines()
            for k, row in enumerate(real_phase(g, d, images, config), start=1):
                if k == 3 and config.mode == "hv_log":
                    raise FloatingPointError("non-finite values produced by op 'conv2d'")
                yield row
                # resumed for row k + 1: row k is already in the file
                assert tmp.read_text().splitlines() == old_lines[: 1 + k]
                seen.append((config.mode, k))

        monkeypatch.setattr(model, "adversarial_phase", phase)
        assert cli.main([command, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "error: non-finite values produced by op 'conv2d'\n"
        )
        assert seen == [(m, k) for m in modes for k in (1, 2, 3)][:-1]
        assert not list(out.rglob("*.tmp"))
        assert len((out / "pretrain.csv").read_text().splitlines()) == 1 + 2
        for m in modes:
            assert (dirs[m] / "history.csv").read_bytes() == old[m]

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_failed_run_removes_the_empty_output_dir_it_made(
        self, tmp_path, monkeypatch, capsys, command
    ):
        cfg_path, _ = _failing_config(tmp_path, monkeypatch, "pretrain")
        before = sorted(tmp_path.iterdir())
        assert cli.main([command, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {_OOM}\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_interrupted_run_removes_the_empty_output_dir_it_made(
        self, tmp_path, monkeypatch, capsys, command
    ):
        cfg_path, _ = _failing_config(
            tmp_path, monkeypatch, "pretrain", KeyboardInterrupt()
        )
        before = sorted(tmp_path.iterdir())
        code = _interrupted_main([command, "--config", str(cfg_path)])
        assert code == cli.EXIT_INTERRUPTED
        assert capsys.readouterr() == ("", "interrupted\n")
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_failed_run_keeps_only_the_parents_it_made(
        self, tmp_path, monkeypatch, command
    ):
        cfg_path, _ = _failing_config(
            tmp_path, monkeypatch, "pretrain", output_dir=str(tmp_path / "a" / "b")
        )
        assert cli.main([command, "--config", str(cfg_path)]) == 1
        assert (tmp_path / "a").is_dir()
        assert not (tmp_path / "a" / "b").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_failed_run_keeps_an_output_dir_that_existed(
        self, tmp_path, monkeypatch, command
    ):
        cfg_path, cfg = _failing_config(tmp_path, monkeypatch, "pretrain")
        Path(cfg["output_dir"]).mkdir()
        assert cli.main([command, "--config", str(cfg_path)]) == 1
        assert list(Path(cfg["output_dir"]).iterdir()) == []

    def test_compare_adversarial_failure_keeps_the_pretraining_artifacts(
        self, tmp_path, monkeypatch
    ):
        cfg_path, cfg = _failing_config(tmp_path, monkeypatch, "adversarial_phase")
        assert cli.main(["compare", "--config", str(cfg_path)]) == 1
        kept = sorted(p.name for p in Path(cfg["output_dir"]).iterdir())
        assert kept == ["pretrain.csv", "pretrained.hvgn"]

    @pytest.mark.parametrize("error, code, err", [
        (FloatingPointError("non-finite values produced by op 'conv2d'"), 1,
         "error: non-finite values produced by op 'conv2d'\n"),
        (KeyboardInterrupt(), cli.EXIT_INTERRUPTED, "interrupted\n"),
    ], ids=["floating_point_error", "keyboard_interrupt"])
    def test_compare_stopped_in_hv_log_leaves_no_hv_log_dir(
        self, tmp_path, monkeypatch, capsys, error, code, err
    ):
        cfg_path, cfg = _train_config(
            tmp_path, "stop", adversarial_iters=3,
            eval_list=[str(_eval_image(tmp_path))],
        )
        real_phase = model.adversarial_phase

        def phase(g, d, images, config):
            for k, row in enumerate(real_phase(g, d, images, config), start=1):
                if k == 2 and config.mode == "hv_log":
                    raise error
                yield row

        monkeypatch.setattr(model, "adversarial_phase", phase)
        assert _interrupted_main(["compare", "--config", str(cfg_path)]) == code
        assert capsys.readouterr().err == err
        out = Path(cfg["output_dir"])
        kept = sorted(p.relative_to(out).as_posix() for p in out.rglob("*"))
        assert kept == [
            "linear", "linear/history.csv", "pretrain.csv", "pretrained.hvgn",
        ]

    def test_checkpoint_holds_the_trained_weights(self, tmp_path):
        cfg_path, _ = _train_config(tmp_path, "ck", adversarial_iters=3)
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        config, _ = cli._read_config(cfg_path)
        images = model.load_corpus(config.dataset)
        g, d, _ = model.pretrain(config, images)
        list(model.adversarial_phase(g, d, images, config))
        state = load_checkpoint(tmp_path / "ck" / "checkpoint.hvgn")
        assert list(state) == [p.name for p in g.params() + d.params()]
        for p in g.params() + d.params():
            assert np.array_equal(state[p.name], p.data), p.name

    def test_unknown_config_key_named(self, tmp_path):
        cfg_path, cfg = _train_config(tmp_path, "bad")
        cfg["foo"] = 1
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("train", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert "foo" in proc.stderr

    def test_wrongly_typed_value_is_validation_error(self, tmp_path):
        cfg_path, cfg = _train_config(tmp_path, "typed")
        cfg["lr"] = "0.1"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("train", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: lr ")
        assert "Traceback" not in proc.stderr

    def test_out_of_float_range_value_is_validation_error(self, tmp_path):
        cfg_path, cfg = _train_config(tmp_path, "huge")
        cfg["lr"] = 10**400
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("train", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: lr ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key", ["dataset", "output_dir"])
    def test_empty_path_is_rejected_and_nothing_written(self, tmp_path, monkeypatch, key):
        cfg_path, cfg = _train_config(tmp_path, "empty")
        cfg[key] = ""
        cfg_path.write_text(json.dumps(cfg))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        before = sorted(tmp_path.rglob("*"))
        proc = run_cli("train", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {key} must be a path, got ''\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_missing_dataset_is_io_error(self, tmp_path):
        cfg_path, cfg = _train_config(tmp_path, "nods")
        cfg["dataset"] = str(tmp_path / "absent")
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("train", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert "absent" in proc.stderr

    def test_malformed_json_is_validation_error(self, tmp_path):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{not json")
        proc = run_cli("train", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {cfg_path}: Expecting property name")

    def test_config_that_is_not_utf8_is_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(b'{"dataset": "\xff"}')
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: 'utf-8' codec can't decode byte 0xff")

    def test_config_nested_too_deep_is_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_text("[" * 100_000)
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_unmakeable_output_dir_fails_before_pretraining(
        self, tmp_path, monkeypatch, command
    ):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        eval_img = tmp_path / "eval.pgm"
        save_image(ImageBuffer(np.full((1, 16, 16), 0.5)), eval_img)
        cfg_path, _ = _train_config(
            tmp_path, "unused", output_dir=str(blocker / "sub"),
            eval_list=[str(eval_img)],
        )
        calls = []
        monkeypatch.setattr(model, "pretrain", lambda *args: calls.append(args))
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        assert calls == []

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_patch_larger_than_an_image_fails_before_writing(self, tmp_path, command):
        eval_img = tmp_path / "eval.pgm"
        save_image(ImageBuffer(np.full((1, 16, 16), 0.5)), eval_img)
        cfg_path, _ = _train_config(
            tmp_path, "big", patch_size=32, pretrain_iters=0,
            eval_list=[str(eval_img)],
        )
        proc = run_cli(command, "--config", str(cfg_path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "patch 32x32 larger than image 24x24" in proc.stderr
        assert not (tmp_path / "big").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_patch_not_multiple_of_4_fails_before_writing(self, tmp_path, command):
        eval_img = tmp_path / "eval.pgm"
        save_image(ImageBuffer(np.full((1, 16, 16), 0.5)), eval_img)
        cfg_path, _ = _train_config(
            tmp_path, "odd", patch_size=10, pretrain_iters=0,
            eval_list=[str(eval_img)],
        )
        proc = run_cli(command, "--config", str(cfg_path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "patch size must be divisible by 4, got 10" in proc.stderr
        assert not (tmp_path / "odd").exists()

    def test_prints_history_path(self, tmp_path):
        cfg_path, _ = _train_config(tmp_path, "msg")
        proc = run_cli("train", "--config", str(cfg_path))
        assert proc.stdout.startswith("wrote ")
        assert proc.stdout.strip().endswith("history.csv")

    @pytest.mark.parametrize(
        "name", ["pretrain.csv", "history.csv", "checkpoint.hvgn", "manifest.json"]
    )
    def test_failed_replace_keeps_the_old_artifact(self, tmp_path, monkeypatch, name):
        cfg_path, cfg = _train_config(tmp_path, "atomic")
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "atomic"
        old = (out / name).read_bytes()
        # another seed changes every artifact's bytes
        cfg_path.write_text(json.dumps({**cfg, "seed": 1}))
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == name:
                raise OSError(f"cannot rename onto {dst}")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        assert (out / name).read_bytes() == old
        assert not (out / f"{name}.tmp").exists()


def _compare_config(tmp_path, **over):
    """``tmp_path/cfg.json``: a tiny compare run writing to ``tmp_path/out``."""
    corpus = tmp_path / "corpus"
    write_corpus(corpus, seed=0, count=2, size=24)
    eval_img = tmp_path / "eval.pgm"
    size_16 = np.random.default_rng(132).integers(0, 256, size=(16, 16))
    _write_pgm(eval_img, size_16)
    cfg = dict(
        dataset=str(corpus), output_dir=str(tmp_path / "out"), seed=0,
        pretrain_iters=2, adversarial_iters=2, batch_size=2, patch_size=8,
        lr=1e-3, lr_milestones=[2], gen_width=4, disc_width=4,
        eval_list=[str(eval_img)],
    )
    cfg.update(over)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("compare")
    proc = run_cli("compare", "--config", str(_compare_config(tmp_path)))
    return tmp_path / "out", proc


class TestCompare:
    def test_exit_and_results_table(self, compare_run):
        out, proc = compare_run
        assert proc.returncode == 0, proc.stderr
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "mode,psnr,ssim,gmsd,clamp_events"
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "linear", "hv_log", "hv_log_norm",
        ]

    def test_checkpoint_hash_is_logged_and_correct(self, compare_run):
        out, proc = compare_run
        sha = hashlib.sha256((out / "pretrained.hvgn").read_bytes()).hexdigest()
        assert sha in proc.stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pretrained_checkpoint_sha256"] == sha

    def test_hv_mode_rows_agree(self, compare_run):
        out, _ = compare_run
        lines = (out / "results.csv").read_text().splitlines()
        by_mode = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
        assert by_mode["hv_log"] == by_mode["hv_log_norm"]

    def test_per_mode_histories_written(self, compare_run):
        out, _ = compare_run
        for mode in ("linear", "hv_log", "hv_log_norm"):
            history = (out / mode / "history.csv").read_text().splitlines()
            assert len(history) == 3

    def test_zero_iteration_run(self, tmp_path):
        cfg_path = _compare_config(tmp_path, pretrain_iters=0, adversarial_iters=0)
        assert cli.main(["compare", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        header = ",".join(model.HistoryRow._fields) + "\n"
        for mode in ("linear", "hv_log", "hv_log_norm"):
            assert (out / mode / "history.csv").read_text() == header
        lines = (out / "results.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["linear", "hv_log", "hv_log_norm"]
        assert [r[-1] for r in rows] == ["0", "0", "0"]
        # no mode trained, so every row measures the pretrained generator
        assert rows[0][1:] == rows[1][1:] == rows[2][1:]
        manifest = json.loads((out / "manifest.json").read_text())
        outs = [Path(p).relative_to(out).as_posix() for p in manifest["outputs"]]
        assert outs == [
            "pretrained.hvgn", "pretrain.csv", "linear/history.csv",
            "hv_log/history.csv", "hv_log_norm/history.csv", "results.csv",
        ]
        _assert_only_manifest_outputs(out)

    def test_missing_eval_list_rejected(self, tmp_path):
        cfg_path, _ = _train_config(tmp_path, "noev")
        proc = run_cli("compare", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert "eval_list" in proc.stderr

    def test_missing_eval_image_fails_before_training(self, tmp_path):
        missing = tmp_path / "absent.pgm"
        cfg_path, _ = _train_config(tmp_path, "noimg", eval_list=[str(missing)])
        proc = run_cli("compare", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert "absent.pgm" in proc.stderr
        assert not (tmp_path / "noimg" / "pretrained.hvgn").exists()

    def test_eval_image_smaller_than_the_ssim_window_fails_before_writing(
        self, tmp_path
    ):
        small = tmp_path / "small.pgm"
        save_image(ImageBuffer(np.full((1, 8, 8), 0.5)), small)
        cfg_path, _ = _train_config(tmp_path, "small", eval_list=[str(small)])
        proc = run_cli("compare", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"eval image {small} is 8x8, smaller than the 11x11" in proc.stderr
        assert not (tmp_path / "small").exists()

    @pytest.mark.parametrize("h, w", [(18, 18), (16, 18), (18, 16)])
    def test_eval_image_not_divisible_by_4_fails_before_writing(
        self, tmp_path, capsys, h, w
    ):
        odd = tmp_path / "odd.pgm"
        save_image(ImageBuffer(np.full((1, h, w), 0.5)), odd)
        cfg_path, _ = _train_config(tmp_path, "odd", eval_list=[str(odd)])
        assert cli.main(["compare", "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: eval image {odd} is {h}x{w}, not divisible by 4 for the x4 downscale\n"
        )
        assert not (tmp_path / "odd").exists()

    def test_eval_image_channel_mismatch_is_named(self, tmp_path):
        rgb = tmp_path / "rgb.ppm"
        save_image(ImageBuffer(np.full((3, 16, 16), 0.5)), rgb)
        cfg_path, _ = _train_config(tmp_path, "rgb", eval_list=[str(rgb)])
        proc = run_cli("compare", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert "rgb.ppm" in proc.stderr
        assert not (tmp_path / "rgb" / "pretrained.hvgn").exists()

    def test_every_image_is_read_once(self, tmp_path, monkeypatch):
        reads = []

        def counted(path):
            reads.append(os.path.basename(path))
            return data_io.load_image(path)

        monkeypatch.setattr(model, "load_image", counted)
        monkeypatch.setattr(cli, "load_image", counted)
        eval_img = tmp_path / "eval.pgm"
        _write_pgm(eval_img, np.full((16, 16), 128))
        cfg_path, _ = _train_config(tmp_path, "once", eval_list=[str(eval_img)])
        assert cli.main(["compare", "--config", str(cfg_path)]) == 0
        corpus = sorted(os.listdir(tmp_path / "corpus"))
        assert sorted(reads) == sorted(corpus + ["eval.pgm"])

    @pytest.mark.parametrize("mode", ["linear", "hv_log", "hv_log_norm"])
    def test_train_writes_the_same_logs_as_compare(self, compare_run, tmp_path, mode):
        out, _ = compare_run
        cfg = json.loads((out.parent / "cfg.json").read_text())
        cfg.update(mode=mode, output_dir=str(tmp_path / "train"))
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("train", "--config", str(cfg_path))
        assert proc.returncode == 0, proc.stderr
        train_out = tmp_path / "train"
        assert (train_out / "pretrain.csv").read_bytes() == (
            out / "pretrain.csv"
        ).read_bytes()
        assert (train_out / "history.csv").read_bytes() == (
            out / mode / "history.csv"
        ).read_bytes()


# Small bounds under the standard loss: the hypervolume gaps clamp at eps.
CLAMPING = dict(adversarial="standard", norm_p=2, feature_tap="pre", mu=[1, 0.05, 0.5])
HISTORY_COLUMNS = model.HistoryRow._fields


def _history(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


@pytest.fixture(scope="module")
def clamping_runs(tmp_path_factory):
    """A compare run and one train run per hypervolume mode, on one clamping
    config: {"compare" | mode: output directory}."""
    tmp_path = tmp_path_factory.mktemp("clamping")
    cfg_path = _compare_config(tmp_path, adversarial_iters=4, **CLAMPING)
    assert cli.main(["compare", "--config", str(cfg_path)]) == 0
    runs = {"compare": tmp_path / "out"}
    cfg = json.loads(cfg_path.read_text())
    for mode in ("hv_log", "hv_log_norm"):
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps({**cfg, "mode": mode, "output_dir": str(tmp_path / mode)}))
        assert cli.main(["train", "--config", str(path)]) == 0
        runs[mode] = tmp_path / mode
    return runs


class TestHypervolumeModesShareOneTrajectory:
    """``compare`` trains hv_log once and derives hv_log_norm from it. That
    rests on both modes taking the same gradient weights, so that ``train``
    in either mode follows one trajectory, clamped gaps included."""

    def test_the_config_clamps(self, clamping_runs):
        clamped = HISTORY_COLUMNS.index("clamped")
        rows = _history(clamping_runs["hv_log"] / "history.csv")
        assert sum(int(r[clamped]) for r in rows) > 0

    def test_the_small_compare_fixture_clamps(self, compare_run):
        out, _ = compare_run
        lines = (out / "results.csv").read_text().splitlines()[1:]
        events = {ln.split(",")[0]: int(ln.split(",")[-1]) for ln in lines}
        assert events["hv_log"] == events["hv_log_norm"] > 0

    def test_train_checkpoints_are_byte_identical(self, clamping_runs):
        assert (clamping_runs["hv_log"] / "checkpoint.hvgn").read_bytes() == (
            clamping_runs["hv_log_norm"] / "checkpoint.hvgn"
        ).read_bytes()

    def test_train_histories_differ_only_in_scalar(self, clamping_runs):
        scalar = HISTORY_COLUMNS.index("scalar")
        rows = _history(clamping_runs["hv_log"] / "history.csv")
        norm_rows = _history(clamping_runs["hv_log_norm"] / "history.csv")
        assert len(rows) == len(norm_rows) == 4
        for row, norm_row in zip(rows, norm_rows):
            del row[scalar], norm_row[scalar]
            assert row == norm_row

    def test_hv_log_norm_scalar_is_the_normalized_loss(self, clamping_runs):
        scalar = HISTORY_COLUMNS.index("scalar")
        losses = slice(HISTORY_COLUMNS.index("l_gan"), HISTORY_COLUMNS.index("l_fea") + 1)
        for row in _history(clamping_runs["hv_log_norm"] / "history.csv"):
            want = scalarize(
                [float(v) for v in row[losses]], "hv_log_norm", CLAMPING["mu"]
            )
            assert float(row[scalar]) == want

    @pytest.mark.parametrize("mode", ["hv_log", "hv_log_norm"])
    def test_compare_writes_the_same_log_as_train(self, clamping_runs, mode):
        assert (clamping_runs["compare"] / mode / "history.csv").read_bytes() == (
            clamping_runs[mode] / "history.csv"
        ).read_bytes()


@pytest.fixture(scope="module")
def gradcheck_out():
    return run_cli("gradcheck")


class TestGradcheck:
    def test_exit_zero(self, gradcheck_out):
        assert gradcheck_out.returncode == 0, gradcheck_out.stderr

    def test_lists_every_primitive_once(self, gradcheck_out):
        from hvgan.autodiff import PRIMITIVES

        names = [line.split()[0] for line in gradcheck_out.stdout.splitlines()]
        assert names == sorted(PRIMITIVES)

    def test_errors_parse_and_pass_the_gate(self, gradcheck_out):
        for line in gradcheck_out.stdout.splitlines():
            err = float(line.split()[1])
            assert math.isfinite(err) and err <= 1e-4


class TestBrokenPipe:
    """A reader that closes stdout early ends the command quietly."""

    def _read_lines(self, count, *args):
        """Start ``hvgan *args``, read ``count`` lines of its stdout, close
        the pipe, and return (lines, exit code, stderr)."""
        env = {**os.environ, "PYTHONUNBUFFERED": "1"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "hvgan", *args], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        lines = [proc.stdout.readline() for _ in range(count)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return lines, proc.wait(timeout=120), err

    def test_pareto_front_larger_than_the_pipe(self, tmp_path):
        # about 340 kB of nondominated rows: more than a pipe holds, so the
        # writer is still writing when the reader leaves after one line
        n = 3000
        rows = [(i + 0.5) / (n + 1) for i in range(n)]
        text = "".join(f"{a!r},{1 - a!r},{a!r},{1 - a!r},{a!r},{1 - a!r}\n" for a in rows)
        assert len(text) > 1 << 18
        pts = tmp_path / "front.csv"
        pts.write_text(text)
        lines, code, err = self._read_lines(1, "pareto", str(pts))
        assert lines == [text.splitlines(keepends=True)[0]]
        assert (code, err) == (cli.EXIT_BROKEN_PIPE, "")

    def test_gradcheck(self):
        # gradcheck prints only after its checks, so a reader that leaves
        # at once is surely gone by then
        lines, code, err = self._read_lines(0, "gradcheck")
        assert (code, err) == (cli.EXIT_BROKEN_PIPE, "")


class TestSynthCommand:
    def test_writes_corpus(self, tmp_path):
        proc = run_cli("synth", "--out", str(tmp_path / "c"),
                       "--count", "3", "--size", "16")
        assert proc.returncode == 0
        assert proc.stdout == f"wrote 3 images to {tmp_path / 'c'}\n"
        assert sorted(p.name for p in (tmp_path / "c").iterdir()) == [
            "img_000.pgm", "img_001.pgm", "img_002.pgm",
        ]

    def test_negative_count_is_rejected_before_writing(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert cli.main(["synth", "--out", str(out), "--count", "-3"]) == 1
        assert "count" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_named_before_writing(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert cli.main(["synth", "--out", str(out), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "--seed: must be a non-negative integer, got -1" in err
        assert not out.exists()


class TestOutOfMemory:
    @pytest.mark.parametrize("command", ["hv", "synth"])
    def test_allocation_failure_is_one_error_line(
        self, tmp_path, monkeypatch, capsys, command
    ):
        def fail(*args):
            raise MemoryError("Unable to allocate 146. TiB for an array")

        monkeypatch.setattr(cli, "hypervolume_mc", fail)
        monkeypatch.setattr(cli, "write_corpus", fail)
        pts = tmp_path / "p.csv"
        pts.write_text("1,2\n2,1\n")
        argv = {
            "hv": ["hv", str(pts), "--ref", "3,3", "--mc", "10000000000000"],
            "synth": ["synth", "--out", str(tmp_path / "c"), "--size", "10000000"],
        }[command]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert err == "error: Unable to allocate 146. TiB for an array\n"
        if command == "hv":
            assert out == ""


class TestInterrupt:
    def test_interrupted_hv_prints_one_line_and_exits_130(
        self, tmp_path, monkeypatch, capsys
    ):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "hypervolume_mc", interrupt)
        pts = tmp_path / "g.csv"
        pts.write_text("1,2\n2,1\n")
        argv = ["hv", str(pts), "--ref", "3,3", "--mc", "100000000000"]
        assert _interrupted_main(argv) == cli.EXIT_INTERRUPTED == 130
        assert capsys.readouterr() == ("", "interrupted\n")


TRAINING_MODULES = ("hvgan.autodiff", "hvgan.losses", "hvgan.model", "hvgan.scalarize")
# only train and compare read a config and write a manifest
RUN_MODULES = (*TRAINING_MODULES, "json")

# Runs cli.main on each argv of the list literal in sys.argv[1], then prints
# which of RUN_MODULES the interpreter has loaded as its last stdout line.
# It reads and prints through ast and repr, so that the probe itself does not
# load json.
_IMPORT_PROBE = (
    "import ast, sys\n"
    "from hvgan.cli import main\n"
    "for argv in ast.literal_eval(sys.argv[1]):\n"
    "    assert main(argv) == 0, argv\n"
    f"print(repr(sorted(set({RUN_MODULES!r}) & set(sys.modules))))\n"
)


class TestImportBoundary:
    """Each command imports only what it runs: the multi-objective and image
    commands start without compiling the training code or loading json."""

    def _loaded(self, *argvs):
        env = {**os.environ, "PYTHONPATH": str(Path(hvgan.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, repr(argvs)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return tuple(ast.literal_eval(proc.stdout.splitlines()[-1]))

    def test_utility_commands_leave_the_training_code_unloaded(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("1,2\n2,1\n")
        img = tmp_path / "a.pgm"
        save_image(ImageBuffer(np.full((1, 16, 16), 0.5)), img)
        assert self._loaded(
            ["hv", str(pts), "--ref", "3,3", "--mc", "100"],
            ["pareto", str(pts)],
            ["eval", "--ref", str(img), "--test", str(img)],
            ["synth", "--out", str(tmp_path / "c"), "--count", "1", "--size", "16"],
        ) == ()

    def test_zero_iteration_train_loads_it(self, tmp_path):
        cfg_path, _ = _train_config(
            tmp_path, "zero", pretrain_iters=0, adversarial_iters=0
        )
        assert self._loaded(["train", "--config", str(cfg_path)]) == RUN_MODULES


class TestMisc:
    def test_version(self):
        from hvgan import __version__

        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"hvgan {__version__}"

    def test_no_subcommand_is_usage_error(self):
        assert run_cli().returncode == 2

    def test_malformed_flag_value_is_usage_error(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("1,2\n2,1\n")
        proc = run_cli("hv", str(pts), "--ref", "3", "--mc", "abc")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: hvgan hv ")
        assert proc.stderr.splitlines()[-1] == (
            "hvgan hv: error: argument --mc: invalid int value: 'abc'"
        )
