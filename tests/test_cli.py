import csv
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdm import cli, model_io, pose, theory
from sdm.cli import COMMANDS, REQUIRED, main
from sdm.analytic import registry
from sdm.core import DescentSequence, DescentStep, Mode
from sdm.errors import DivergedError
from sdm.trainer import GRID_CAP

# keep the pose runs desk-sized: coarse grids, small subsample
POSE_SMALL = [
    "--train-rot-step", "15", "--train-trans-step", "400",
    "--test-rot-step", "11", "--test-trans-step", "270",
    "--subsample", "40",
]


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class TestAnalyticCommand:
    def test_full_registry_writes_four_csvs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["analytic", "--output-dir", str(out)]) == 0
        files = sorted(p.name for p in out.glob("analytic_*.csv"))
        assert files == [
            "analytic_cube.csv", "analytic_erf.csv", "analytic_exp.csv",
            "analytic_linear.csv",
        ]

    def test_single_function(self, tmp_path):
        out = tmp_path / "out"
        assert main(["analytic", "--function", "cube", "--output-dir", str(out)]) == 0
        assert [p.name for p in out.glob("analytic_*.csv")] == ["analytic_cube.csv"]
        text = (out / "analytic_cube.csv").read_text()
        assert text.startswith("#")  # constants header for provenance
        assert "mean_normalized_residual" in text

    def test_unknown_function_is_config_error(self, tmp_path):
        assert main(["analytic", "--function", "nope", "--output-dir", str(tmp_path)]) == 2

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(
                ["analytic", "--function", "linear", "--seed", "7", "--output-dir", str(out)]
            ) == 0
        assert read_bytes(a / "analytic_linear.csv") == read_bytes(b / "analytic_linear.csv")


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path, capsys):
        assert main(["verify", "--output-dir", str(tmp_path)]) == 0
        assert "True" in capsys.readouterr().out

    def test_oversized_epsilon_is_config_error(self, tmp_path, capsys):
        assert main(["verify", "--epsilon", "100", "--output-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # refused before anything is printed
        assert "configuration error: epsilon must be below 2/K = 1 for map linear" in err

    def test_zero_radius_is_config_error(self, tmp_path):
        assert main(["verify", "--radius", "0", "--output-dir", str(tmp_path)]) == 2

    def test_radius_past_exp_overflow_is_config_error(self, tmp_path, capsys):
        assert main(["verify", "--radius", "1000", "--output-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # refused before anything is printed
        assert "configuration error: map 'exp' is not finite" in err
        assert not (tmp_path / "certificates.csv").exists()

    @pytest.mark.parametrize("radius, culprit", [("1e52", "exp"), ("1e155", "cube"),
                                                 ("5e307", "cube"), ("8e307", "cube")])
    def test_radius_past_the_square_overflow_is_config_error(self, tmp_path, capsys, radius,
                                                             culprit):
        # norms of differences near 1e156 used to overflow in their squares; past 2**1023
        # (from a radius of about 4.5e307) a row's power-of-two scale, 2**1024, is not a float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--radius", radius, "--output-dir", str(tmp_path)]) == 2
        assert f"configuration error: map '{culprit}' is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["5e-324", "1e-310"])
    def test_subnormal_radius_is_config_error(self, tmp_path, capsys, radius):
        # the sample's cosines would underflow, and a linear map read as not monotone
        assert main(["verify", "--radius", radius, "--grid", "101",
                     "--output-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "configuration error: neighborhood radius must be finite and positive" in err

    @pytest.mark.parametrize("radius", ["1e308", "9e307"])
    def test_radius_whose_span_overflows_is_config_error(self, tmp_path, capsys, radius):
        # refused before the sample is drawn, so linspace and the norms never see it
        assert main(["verify", "--radius", radius, "--output-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"configuration error: neighborhood radius {float(radius)} overflows its "
                       "span around the anchor\n")

    @pytest.mark.parametrize("radius", ["1e-5", "1e-7"])
    def test_small_radius_passes(self, tmp_path, radius):
        # monotonicity is judged by the cosine, which does not shrink with the radius
        assert main(["verify", "--radius", radius, "--grid", "101",
                     "--output-dir", str(tmp_path)]) == 0

    def test_one_sample_per_neighborhood(self, tmp_path, monkeypatch):
        calls = []
        real = theory.neighborhood_points

        def counting(nbhd, seed=0):
            calls.append(nbhd)
            return real(nbhd, seed=seed)

        monkeypatch.setattr(theory, "neighborhood_points", counting)
        assert main(["verify", "--grid", "101", "--output-dir", str(tmp_path)]) == 0
        assert len(calls) == 4 + 10  # registry maps, then random maps

    def test_one_lipschitz_constant_per_sample(self, tmp_path, monkeypatch):
        calls = []
        real = theory.lipschitz_anchored

        def counting(sample):
            calls.append(sample.map.name)
            return real(sample)

        monkeypatch.setattr(theory, "lipschitz_anchored", counting)
        assert main(["verify", "--grid", "101", "--output-dir", str(tmp_path)]) == 0
        assert len(calls) == len(set(calls)) == 4 + 10  # once per map and its sample

    def test_negative_seed_is_a_config_error_that_names_the_seed(self, tmp_path, capsys):
        assert main(["verify", "--seed", "-1", "--output-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "configuration error: seed must be >= 0, got -1\n"
        assert main(["verify", "--seed", "0", "--grid", "101", "--output-dir", str(tmp_path)]) == 0

    def test_a_fault_in_sampling_is_not_a_config_error(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("a numpy fault")

        monkeypatch.setattr(theory, "_row_norms", broken)
        with pytest.raises(ValueError, match="a numpy fault"):
            main(["verify", "--grid", "101", "--output-dir", str(tmp_path)])
        assert "configuration error" not in capsys.readouterr().err


class TestParserReuse:
    def test_two_calls_in_one_process_write_what_two_processes_write(self, tmp_path, capsys):
        runs = (["verify", "--radius", "0.5"], ["verify"])
        printed = []
        for i, args in enumerate(runs):
            assert main([*args, "--output-dir", str(tmp_path / f"in-process-{i}")]) == 0
            printed.append(capsys.readouterr().out)
        assert cli.build_parser() is cli.build_parser()
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        for i, args in enumerate(runs):
            out = tmp_path / f"fresh-{i}"
            fresh = subprocess.run([sys.executable, "-m", "sdm.cli", *args, "--output-dir", str(out)],
                                   capture_output=True, text=True, env=env, check=True)
            assert fresh.stdout == printed[i]
            assert (read_bytes(tmp_path / f"in-process-{i}" / "certificates.csv")
                    == read_bytes(out / "certificates.csv"))


class TestOnlineDemoCommand:
    def test_default_passes(self, tmp_path):
        assert main(["online-demo", "--output-dir", str(tmp_path)]) == 0

    def test_forgetting_passes(self, tmp_path):
        assert main(["online-demo", "--forgetting", "0.9", "--output-dir", str(tmp_path)]) == 0

    def test_forgetting_out_of_range_is_config_error(self, tmp_path):
        assert main(["online-demo", "--forgetting", "1.5", "--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("ridge", ["1e150", "1e160", "1e200", "1e300", "1e308"])
    def test_a_large_ridge_is_measured(self, tmp_path, capsys, ridge):
        # the batch weights are near 1 / ridge, and the squares of their
        # difference from the recursive weights would underflow unscaled
        assert main(["online-demo", "--ridge", ridge, "--output-dir", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        worst = float(out.splitlines()[-1].split()[2])
        assert 0 < worst <= 1e-12

    def test_a_forgetting_factor_that_overflows_the_state_fails(self, tmp_path, capsys):
        argv = ["online-demo", "--forgetting", "1e-300", "--output-dir", str(tmp_path)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: folding stage 0 at scale ") and err.count("\n") == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_deviation_that_is_not_finite_fails(self, tmp_path, monkeypatch, capsys, bad):
        devs = iter([1e-9, bad, 1e-9])
        monkeypatch.setattr(cli, "batch_deviation", lambda *args, **kwargs: next(devs))
        assert main(["online-demo", "--output-dir", str(tmp_path)]) == 1
        assert f"max deviation {bad:.3e}" in capsys.readouterr().out


class TestPoseCommand:
    def test_small_run_writes_results_and_timings(self, tmp_path):
        out = tmp_path / "out"
        assert main(["pose", "--output-dir", str(out), *POSE_SMALL]) == 0
        results = out / "pose_results_cube.csv"
        assert results.exists() and (out / "pose_timings_cube.csv").exists()
        with open(results) as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "model"
        assert len(rows) == 41
        assert all(float(r[13]) >= 0 for r in rows[1:])  # rot_err_deg column

    def test_results_csv_deterministic_timings_sidecar(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["pose", "--seed", "3", "--output-dir", str(out), *POSE_SMALL]) == 0
        assert read_bytes(a / "pose_results_cube.csv") == read_bytes(b / "pose_results_cube.csv")

    def test_unknown_model_is_config_error(self, tmp_path):
        assert main(["pose", "--model", "pyramid", "--output-dir", str(tmp_path)]) == 2

    def test_unknown_model_is_refused_before_anything_is_printed(self, tmp_path, capsys):
        assert main(["pose", "--model", "nope", "--output-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("configuration error: model must be cube or body or face or all, "
                       "got 'nope'\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("steps", [
        ["--train-rot-step", "1e-300"],
        ["--train-rot-step", "2", "--train-trans-step", "50"],
        [*POSE_SMALL[:4], "--test-rot-step", "1e-300"],
        [*POSE_SMALL[:4], "--test-rot-step", "1e-3", "--test-trans-step", "1e-3"],
    ])
    def test_grid_past_the_cap_is_config_error(self, tmp_path, capsys, steps):
        # a library SettingError, raised by trainer.grid_offsets, exits 2 from `main`
        out_dir = tmp_path / "out"
        assert main(["pose", *steps, "--output-dir", str(out_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"configuration error: grid has more than {GRID_CAP} points; "
                       "use larger steps\n")
        assert not out_dir.exists()

    def test_a_failing_model_leaves_stdout_empty(self, tmp_path, monkeypatch, capsys):
        real = pose.run_protocol

        def second_fails(model, *args, **kwargs):
            if model.name != "cube":
                raise DivergedError("the cascade produced a non-finite iterate", None)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(pose, "run_protocol", second_fails)
        assert main(["pose", "--model", "all", *POSE_SMALL, "--output-dir", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""  # cube ran, but its line waits for every model
        assert err == "error: the cascade produced a non-finite iterate\n"

    @staticmethod
    def _mean_errors(path):
        with open(path) as f:
            rows = [r for r in csv.reader(f)][1:]
        rot = np.array([float(r[13]) for r in rows])
        trans = np.array([float(r[14]) for r in rows])
        return rot, trans

    def test_zero_noise_strictly_beats_default(self, tmp_path):
        noisy, clean = tmp_path / "noisy", tmp_path / "clean"
        assert main(["pose", "--output-dir", str(noisy), *POSE_SMALL]) == 0
        assert main(["pose", "--output-dir", str(clean), "--noise", "0", *POSE_SMALL]) == 0
        rot_n, tr_n = self._mean_errors(noisy / "pose_results_cube.csv")
        rot_c, tr_c = self._mean_errors(clean / "pose_results_cube.csv")
        assert rot_c.mean() < rot_n.mean()
        assert tr_c.mean() < tr_n.mean()

    def test_full_grid_consistent_with_subsample(self, tmp_path):
        # scaled-down version: the small test grid has 375 poses in total
        full, sub = tmp_path / "full", tmp_path / "sub"
        base = ["pose", "--seed", "5", "--no-gauss-newton",
                "--train-rot-step", "15", "--train-trans-step", "400",
                "--test-rot-step", "15", "--test-trans-step", "400"]
        assert main(base + ["--subsample", "0", "--output-dir", str(full)]) == 0
        assert main(base + ["--subsample", "150", "--output-dir", str(sub)]) == 0
        rot_f, _ = self._mean_errors(full / "pose_results_cube.csv")
        rot_s, _ = self._mean_errors(sub / "pose_results_cube.csv")
        pooled_se = np.sqrt(rot_f.var() / len(rot_f) + rot_s.var() / len(rot_s))
        assert abs(rot_f.mean() - rot_s.mean()) <= 3 * pooled_se


class TestTrainApply:
    def test_analytic_round_trip(self, tmp_path):
        model_file = tmp_path / "cube.sdm"
        assert main(
            ["train", "--problem", "analytic", "--function", "cube",
             "--out", str(model_file), "--output-dir", str(tmp_path)]
        ) == 0
        targets = tmp_path / "targets.csv"
        with open(targets, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["target"])
            for y in (0.5, 1.0, 2.2):
                w.writerow([y])
        estimates = tmp_path / "estimates.csv"
        assert main(
            ["apply", "--problem", "analytic", "--function", "cube",
             "--model-file", str(model_file), "--inputs", str(targets),
             "--out", str(estimates), "--output-dir", str(tmp_path)]
        ) == 0
        with open(estimates) as f:
            rows = list(csv.reader(f))[1:]
        for y, x in ((float(r[0]), float(r[1])) for r in rows):
            assert x == pytest.approx(np.cbrt(y), abs=2e-2)

    def test_pose_round_trip(self, tmp_path):
        from sdm import pose as pose_mod

        model_file = tmp_path / "cube_pose.sdm"
        assert main(
            ["train", "--problem", "pose", "--model", "cube", "--noise", "0",
             "--train-rot-step", "15", "--train-trans-step", "400",
             "--out", str(model_file), "--output-dir", str(tmp_path)]
        ) == 0
        truth = pose_mod.Pose(euler=[0.1, -0.05, 0.2], translation=[50.0, -80.0, 2100.0])
        proj = pose_mod.observe(truth, pose_mod.builtin_models()["cube"],
                                pose_mod.DEFAULT_CAMERA)
        obs = tmp_path / "obs.csv"
        with open(obs, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow([f"c{i}" for i in range(16)])
            w.writerow(list(proj.points2d.ravel(order="F")))
        estimates = tmp_path / "poses.csv"
        assert main(
            ["apply", "--problem", "pose", "--model", "cube",
             "--model-file", str(model_file), "--inputs", str(obs),
             "--out", str(estimates), "--output-dir", str(tmp_path)]
        ) == 0
        with open(estimates) as f:
            row = list(csv.reader(f))[1]
        est = pose_mod.Pose(euler=[float(v) for v in row[:3]],
                            translation=[float(v) for v in row[3:]])
        rot_err, trans_err = pose_mod.pose_error(est, truth)
        assert rot_err < 0.5 and trans_err < 10.0

    def test_pose_model_file_is_the_protocol_training(self, tmp_path):
        from sdm import pose as pose_mod

        model_file = tmp_path / "body.sdm"
        assert main(["train", "--problem", "pose", "--model", "body", "--seed", "7",
                     "--train-rot-step", "15", "--train-trans-step", "400",
                     "--out", str(model_file), "--output-dir", str(tmp_path)]) == 0
        seq = pose_mod.train_protocol(pose_mod.builtin_models()["body"], 7,
                                      rot_step_deg=15.0, trans_step_mm=400.0)
        assert model_file.read_bytes() == model_io.sequence_bytes(seq)

    @pytest.mark.parametrize("problem", ["analytic", "pose"])
    def test_rows_equal_one_row_runs(self, tmp_path, problem):
        from sdm import pose as pose_mod
        from sdm.core import apply_sequence

        model_file = tmp_path / "model.sdm"
        train = (["--problem", "analytic", "--function", "exp"] if problem == "analytic" else
                 ["--problem", "pose", "--model", "cube", "--train-rot-step", "15",
                  "--train-trans-step", "400"])
        assert main(["train", *train, "--out", str(model_file),
                     "--output-dir", str(tmp_path)]) == 0
        seq = model_io.load_sequence(model_file)
        rng = np.random.default_rng(3)
        if problem == "analytic":
            fn = registry()["exp"]
            rows = [[y] for y in rng.uniform(0.5, 2.5, 7)]
            want = [[y, apply_sequence(seq, [fn.x0], fn.smooth_map(), [y])[-1, 0]]
                    for (y,) in rows]
        else:
            cube, cam = pose_mod.builtin_models()["cube"], pose_mod.DEFAULT_CAMERA
            truths = [pose_mod.Pose(euler=rng.uniform(-0.3, 0.3, 3),
                                    translation=rng.uniform(-200, 200, 3) + [0, 0, 2000])
                      for _ in range(7)]
            projections = [pose_mod.observe(t, cube, cam, rng, 4.0) for t in truths]
            rows = [list(proj.points2d.ravel(order="F")) for proj in projections]
            want = [[*est.euler, *est.translation] for est, _ in
                    (pose_mod.estimate_pose(seq, proj, cube, cam) for proj in projections)]
        inputs, out = tmp_path / "inputs.csv", tmp_path / "out.csv"
        with open(inputs, "w", newline="") as f:
            csv.writer(f).writerows([[f"c{i}" for i in range(len(rows[0]))], *rows])
        assert main(["apply", *train[:4], "--model-file", str(model_file), "--inputs",
                     str(inputs), "--out", str(out), "--output-dir", str(tmp_path)]) == 0
        with open(out) as f:
            got = [[float(v) for v in row] for row in list(csv.reader(f))[1:]]
        assert got == [[float(v) for v in row] for row in want]

    def test_first_diverging_row_in_file_order_fails(self, tmp_path, capsys):
        from sdm import pose as pose_mod

        # a huge gain throws an observation left of and above the base pose's
        # behind the camera, and keeps the base pose's
        huge = DescentStep(gain=1e9 * np.ones((6, 16)), bias=np.zeros(6))
        model_io.save_sequence(DescentSequence(steps=(huge, huge), param_dim=6, feature_dim=16,
                                               mode=Mode.REVERSED), tmp_path / "huge.sdm")
        cube, cam = pose_mod.builtin_models()["cube"], pose_mod.DEFAULT_CAMERA
        base = pose_mod.observe(pose_mod.DEFAULT_BASE_POSE, cube, cam).points2d
        inputs = tmp_path / "obs.csv"
        with open(inputs, "w", newline="") as f:
            csv.writer(f).writerows([[f"c{i}" for i in range(16)]] + [
                list((base + shift).ravel(order="F")) for shift in (0.0, 0.0, -1.0, -2.0)])
        out = tmp_path / "out.csv"
        assert main(["apply", "--problem", "pose", "--model-file", str(tmp_path / "huge.sdm"),
                     "--inputs", str(inputs), "--out", str(out),
                     "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {inputs}:4: the cascade produced a non-finite iterate\n")
        assert not out.exists()

    def test_last_stage_overflow_fails_naming_its_line(self, tmp_path, capsys):
        from sdm import pose as pose_mod

        # the map stays finite; a gain near the largest float overflows the one
        # update of an observation 0.5 off the base pose's features, not of the base
        wild = DescentStep(gain=1e308 * np.ones((6, 16)), bias=np.zeros(6))
        model_io.save_sequence(DescentSequence(steps=(wild,), param_dim=6, feature_dim=16,
                                               mode=Mode.REVERSED), tmp_path / "wild.sdm")
        cam = pose_mod.DEFAULT_CAMERA
        base = pose_mod.observe(pose_mod.DEFAULT_BASE_POSE, pose_mod.builtin_models()["cube"],
                                cam).points2d
        shift = -0.5 * np.array([[cam.fx], [cam.fy]])
        inputs, out = tmp_path / "obs.csv", tmp_path / "out.csv"
        with open(inputs, "w", newline="") as f:
            csv.writer(f).writerows([[f"c{i}" for i in range(16)]] + [
                list((base + s).ravel(order="F")) for s in (0.0, shift)])
        assert main(["apply", "--problem", "pose", "--model-file", str(tmp_path / "wild.sdm"),
                     "--inputs", str(inputs), "--out", str(out),
                     "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {inputs}:3: the cascade produced a non-finite iterate\n")
        assert not out.exists()

    def test_train_requires_out(self, tmp_path):
        assert main(["train", "--problem", "analytic", "--output-dir", str(tmp_path)]) == 2


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv, path", [
        (["verify", "--output-dir", "{f}/sub"], "{f}/sub"),
        (["analytic", "--function", "linear", "--output-dir", "{f}"], "{f}"),
        (["online-demo", "--output-dir", "{f}"], "{f}"),
        (["train", "--problem", "analytic", "--function", "exp", "--out", "{f}/m.sdm",
          "--output-dir", "{d}"], "{f}/m.sdm"),
    ], ids=["verify", "analytic", "online-demo", "train"])
    def test_exit_2_naming_the_path(self, tmp_path, capsys, argv, path):
        afile = tmp_path / "afile"  # a regular file where a directory is needed
        afile.write_text("")
        assert main([a.format(f=afile, d=tmp_path) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # refused before the command runs or prints
        assert err.startswith("configuration error: cannot write ")
        assert path.format(f=afile) in err

    @pytest.mark.parametrize("argv, choices", [
        (["analytic", "--function", "nope"],
         "function must be linear or cube or exp or erf or all"),
        (["pose", "--model", "nope"], "model must be cube or body or face or all"),
        (["train", "--model", "nope", "--out", "{d}/m.sdm"], "model must be cube or body or face"),
        (["apply", "--problem", "analytic", "--function", "nope", "--model-file", "{d}/m.sdm",
          "--inputs", "{d}/in.csv", "--out", "{d}/out.csv"],
         "function must be linear or cube or exp or erf"),
    ], ids=["analytic", "pose", "train", "apply"])
    def test_an_unknown_name_is_refused_before_the_output_directory(self, tmp_path, capsys,
                                                                     argv, choices):
        afile = tmp_path / "afile"
        afile.write_text("")
        argv = [a.format(d=tmp_path) for a in argv]
        assert main([*argv, "--output-dir", str(afile / "sub")]) == 2
        assert capsys.readouterr() == ("", f"configuration error: {choices}, got 'nope'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]


class TestOutOfRangeSettings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pose", "--stages", "0"],
            ["analytic", "--stages", "0"],
            ["train", "--stages", "0", "--out", "model.sdm"],
            ["train", "--problem", "analytic", "--stages", "0", "--out", "model.sdm"],
            ["pose", "--train-rot-step", "0"],
            ["pose", "--train-trans-step", "0"],
            ["pose", "--test-rot-step", "-7"],
            ["pose", "--test-trans-step", "0"],
            ["train", "--train-rot-step", "0", "--out", "model.sdm"],
            ["pose", "--noise", "-1"],
            ["pose", "--noise", "nan"],
            ["train", "--noise", "-1", "--out", "model.sdm"],
            ["pose", "--ridge", "-1"],
            ["pose", "--subsample", "-1"],
            ["verify", "--grid", "2"],
            ["verify", "--grid", "0"],
            ["verify", "--grid", "100001"],  # above theory.LATTICE_CAP, the lattice budget
            ["verify", "--radius", "nan"],
            ["online-demo", "--ridge", "-1"],
            ["online-demo", "--ridge", "0"],
            ["online-demo", "--ridge", "nan"],
            ["online-demo", "--ridge", "inf"],
            ["online-demo", "--ridge", "1e-320"],
        ],
    )
    def test_exit_2_with_a_configuration_error(self, argv, tmp_path, capsys):
        argv = [str(tmp_path / a) if a == "model.sdm" else a for a in argv]
        assert main([*argv, "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "must be" in err
        assert not (tmp_path / "model.sdm").exists()


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("function = linear\nstages = 12\n# comment\n")
        out = tmp_path / "out"
        assert main(["analytic", "--config", str(cfg), "--output-dir", str(out)]) == 0
        assert [p.name for p in out.glob("*.csv")] == ["analytic_linear.csv"]
        with open(out / "analytic_linear.csv") as f:
            rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
        assert rows[-1][1] == "12"  # stages from the file

        out2 = tmp_path / "out2"
        assert main(
            ["analytic", "--config", str(cfg), "--function", "cube",
             "--output-dir", str(out2)]
        ) == 0
        assert [p.name for p in out2.glob("*.csv")] == ["analytic_cube.csv"]

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("stages\n")
        assert main(["analytic", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2

    def test_unconvertible_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("function = linear\nstages = abc\n")
        assert main(["analytic", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
        assert f"{cfg}:2: stages must be int, got 'abc'" in capsys.readouterr().err

    def test_problem_outside_its_choices_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("problem = nope\n")
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "m.sdm")]
        assert main([*argv, "--output-dir", str(tmp_path)]) == 2
        assert "problem must be pose or analytic, got 'nope'" in capsys.readouterr().err
        assert not (tmp_path / "m.sdm").exists()

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "absent.cfg"
        assert main(["analytic", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
        assert f"configuration error: cannot read config file {cfg}" in capsys.readouterr().err

    def test_key_the_command_does_not_take_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("function = linear\nstage = 3\n")
        assert main(["analytic", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "takes no key 'stage'" in err and "stages" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command,lines,name", [
        ("verify", ["grid = 101", "grid = 5"], "grid"),
        ("verify", ["seed = 1", "# the same key again", "seed = 2"], "seed"),
        ("pose", ["train-rot-step = 15", "train_rot_step = 20"], "train-rot-step"),
    ], ids=["grid", "seed", "dash-and-underscore"])
    def test_a_key_given_twice_is_refused_at_its_second_line(self, tmp_path, capsys, command,
                                                              lines, name):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:{len(lines)}: {name} was already given on line 1" in err
        assert not out.exists()

    def test_output_dir_from_the_file_receives_run_log(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("output-dir = results\nfunction = linear\n")
        assert main(["analytic", "--config", str(cfg)]) == 0
        assert (tmp_path / "results" / "analytic_linear.csv").exists()
        assert (tmp_path / "results" / "run.log").exists()
        assert not (tmp_path / "out" / "run.log").exists()


def save_zero_model(path, param_dim, feature_dim, mode):
    zero = DescentStep(gain=np.zeros((param_dim, feature_dim)), bias=np.zeros(param_dim))
    model_io.save_sequence(
        DescentSequence(steps=(zero,), param_dim=param_dim, feature_dim=feature_dim, mode=mode),
        path,
    )


class TestApplyInputs:
    """Each unreadable or malformed input ends in exit 2 naming the file."""

    @pytest.fixture
    def files(self, tmp_path):
        save_zero_model(tmp_path / "analytic.sdm", 1, 1, Mode.GENERALIZED)
        save_zero_model(tmp_path / "cube.sdm", 6, 16, Mode.REVERSED)
        return tmp_path

    def apply(self, tmp_path, problem, model_file, inputs):
        out = tmp_path / "result.csv"
        code = main(["apply", "--problem", problem, "--model-file", str(model_file),
                     "--inputs", str(inputs), "--out", str(out), "--output-dir", str(tmp_path)])
        assert not out.exists()
        return code

    def test_missing_model_file(self, files, capsys):
        inputs = files / "targets.csv"
        inputs.write_text("target\n1.0\n")
        assert self.apply(files, "analytic", files / "absent.sdm", inputs) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read model file")
        assert "absent.sdm" in err

    def test_missing_inputs(self, files, capsys):
        assert self.apply(files, "analytic", files / "analytic.sdm", files / "absent.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read inputs file")
        assert "absent.csv" in err

    def test_non_numeric_cell_names_the_line(self, files, capsys):
        inputs = files / "targets.csv"
        inputs.write_text("target\n1.0\n# a comment\nabc\n")
        assert self.apply(files, "analytic", files / "analytic.sdm", inputs) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {inputs}:4:")

    def test_empty_inputs(self, files, capsys):
        inputs = files / "empty.csv"
        inputs.write_text("")
        assert self.apply(files, "analytic", files / "analytic.sdm", inputs) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: inputs file {inputs} has no header row"
        )

    @pytest.mark.parametrize("problem, model_file, header, row", [
        ("pose", "cube.sdm", ["c"] * 16, ["100.0"] * 15),
        ("pose", "cube.sdm", ["c"] * 16, ["100.0"] * 17),
        ("analytic", "analytic.sdm", ["target"], ["1.0", "7.0"]),  # no cell is dropped
    ], ids=["pose-15", "pose-17", "analytic-2"])
    def test_row_of_the_wrong_width_names_the_line(self, files, capsys, problem, model_file,
                                                   header, row):
        inputs = files / "inputs.csv"
        inputs.write_text(",".join(header) + "\n" + ",".join(row) + "\n2.0\n")
        assert self.apply(files, problem, files / model_file, inputs) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {inputs}:2: expected {len(header)} values, "
                              f"got {len(row)}")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("problem, model_file, width", [("analytic", "analytic.sdm", 1),
                                                            ("pose", "cube.sdm", 16)])
    def test_non_finite_cell_names_the_line(self, files, capsys, problem, model_file, width,
                                            cell):
        inputs = files / "inputs.csv"
        row = ["500.0"] * (width - 1) + [cell]
        inputs.write_text(",".join(["c"] * width) + "\n" + ",".join(row) + "\n")
        assert self.apply(files, problem, files / model_file, inputs) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: {inputs}:2: expected finite numbers")

    @pytest.mark.parametrize("problem, model_file", [("analytic", "cube.sdm"),
                                                     ("pose", "analytic.sdm")])
    def test_model_of_the_wrong_size_is_refused(self, files, capsys, problem, model_file):
        inputs = files / "inputs.csv"
        inputs.write_text("target\n1.0\n")
        assert self.apply(files, problem, files / model_file, inputs) == 2
        p, m = (6, 16) if model_file == "cube.sdm" else (1, 1)
        assert capsys.readouterr().err.startswith(
            f"configuration error: model file maps {p} parameters to {m} features")

    def test_malformed_model_file_stays_exit_1(self, files, capsys):
        (files / "bad.sdm").write_bytes(b"not a model")
        inputs = files / "targets.csv"
        inputs.write_text("target\n1.0\n")
        assert self.apply(files, "analytic", files / "bad.sdm", inputs) == 1
        assert capsys.readouterr().err.startswith("error:")


# Values that break each rule, as (int, float) strategies; NaN breaks every rule.
RULE_BREAKERS = {
    "> 0": (st.integers(max_value=0), st.floats(max_value=0.0)),
    # 1 / 5e-309 overflows, as does the reciprocal of every subnormal
    "> 0 with a finite reciprocal": (st.integers(max_value=0),
                                     st.floats(max_value=0.0) | st.floats(5e-324, 5e-309)),
    ">= 0": (st.integers(max_value=-1), st.floats(max_value=-1e-300)),
    f"in [3, {theory.LATTICE_CAP}]": (
        st.integers(max_value=2) | st.integers(min_value=theory.LATTICE_CAP + 1),
        st.floats(max_value=2.9) | st.floats(min_value=theory.LATTICE_CAP + 0.5)),
    "in (0, 1]": (st.integers(max_value=0) | st.integers(min_value=2),
                  st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True)),
}
SETTINGS = [(c, n, s) for c, (_, _, table) in COMMANDS.items() for n, s in table.items()]
RULED = [entry for entry in SETTINGS if entry[2].rule]
TYPED = [entry for entry in SETTINGS if entry[2].type in (int, float, bool) or entry[2].choices]


def ids(entries):
    return [f"{command}-{name}" for command, name, _ in entries]


def converts(setting, text):
    if setting.choices:
        return text in setting.choices
    if setting.type is bool:
        return text.lower() in ("1", "true", "yes", "on", "0", "false", "no", "off")
    try:
        setting.type(text)
    except ValueError:
        return False
    return True


def run_in_scratch(command, args, config_text=None):
    """Run `command` in a fresh directory with `args`, its required settings
    and, when given, a config file; returns (exit code, stdout, stderr, files written)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [command, *args, "--output-dir", str(tmp / "results")]
        for name, setting in COMMANDS[command][2].items():
            if setting.default is REQUIRED:
                argv.append(f"--{name.replace('_', '-')}={tmp / name}")
        if config_text is not None:
            (tmp / "bench.cfg").write_text(config_text)
            argv += ["--config", str(tmp / "bench.cfg")]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        written = sorted(p.name for p in tmp.rglob("*") if p.name != "bench.cfg")
    return code, out.getvalue(), err.getvalue(), written


class TestSettingsTable:
    """Properties drawn from the settings table itself, so that a new
    setting is covered without a new test."""

    def test_every_rule_has_breaking_values(self):
        assert {s.rule for _, _, s in RULED} <= set(RULE_BREAKERS)

    @pytest.mark.parametrize("command,name,setting", RULED, ids=ids(RULED))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), as_flag=st.booleans(),
           special=st.sampled_from([None, math.nan, math.inf]))
    def test_out_of_range_value_exits_2_and_writes_nothing(
        self, command, name, setting, data, as_flag, special
    ):
        ints, floats = RULE_BREAKERS[setting.rule]
        if setting.type is float and special is not None:
            value = special
        else:
            value = data.draw(ints if setting.type is int else floats)
        flag = name.replace("_", "-")
        if as_flag:
            code, out, err, written = run_in_scratch(command, [f"--{flag}={value}"])
        else:
            key = data.draw(st.sampled_from([name, flag]))
            code, out, err, written = run_in_scratch(command, [], f"{key} = {value}\n")
        assert code == 2
        assert err.startswith("configuration error:") and f"{flag} must be {setting.rule}" in err
        assert out == "" and written == []

    @pytest.mark.parametrize("command,name,setting", TYPED, ids=ids(TYPED))
    @settings(max_examples=15, deadline=None)
    @given(text=st.text(st.characters(codec="ascii", categories=("L", "N", "P", "S"),
                                      exclude_characters="#"), max_size=8))
    def test_config_value_that_does_not_convert_exits_2(self, command, name, setting, text):
        """One rule converts flags and config lines: `main` returns 2, with no
        SystemExit, and one line naming the flag. A bool setting is a --no-
        switch, which takes no value, so it is given in a config file only."""
        assume(not converts(setting, text))
        flag = name.replace("_", "-")
        sources = [([], f"{name} = {text}\n")]
        if setting.type is not bool:
            sources.append(([f"--{flag}={text}"], None))
        for args, config_text in sources:
            code, out, err, written = run_in_scratch(command, args, config_text)
            assert code == 2
            assert err.startswith("configuration error:") and err.count("\n") == 1
            assert f"{flag} must be" in err and err.endswith(f", got {text!r}\n")
            assert out == "" and written == []

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--seed"], "argument --seed: expected one argument"),
        (["verify", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ([], "the following arguments are required: command"),
        (["nope"], "argument command: invalid choice: 'nope'"),
        (["pose", "--no-gauss-newton=1"], "argument --no-gauss-newton: ignored explicit "
                                          "argument '1'"),
    ], ids=["missing-value", "unknown-flag", "no-command", "unknown-command", "switch-value"])
    def test_a_malformed_command_line_exits_2_from_main(self, argv, message, tmp_path,
                                                        monkeypatch):
        """argparse's errors take the path of every refused setting: `main`
        returns 2, with no SystemExit, and one stderr line."""
        monkeypatch.chdir(tmp_path)  # the default output directory, which nothing may create
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code == 2
        assert err.getvalue().startswith(f"configuration error: {message}")
        assert err.getvalue().count("\n") == 1
        assert out.getvalue() == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_lists_every_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name, setting in COMMANDS[command][2].items():
            flag = name.replace("_", "-")
            assert (f"--no-{flag}" if setting.type is bool else f"--{flag}") in text
        assert "--config" in text
