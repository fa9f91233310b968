import csv

import numpy as np
import pytest

from sdm import theory
from sdm.cli import main
from sdm.analytic import registry

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

    def test_oversized_epsilon_is_config_error(self, tmp_path):
        assert main(["verify", "--epsilon", "100", "--output-dir", str(tmp_path)]) == 2

    def test_zero_radius_is_config_error(self, tmp_path):
        assert main(["verify", "--radius", "0", "--output-dir", str(tmp_path)]) == 2

    def test_one_sample_per_neighborhood(self, tmp_path, monkeypatch):
        calls = []
        real = theory.neighborhood_points

        def counting(nbhd, seed=0):
            calls.append(nbhd)
            return real(nbhd, seed=seed)

        monkeypatch.setattr(theory, "neighborhood_points", counting)
        assert main(["verify", "--grid", "101", "--output-dir", str(tmp_path)]) == 0
        assert len(calls) == 4 + 10  # registry maps, then random maps


class TestOnlineDemoCommand:
    def test_default_passes(self, tmp_path):
        assert main(["online-demo", "--output-dir", str(tmp_path)]) == 0

    def test_forgetting_passes(self, tmp_path):
        assert main(["online-demo", "--forgetting", "0.9", "--output-dir", str(tmp_path)]) == 0

    def test_forgetting_out_of_range_is_config_error(self, tmp_path):
        assert main(["online-demo", "--forgetting", "1.5", "--output-dir", str(tmp_path)]) == 2


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
        proj = pose_mod.project(truth, pose_mod.builtin_models()["cube"],
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

    def test_train_requires_out(self, tmp_path):
        assert main(["train", "--problem", "analytic", "--output-dir", str(tmp_path)]) == 2


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
            ["verify", "--radius", "nan"],
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
