import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdm import pose as pose_module
from sdm.errors import DimensionMismatchError, DivergedError, InvalidProjectionError
from sdm.baselines import RunStatus, gauss_newton_minimize, gauss_newton_rows
from sdm.core import (DescentSequence, DescentStep, Mode, NlsProblem, SmoothMap, apply_sequence,
                      region_index)
from sdm.model_io import sequence_bytes
from sdm.online import init_online, rls_ingest
from sdm.pose import (
    DEFAULT_BASE_POSE,
    DEFAULT_CAMERA,
    EULER_PARTITION,
    CameraIntrinsics,
    ObjectModel,
    Pose,
    Projection,
    builtin_models,
    estimate_pose,
    euler_to_rotation,
    evaluate_test_poses,
    grid_poses,
    load_model_file,
    observe,
    pixel_features,
    pose_error,
    pose_grid_spec,
    projection_feature_map,
    subsample_poses,
    train_pose_sdm,
    _observe,
    _wrap_angles,
)
from sdm.seeds import stream
from sdm.trainer import TrainerConfig


def tetra_model():
    pts = np.array([[0, 0, 0], [100, 0, 0], [0, 100, 0], [0, 0, 100]], dtype=float).T
    return ObjectModel(points=pts, name="tetra")


def reference_projection(p, points):
    """The projection kernel at one pose written out as `R @ M + t`: the
    features (2n,), their Jacobian (2n, 6) from the rotation's derivatives,
    and the depths (n,). Features are NaN at non-positive depth; there the
    translation columns hold 1/z and -u/z (NaN) and finite zeros."""
    (sa, sb, sc), (ca, cb, cc) = np.sin(p[:3]).tolist(), np.cos(p[:3]).tolist()
    r0 = [ca * cb, ca * sb * sc - sa * cc, ca * sb * cc + sa * sc]
    r1 = [sa * cb, sa * sb * sc + ca * cc, sa * sb * cc - ca * sc]
    R = np.array([r0, r1, [-sb, cb * sc, cb * cc]])
    dR = np.array([  # d/d(yaw, pitch, roll)
        [[-v for v in r1], r0, [0.0] * 3],
        [[-ca * sb, ca * cb * sc, ca * cb * cc], [-sa * sb, sa * cb * sc, sa * cb * cc],
         [-cb, -sb * sc, -sb * cc]],
        [[0.0, sa * sc + ca * sb * cc, sa * cc - ca * sb * sc],
         [0.0, sa * sb * cc - ca * sc, -ca * cc - sa * sb * sc], [0.0, cb * cc, -cb * sc]],
    ])
    C = R @ points + p[3:, None]
    z = np.where(C[2] > 0, C[2], np.nan)
    u, v = C[0] / z, C[1] / z
    dC = dR @ points  # angle, camera axis, point
    J = np.zeros((points.shape[1], 2, 6))
    J[:, 0, :3] = ((dC[:, 0] - u * dC[:, 2]) / z).T
    J[:, 1, :3] = ((dC[:, 1] - v * dC[:, 2]) / z).T
    J[:, 0, 3] = J[:, 1, 4] = 1.0 / z
    J[:, 0, 5], J[:, 1, 5] = -u / z, -v / z
    return np.stack([u, v], 1).ravel(), J.reshape(-1, 6), C[2]


def _wrap_angle(a: float) -> float:
    """One angle wrapped into (-pi, pi] in Python floats: the reference for
    `_wrap_angles`."""
    w = (a + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if w == -math.pi else w


class TestRotations:
    def test_zero_angles_identity(self):
        assert euler_to_rotation([0.0, 0.0, 0.0]) == pytest.approx(np.eye(3), abs=0)

    def test_always_orthonormal_with_unit_determinant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            Q = euler_to_rotation(rng.uniform(-np.pi, np.pi, 3))
            assert Q.T @ Q == pytest.approx(np.eye(3), abs=1e-12)
            assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn_about_z_maps_x_to_y(self):
        Q = euler_to_rotation([np.pi / 2, 0.0, 0.0])
        assert Q @ np.array([1.0, 0.0, 0.0]) == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_stacked_rotations_equal_single_ones_bit_for_bit(self):
        E = np.random.default_rng(4).uniform(-np.pi, np.pi, (300, 3))
        assert np.array_equal(euler_to_rotation(E), [euler_to_rotation(e) for e in E])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_array_wrap_equals_scalar_wrap_bit_for_bit(self, angles):
        edges = [np.pi, -np.pi, 0.0, -0.0, 2 * np.pi, -2 * np.pi, 3 * np.pi, -3 * np.pi,
                 np.nextafter(np.pi, 4.0), np.nextafter(-np.pi, -4.0),
                 np.nextafter(-np.pi, 0.0), np.nextafter(np.pi, 0.0)]
        a = np.array(edges + angles)
        want = np.array([_wrap_angle(float(v)) for v in a])
        assert _wrap_angles(a).tobytes() == want.tobytes()


class TestProjection:
    def test_optical_axis_point_hits_principal_point(self):
        proj = observe(DEFAULT_BASE_POSE, tetra_model(), DEFAULT_CAMERA)
        assert proj.points2d[:, 0] == pytest.approx([500.0, 500.0], abs=1e-12)
        assert proj.normalized[:, 0] == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_offset_point_pixel_arithmetic(self):
        # u = 1000 * 100 / 2000 + 500 = 550
        proj = observe(DEFAULT_BASE_POSE, tetra_model(), DEFAULT_CAMERA)
        assert proj.points2d[:, 1] == pytest.approx([550.0, 500.0], abs=1e-9)

    def test_zero_depth_rejected_with_indices(self):
        pose = Pose(euler=np.zeros(3), translation=np.zeros(3))
        with pytest.raises(InvalidProjectionError) as err:
            observe(pose, tetra_model(), DEFAULT_CAMERA)
        assert 0 in err.value.indices

    def test_normalization_is_intrinsics_free(self):
        # normalized output must equal the camera-frame ratios exactly
        rng = np.random.default_rng(2)
        model = tetra_model()
        pose = Pose(euler=[0.2, -0.1, 0.3], translation=[50.0, -20.0, 1500.0])
        C = euler_to_rotation(pose.euler) @ model.points + pose.translation[:, None]
        expected = np.stack([C[0] / C[2], C[1] / C[2]])
        for _ in range(5):
            cam = CameraIntrinsics(
                fx=rng.uniform(200, 3000), fy=rng.uniform(200, 3000),
                u0=rng.uniform(-50, 900), v0=rng.uniform(-50, 900),
            )
            proj = observe(pose, model, cam)
            assert proj.normalized == pytest.approx(expected, abs=1e-12)

    def test_feature_map_matches_project_and_fd_jacobian(self):
        model = builtin_models()["cube"]
        fmap = projection_feature_map(model)
        pose = Pose(euler=[0.1, 0.2, -0.3], translation=[30.0, -40.0, 2100.0])
        feat = fmap.evaluate(pose.vector())
        proj = observe(pose, model, DEFAULT_CAMERA)
        assert feat == pytest.approx(proj.feature(), abs=1e-15)
        assert fmap.jacobian(pose.vector()) == pytest.approx(
            fmap.fd_jacobian(pose.vector()), rel=1e-5, abs=1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi),
                              st.floats(-np.pi, np.pi), st.floats(-500.0, 500.0),
                              st.floats(-500.0, 500.0), st.floats(-3000.0, 3000.0)),
                    min_size=1, max_size=10))
    def test_row_evaluation_equals_per_row_evaluate(self, poses):
        P = np.array(poses)
        fmap = projection_feature_map(builtin_models()["cube"])
        want = np.array([fmap.evaluate(p) for p in P])
        with np.errstate(divide="ignore", invalid="ignore"):
            got = fmap.evaluate(P)
        assert np.array_equal(got, want, equal_nan=True)

    def test_behind_camera_features_are_nan(self):
        fmap = projection_feature_map(tetra_model())
        bad = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -5000.0])
        assert np.all(np.isnan(fmap.evaluate(bad)[:2]))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["cube", "body", "face"]),
           st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                              st.floats(-500.0, 500.0), st.floats(-500.0, 500.0),
                              st.floats(-400.0, 3000.0)),
                    min_size=1, max_size=8))
    def test_kernel_equals_reference_and_its_rows(self, name, poses):
        """One pose equals its row of the (N, 6) call; at positive depth the
        value and, where the features are finite, every Jacobian entry equal
        `R @ M + t` written out (at a depth so small that u = x/z overflows,
        0 * inf in the translation columns gives NaN); at non-positive depth
        the point's features and Jacobian rows are NaN; `_observe` on rows
        equals `observe` pose by pose."""
        model = builtin_models()[name]
        fmap = projection_feature_map(model)
        P = np.array([Pose.from_vector(p).vector() for p in poses])
        with np.errstate(all="ignore"):  # features and pixels may overflow or be NaN
            h, J = fmap.derivatives(P)
            singles = [fmap.derivatives(p) for p in P]
            px, depth = _observe(P, model, DEFAULT_CAMERA)
            assert np.array_equal(h, [v for v, _ in singles], equal_nan=True)
            assert np.array_equal(J, [j for _, j in singles], equal_nan=True)
            n = model.n_points
            for p, hp, Jp, pxp, dp in zip(P, h, J, px, depth):
                want_h, want_J, z = reference_projection(p, model.points)
                front = z > 0
                assert np.array_equal(dp, z)
                assert np.array_equal(hp.reshape(n, 2)[front], want_h.reshape(n, 2)[front])
                finite = front & np.isfinite(want_h.reshape(n, 2)).all(1)
                assert np.array_equal(Jp.reshape(n, 2, 6)[finite], want_J.reshape(n, 2, 6)[finite])
                assert np.isnan(hp.reshape(n, 2)[~front]).all()
                assert np.isnan(Jp.reshape(n, 12)[~front]).all()
                if not front.all():
                    assert np.isnan(pxp[:, ~front]).all()
                    with pytest.raises(InvalidProjectionError) as exc:
                        observe(Pose.from_vector(p), model, DEFAULT_CAMERA)
                    assert list(exc.value.indices) == np.flatnonzero(~front).tolist()
                elif np.isfinite(pxp).all():
                    assert np.array_equal(pxp, observe(Pose.from_vector(p), model,
                                                       DEFAULT_CAMERA).points2d)
                else:  # a depth so small that a pixel overflows: `Projection` refuses it
                    with pytest.raises(ValueError, match="must be finite"):
                        observe(Pose.from_vector(p), model, DEFAULT_CAMERA)

    def test_gauss_newton_diverges_where_the_reference_kernel_does(self):
        """A point at non-positive depth makes every Jacobian entry of its
        features NaN, the translation columns included, where `R @ M + t`
        kept finite zeros there; Gauss-Newton tests the residual first, so
        it still ends `diverged` at the same iterate."""
        cube = builtin_models()["cube"]
        ref = SmoothMap(6, 16, lambda p, order=0: reference_projection(p, cube.points)[:order + 1]
                        if order else reference_projection(p, cube.points)[0], order=1)
        y = cube.feature_map.evaluate(DEFAULT_BASE_POSE.vector())
        rng = np.random.default_rng(0)
        starts = [np.array([0.0, 0.0, 0.0, 0.0, 0.0, -500.0])] + [
            np.concatenate([rng.uniform(-2, 2, 3), rng.uniform(-300, 300, 2),
                            rng.uniform(50, 800, 1)]) for _ in range(30)]
        ends = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for x0 in starts:
                got = gauss_newton_minimize(NlsProblem(cube.feature_map, y), x0, 25)
                want = gauss_newton_minimize(NlsProblem(ref, y), x0, 25)
                assert got.status is want.status
                assert np.array_equal(got.iterates, want.iterates)
                assert np.array_equal(got.residuals, want.residuals, equal_nan=True)
                if got.status is RunStatus.DIVERGED:
                    ends.append(len(got.iterates) - 1)
        assert ends[0] == 0 and max(ends) > 0


class TestPoseError:
    def test_identical_poses(self):
        p = Pose(euler=[0.3, -0.2, 0.1], translation=[1.0, 2.0, 3.0])
        assert pose_error(p, p) == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_single_axis_rotation_reads_in_degrees(self):
        truth = Pose(euler=np.zeros(3), translation=np.zeros(3) + [0, 0, 1000.0])
        est = Pose(euler=[math.radians(10.0), 0, 0], translation=truth.translation)
        rot, trans = pose_error(est, truth)
        assert rot == pytest.approx(10.0, abs=1e-9)
        assert trans == 0.0

    def test_random_pair_matches_trace_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = Pose(euler=rng.uniform(-1, 1, 3), translation=rng.normal(size=3))
            b = Pose(euler=rng.uniform(-1, 1, 3), translation=rng.normal(size=3))
            rel = euler_to_rotation(a.euler) @ euler_to_rotation(b.euler).T
            want = math.degrees(math.acos(np.clip((np.trace(rel) - 1) / 2, -1, 1)))
            got, _ = pose_error(a, b)
            assert got == pytest.approx(want, abs=1e-9)


class TestModels:
    def test_builtin_point_counts(self):
        models = builtin_models()
        assert models["cube"].n_points == 8
        assert models["body"].n_points == 14
        assert models["face"].n_points == 12

    def test_minimum_point_count(self):
        with pytest.raises(ValueError, match="at least 4"):
            ObjectModel(points=np.zeros((3, 3)), name="tri")

    def test_model_file_round_trip(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("# demo\n1 2 3\n4 5 6  # inline comment\n7 8 9\n\n10 11 12\n")
        model = load_model_file(path)
        assert model.n_points == 4
        assert model.points[:, 1] == pytest.approx([4.0, 5.0, 6.0])

    def test_model_file_bad_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n")
        with pytest.raises(ValueError, match="3 coordinates"):
            load_model_file(path)


class TestTrainingGrid:
    def test_full_grid_counts(self):
        assert len(pose_grid_spec()) == 7**3 * 5**3  # 42875
        assert len(pose_grid_spec(30.0, 7.0, 400.0, 170.0)) == 9**3 * 5**3  # 91125

    def test_single_pose_zero_noise_gives_zero_gains(self):
        cube = builtin_models()["cube"]
        grid = pose_grid_spec(0.0, 10.0, 0.0, 200.0)  # only the base pose
        seq = train_pose_sdm(cube, DEFAULT_CAMERA, grid, config=TrainerConfig(stages=2))
        for step in seq.steps:
            assert step.gain == pytest.approx(np.zeros_like(step.gain), abs=1e-12)

    def test_grid_poses_are_the_wrapped_grid_vectors(self):
        spec = pose_grid_spec(30.0, 11.0, 400.0, 270.0)
        want = [Pose.from_vector(v).vector() for v in DEFAULT_BASE_POSE.vector() + spec]
        poses = grid_poses(spec, DEFAULT_BASE_POSE)
        assert np.array_equal(poses, want)
        kept = subsample_poses(poses, 50, stream(9, "sub"))
        idx = sorted(stream(9, "sub").choice(len(want), size=50, replace=False))
        assert np.array_equal([p.vector() for p in kept], [want[i] for i in idx])

    def test_grid_poses_need_six_offset_columns(self):
        with pytest.raises(DimensionMismatchError):
            grid_poses(np.zeros((4, 1)), DEFAULT_BASE_POSE)
        with pytest.raises(ValueError, match="2-D"):
            grid_poses(np.zeros(6), DEFAULT_BASE_POSE)

    @pytest.mark.parametrize("noise", [0.0, 4.0])
    def test_training_targets_equal_per_pose_observations(self, monkeypatch, noise):
        captured = []
        monkeypatch.setattr(pose_module, "train", lambda tset, *a, **k: captured.append(tset))
        cube = builtin_models()["cube"]
        grid = pose_grid_spec(30.0, 15.0, 400.0, 400.0)
        train_pose_sdm(cube, DEFAULT_CAMERA, grid, noise_variance=noise,
                       rng=stream(3, "targets"))
        rng = stream(3, "targets")
        poses = [Pose.from_vector(v) for v in DEFAULT_BASE_POSE.vector() + grid]
        want = [observe(p, cube, DEFAULT_CAMERA, rng=rng, noise_variance=noise).feature()
                for p in poses]
        (tset,) = captured
        assert np.array_equal(tset.targets, want)
        assert np.array_equal(tset.optima, [p.vector() for p in poses])

    def test_invalid_training_pose_names_the_pose(self):
        cube = builtin_models()["cube"]
        bad_base = Pose(euler=np.zeros(3), translation=[0.0, 0.0, 50.0])
        grid = pose_grid_spec(0.0, 10.0, 100.0, 100.0)
        with pytest.raises(InvalidProjectionError, match="training pose"):
            train_pose_sdm(cube, DEFAULT_CAMERA, grid, base_pose=bad_base)


@pytest.fixture(scope="module")
def small_cube_seq():
    """Coarse noise-free training run shared by the estimation tests."""
    cube = builtin_models()["cube"]
    grid = pose_grid_spec(30.0, 15.0, 400.0, 400.0)  # 5^3 * 3^3 = 3375 poses
    seq = train_pose_sdm(cube, DEFAULT_CAMERA, grid, config=TrainerConfig(stages=4))
    return cube, seq


class TestEstimation:
    def test_exact_observation_is_fixed_point(self, small_cube_seq):
        cube, seq = small_cube_seq
        obs = observe(DEFAULT_BASE_POSE, cube, DEFAULT_CAMERA)
        est, traj = estimate_pose(seq, obs, cube, DEFAULT_CAMERA)
        rot, trans = pose_error(est, DEFAULT_BASE_POSE)
        assert rot < 1e-6 and trans < 1e-6
        assert len(traj) == len(seq) + 1

    def test_cascade_improves_over_first_stage(self, small_cube_seq):
        cube, seq = small_cube_seq
        one_stage = DescentSequence(
            steps=seq.steps[:1], param_dim=6, feature_dim=16, mode=seq.mode
        )
        rng = stream(7, "cascade-test")
        poses = subsample_poses(
            grid_poses(pose_grid_spec(30.0, 11.0, 400.0, 270.0), DEFAULT_BASE_POSE), 60, rng
        )
        full = evaluate_test_poses(seq, cube, DEFAULT_CAMERA, poses)
        first = evaluate_test_poses(one_stage, cube, DEFAULT_CAMERA, poses)
        assert np.mean([r.rot_err_deg for r in full]) < np.mean(
            [r.rot_err_deg for r in first]
        )
        assert np.mean([r.trans_err_mm for r in full]) < np.mean(
            [r.trans_err_mm for r in first]
        )

    def test_out_of_range_pose_degrades_hard(self, small_cube_seq):
        cube, seq = small_cube_seq

        def err_at(deg):
            truth = Pose(
                euler=[math.radians(deg), 0.0, 0.0],
                translation=DEFAULT_BASE_POSE.translation,
            )
            obs = observe(truth, cube, DEFAULT_CAMERA)
            est, _ = estimate_pose(seq, obs, cube, DEFAULT_CAMERA)
            return pose_error(est, truth)[0]

        assert err_at(60.0) > 3.0 * err_at(20.0)

    def test_diverging_sequence_raises_with_partial_trajectory(self, small_cube_seq):
        cube, _ = small_cube_seq
        # a huge gain on an all-positive residual throws the pose behind
        # the camera on the first step; the next evaluation is non-finite
        huge = DescentStep(gain=1e9 * np.ones((6, 16)), bias=np.zeros(6))
        seq = DescentSequence(steps=(huge, huge), param_dim=6, feature_dim=16,
                              mode=Mode.REVERSED)
        clean = observe(DEFAULT_BASE_POSE, cube, DEFAULT_CAMERA)
        target = Projection(
            points2d=clean.points2d, normalized=clean.normalized - 0.001
        )
        with pytest.raises(DivergedError) as err:
            estimate_pose(seq, target, cube, DEFAULT_CAMERA)
        assert len(err.value.trajectory) == 2  # start plus the wild step

    def test_observation_point_count_checked(self, small_cube_seq):
        cube, seq = small_cube_seq
        obs = observe(DEFAULT_BASE_POSE, tetra_model(), DEFAULT_CAMERA)
        with pytest.raises(ValueError, match="points"):
            estimate_pose(seq, obs, cube, DEFAULT_CAMERA)


@pytest.fixture(scope="module")
def euler_cascades():
    """Partitioned and one-region cascades from one coarse noisy grid."""
    grid = pose_grid_spec(30.0, 15.0, 400.0, 400.0)  # 5^3 * 3^3 = 3375 poses
    return {
        name: train_pose_sdm(
            builtin_models()["cube"], DEFAULT_CAMERA, grid, noise_variance=4.0,
            config=TrainerConfig(stages=4), rng=stream(13, "partition-train"),
            partition=partition,
        )
        for name, partition in (("split", EULER_PARTITION), ("flat", ()))
    }


class TestEulerPartition:
    def test_partition_beats_one_region_on_a_coarse_noisy_grid(self, euler_cascades):
        cube = builtin_models()["cube"]
        poses = subsample_poses(
            grid_poses(pose_grid_spec(30.0, 11.0, 400.0, 270.0), DEFAULT_BASE_POSE), 100,
            stream(13, "partition-sub"),
        )
        errors = {}
        for name, seq in euler_cascades.items():
            recs = evaluate_test_poses(
                seq, cube, DEFAULT_CAMERA, poses, noise_variance=4.0,
                rng=stream(13, "partition-noise"),
            )
            errors[name] = (np.mean([r.rot_err_deg for r in recs]),
                            np.mean([r.trans_err_mm for r in recs]))
        assert errors["split"][0] < errors["flat"][0], errors
        assert errors["split"][1] < errors["flat"][1], errors

    def test_start_at_the_partition_center_uses_one_region(self, euler_cascades):
        split, flat = euler_cascades["split"], euler_cascades["flat"]
        assert (split.partition, split.n_regions, len(split)) == (EULER_PARTITION, 8, 4)
        assert np.array_equal(split.center, DEFAULT_BASE_POSE.euler)
        assert region_index(DEFAULT_BASE_POSE.vector(), split.partition, split.center) == 0
        # every training sample starts at the base pose, so all eight
        # stage-1 steps are the one-region cascade's stage-1 fit
        for step in split.steps[:8]:
            assert np.array_equal(step.gain, flat.steps[0].gain)
        assert split.training_report[0] == flat.training_report[0]
        assert split.training_report[1] == flat.training_report[1]


class TestAllModels:
    def test_cascade_beats_staying_at_the_base_pose_on_every_model(self):
        # coarse-grid smoke check across the bundled objects: the
        # estimate must recover most of the pose offset even for the
        # small face object, whose observations are noise-dominated
        grid = pose_grid_spec(30.0, 15.0, 400.0, 400.0)
        test = pose_grid_spec(30.0, 20.0, 400.0, 530.0)
        for name, model in builtin_models().items():
            seq = train_pose_sdm(
                model, DEFAULT_CAMERA, grid, noise_variance=4.0,
                config=TrainerConfig(stages=4), rng=stream(21, f"train-{name}"),
            )
            poses = subsample_poses(
                grid_poses(test, DEFAULT_BASE_POSE), 60, stream(21, f"sub-{name}")
            )
            recs = evaluate_test_poses(
                seq, model, DEFAULT_CAMERA, poses, noise_variance=4.0,
                rng=stream(21, f"noise-{name}"),
            )
            sdm_rot = np.mean([r.rot_err_deg for r in recs])
            sdm_trans = np.mean([r.trans_err_mm for r in recs])
            base_rot = np.mean([pose_error(DEFAULT_BASE_POSE, p)[0] for p in poses])
            base_trans = np.mean([pose_error(DEFAULT_BASE_POSE, p)[1] for p in poses])
            assert sdm_rot < 0.5 * base_rot, f"{name}: {sdm_rot} vs baseline {base_rot}"
            assert sdm_trans < 0.25 * base_trans, f"{name}: {sdm_trans} vs {base_trans}"


class TestObserve:
    def test_noise_statistics(self):
        cube = builtin_models()["cube"]
        rng = np.random.default_rng(11)
        clean = observe(DEFAULT_BASE_POSE, cube, DEFAULT_CAMERA)
        deltas = []
        for _ in range(400):
            noisy = observe(DEFAULT_BASE_POSE, cube, DEFAULT_CAMERA, rng, noise_variance=4.0)
            deltas.append(noisy.points2d - clean.points2d)
        deltas = np.array(deltas)
        assert deltas.std() == pytest.approx(2.0, rel=0.05)
        assert abs(deltas.mean()) < 0.05

    def test_noise_applied_before_normalization(self):
        cube = builtin_models()["cube"]
        rng = np.random.default_rng(12)
        noisy = observe(DEFAULT_BASE_POSE, cube, DEFAULT_CAMERA, rng, noise_variance=4.0)
        expected = np.stack(
            [
                (noisy.points2d[0] - DEFAULT_CAMERA.u0) / DEFAULT_CAMERA.fx,
                (noisy.points2d[1] - DEFAULT_CAMERA.v0) / DEFAULT_CAMERA.fy,
            ]
        )
        assert noisy.normalized == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("name", ["cube", "body", "face"])
    def test_pixel_features_of_rows_equal_each_observed_feature(self, name):
        model = builtin_models()[name]
        poses = grid_poses(pose_grid_spec(30.0, 15.0, 400.0, 400.0), DEFAULT_BASE_POSE)[::7]
        px, _ = _observe(poses, model, DEFAULT_CAMERA, stream(3, name), noise_variance=4.0)
        rows = pixel_features(px, DEFAULT_CAMERA)
        assert rows.shape == (len(poses), 2 * model.n_points)
        rng = stream(3, name)
        for row, v in zip(rows, poses):
            obs = observe(Pose.from_vector(v), model, DEFAULT_CAMERA, rng, noise_variance=4.0)
            assert np.array_equal(row, obs.feature())
        assert pixel_features(px[:0], DEFAULT_CAMERA).shape == (0, 2 * model.n_points)

    def test_subsample_deterministic_and_bounded(self):
        poses = grid_poses(pose_grid_spec(30.0, 15.0, 0.0, 100.0), DEFAULT_BASE_POSE)
        a = subsample_poses(poses, 10, stream(5, "x"))
        b = subsample_poses(poses, 10, stream(5, "x"))
        assert len(a) == 10
        assert all(np.array_equal(p.vector(), q.vector()) for p, q in zip(a, b))
        assert len(subsample_poses(poses, 0, stream(5, "x"))) == len(poses)


def per_pose_loop(seq, model, poses, rng=None, noise_variance=0.0):
    """The per-pose reference for `evaluate_test_poses`: observe, estimate,
    then Gauss-Newton from the truth, one pose at a time. Returns the
    estimates, the Gauss-Newton runs and their errors, or the exception
    of the first pose that fails."""
    out = []
    try:
        for truth in poses:
            obs = observe(truth, model, DEFAULT_CAMERA, rng=rng, noise_variance=noise_variance)
            est, _ = estimate_pose(seq, obs, model, DEFAULT_CAMERA)
            problem = NlsProblem(map=projection_feature_map(model), target=obs.feature())
            run = gauss_newton_minimize(problem, truth.vector(), max_iters=25)
            out.append((est, run, pose_error(Pose.from_vector(run.final), truth)))
    except (DivergedError, InvalidProjectionError) as exc:
        return exc
    return out


@pytest.fixture(scope="module")
def seed42_objects():
    """The pose command's protocol at seed 42 on 300 test poses per object:
    the cascade, the test poses, the batched records and the per-pose
    loop's results."""
    out = {}
    for name, model in builtin_models().items():
        seq = train_pose_sdm(model, DEFAULT_CAMERA, pose_grid_spec(), noise_variance=4.0,
                             config=TrainerConfig(stages=4),
                             rng=stream(42, f"pose-train-noise-{name}"))
        poses = subsample_poses(grid_poses(pose_grid_spec(30.0, 7.0, 400.0, 170.0),
                                           DEFAULT_BASE_POSE), 300,
                                stream(42, f"pose-subsample-{name}"))
        records = evaluate_test_poses(seq, model, DEFAULT_CAMERA, poses, noise_variance=4.0,
                                      rng=stream(42, f"pose-test-noise-{name}"),
                                      with_gauss_newton=True)
        loop = per_pose_loop(seq, model, poses, stream(42, f"pose-test-noise-{name}"), 4.0)
        out[name] = seq, poses, records, loop
    return out


def online_cascade(model, starts):
    """A generalized-mode cascade served from an online state: four stages
    refreshed by 200 samples that run from `starts` to the base pose."""
    m = model.feature_map.feature_dim
    zero = DescentStep(gain=np.zeros((6, m)), bias=np.zeros(6))
    state = init_online(DescentSequence(steps=(zero,) * 4, param_dim=6, feature_dim=m,
                                        mode=Mode.GENERALIZED), ridge=1e-3)
    for x0 in starts[:200]:
        rls_ingest(state, DEFAULT_BASE_POSE.vector(), x0, model.feature_map)
    return state.to_sequence()


def test_gauss_newton_rows_equal_single_runs_on_the_projection_map():
    model = builtin_models()["face"]
    rng = stream(5, "gn-rows")
    truths = [Pose.from_vector(v) for v in grid_poses(
        pose_grid_spec(30.0, 20.0, 400.0, 400.0), DEFAULT_BASE_POSE)[::29]]
    targets = [observe(p, model, DEFAULT_CAMERA, rng, 4.0).feature() for p in truths]
    runs = gauss_newton_rows(model.feature_map, np.array(targets),
                             np.array([p.vector() for p in truths]), max_iters=25)
    for i, (y, truth) in enumerate(zip(targets, truths)):
        run = runs.row(i)
        want = gauss_newton_minimize(NlsProblem(model.feature_map, y), truth.vector(), 25)
        assert run.status is want.status
        assert np.array_equal(run.iterates, want.iterates)
        assert np.array_equal(run.residuals, want.residuals)


class TestRowsEqualThePerPoseLoop:
    @pytest.mark.parametrize("name, max_iters", [("cube", 0), ("body", 0), ("face", 9)])
    def test_estimates_and_gauss_newton_runs(self, seed42_objects, name, max_iters):
        _, _, records, loop = seed42_objects[name]
        assert len(records) == len(loop) == 300
        for rec, (est, run, gn_err) in zip(records, loop):
            assert np.array_equal(rec.estimate.vector(), est.vector())
            assert rec.gn_status is run.status
            assert rec.gn_iterations == len(run.iterates) - 1
            assert (rec.gn_rot_err_deg, rec.gn_trans_err_mm) == pytest.approx(gn_err, abs=1e-9)
        statuses = Counter(r.gn_status for r in records)
        assert statuses == +Counter({RunStatus.CONVERGED: 300 - max_iters,
                                     RunStatus.MAX_ITERS: max_iters})

    @pytest.mark.parametrize("name", ["cube", "body", "face", "flat", "online"])
    def test_cascade_rows_equal_one_point_runs(self, seed42_objects, euler_cascades, name):
        # each object's partitioned cascade from the base pose, the cube's
        # one-region cascade, and a generalized-mode cube cascade served
        # from an online state, which starts every row at its own test pose
        obj = "cube" if name in ("flat", "online") else name
        seq, poses, _, _ = seed42_objects[obj]
        model = builtin_models()[obj]
        rng = stream(42, "cascade-rows")
        Y = np.array([observe(p, model, DEFAULT_CAMERA, rng, 4.0).feature() for p in poses])
        X0 = np.tile(DEFAULT_BASE_POSE.vector(), (len(poses), 1))
        if name == "flat":
            seq = euler_cascades["flat"]
        elif name == "online":
            X0 = np.array([p.vector() for p in poses])
            seq, Y = online_cascade(model, X0[::-1]), None
        fmap = model.feature_map
        for n in (1, 2, len(X0)):
            traj = apply_sequence(seq, X0[:n], fmap, None if Y is None else Y[:n])
            assert traj.shape == (len(seq) + 1, n, 6)
            for i in range(n):
                one = apply_sequence(seq, X0[i], fmap, None if Y is None else Y[i])
                assert np.array_equal(traj[:, i], one)

    @pytest.mark.parametrize("order", [("diverges", "behind"), ("behind", "diverges")])
    def test_first_failing_pose_raises_as_in_the_loop(self, small_cube_seq, order):
        cube, _ = small_cube_seq
        huge = DescentStep(gain=1e9 * np.ones((6, 16)), bias=np.zeros(6))
        seq = DescentSequence(steps=(huge, huge), param_dim=6, feature_dim=16,
                              mode=Mode.REVERSED)
        poses = {
            # an all-negative residual: the huge step throws the pose behind the camera
            "diverges": Pose(euler=np.zeros(3), translation=[-50.0, -50.0, 2000.0]),
            "behind": Pose(euler=np.zeros(3), translation=[0.0, 0.0, -3000.0]),
        }
        # the base pose is a fixed point of any cascade, so it passes
        test_poses = [DEFAULT_BASE_POSE] + [poses[k] for k in order] + [DEFAULT_BASE_POSE]
        want = per_pose_loop(seq, cube, test_poses)
        with pytest.raises(type(want)) as got:
            evaluate_test_poses(seq, cube, DEFAULT_CAMERA, test_poses, with_gauss_newton=True)
        assert isinstance(want, DivergedError if order[0] == "diverges" else
                          InvalidProjectionError)
        if isinstance(want, DivergedError):
            assert len(got.value.trajectory) == len(want.trajectory) == 2
            assert np.array_equal(got.value.trajectory, want.trajectory)
        else:
            assert got.value.indices == want.indices
            assert str(got.value) == str(want)


def same_records(got, want):
    """Every field of two record lists but the timing."""
    return len(got) == len(want) and all(
        np.array_equal(a.truth.vector(), b.truth.vector())
        and np.array_equal(a.estimate.vector(), b.estimate.vector())
        and (a.model, a.rot_err_deg, a.trans_err_mm, a.gn_rot_err_deg, a.gn_trans_err_mm,
             a.gn_status, a.gn_iterations)
        == (b.model, b.rot_err_deg, b.trans_err_mm, b.gn_rot_err_deg, b.gn_trans_err_mm,
            b.gn_status, b.gn_iterations)
        for a, b in zip(got, want))


class TestProtocol:
    # the training grid of the pose command's coarse runs
    COARSE = dict(rot_step_deg=15.0, trans_step_mm=400.0)

    @pytest.mark.parametrize("name", ["cube", "body", "face"])
    def test_run_protocol_is_the_written_out_protocol(self, seed42_objects, name):
        seq, _, records, _ = seed42_objects[name]
        got_seq, got = pose_module.run_protocol(builtin_models()[name], 42, subsample=300)
        assert sequence_bytes(got_seq) == sequence_bytes(seq)
        assert same_records(got, records)

    def test_the_model_name_picks_the_noise_stream(self):
        cube = builtin_models()["cube"]
        seq = pose_module.train_protocol(cube, 7, **self.COARSE)
        want = train_pose_sdm(cube, DEFAULT_CAMERA, pose_grid_spec(**self.COARSE),
                              noise_variance=4.0, rng=stream(7, "pose-train-noise-cube"))
        assert sequence_bytes(seq) == sequence_bytes(want)
        renamed = ObjectModel(points=cube.points, name="other")
        assert (sequence_bytes(pose_module.train_protocol(renamed, 7, **self.COARSE))
                != sequence_bytes(seq))

    def test_run_protocol_passes_its_training_settings_to_train_protocol(self):
        body = builtin_models()["body"]
        training = dict(config=TrainerConfig(stages=2), noise_variance=1.0, **self.COARSE)
        seq, _ = pose_module.run_protocol(body, 7, subsample=5, with_gauss_newton=False,
                                          **training)
        assert len(seq) == 2
        assert sequence_bytes(seq) == sequence_bytes(pose_module.train_protocol(body, 7,
                                                                                **training))

    def test_run_protocol_without_gauss_newton_records_only_the_cascade(self):
        face = builtin_models()["face"]
        _, records = pose_module.run_protocol(face, 7, subsample=25, with_gauss_newton=False,
                                              **self.COARSE)
        assert len(records) == 25
        assert all(r.model == "face" and r.gn_status is None and r.gn_iterations is None
                   and r.gn_rot_err_deg is None and r.gn_trans_err_mm is None for r in records)
