"""Synthetic 3D pose estimation with a reversed descent-map cascade.

A pose is three intrinsic Z-Y-X Euler angles (radians) plus a
translation (millimeters). The feature vector of a pose is the
flattened normalized projection of the object's points, so the camera
intrinsics cancel out of the optimization and only enter when pixel
noise is added. Training samples a grid of pose offsets around a base
pose; estimation always starts from that same base pose. The cascade
is partitioned on the three Euler angles: at every stage it applies one
of eight steps, chosen by the signs of the current estimate's angles
relative to the base pose. `run_protocol` is the pose experiment:
training on a grid, then estimating a noisy, seeded subset of a test
grid.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from .baselines import RunStatus, gauss_newton_rows
from .core import (
    Array,
    DescentSequence,
    SmoothMap,
    apply_sequence,
    as_matrix,
    as_vector,
)
from .errors import InvalidProjectionError, SettingError
from .trainer import TrainerConfig, TrainingSet, grid_offsets, train


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels, without skew."""

    fx: float
    fy: float
    u0: float
    v0: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise SettingError("focal lengths must be positive")


DEFAULT_CAMERA = CameraIntrinsics(fx=1000.0, fy=1000.0, u0=500.0, v0=500.0)


@dataclass(frozen=True)
class ObjectModel:
    """3D points (3 x n, millimeters, object frame)."""

    points: Array
    name: str = ""

    def __post_init__(self):
        pts = as_matrix(self.points, "points", rows=3)
        if pts.shape[1] < 4:
            raise ValueError("a pose model needs at least 4 points")
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[1]

    @cached_property
    def homogeneous(self) -> Array:
        """The points as homogeneous rows (x, y, z, 1), n x 4, built once."""
        return as_matrix(np.column_stack([self.points.T, np.ones(self.n_points)]), "points")

    @cached_property
    def feature_map(self) -> SmoothMap:
        """The model's `projection_feature_map`, built once per model."""
        return projection_feature_map(self)


def _wrap_angles(angles: Array) -> Array:
    """Every entry of an array wrapped into (-pi, pi]."""
    w = np.remainder(angles + math.pi, 2.0 * math.pi) - math.pi
    w[w == -math.pi] = math.pi
    return w


def _wrap_poses(P: Array) -> Array:
    """Pose vectors (..., 6) with their angles wrapped as in `Pose`, as a new array."""
    return np.concatenate([_wrap_angles(P[..., :3]), P[..., 3:]], axis=-1)


@dataclass(frozen=True)
class Pose:
    """Euler angles (yaw-z, pitch-y, roll-x, radians) and translation (mm)."""

    euler: Array
    translation: Array

    def __post_init__(self):
        self._store(as_vector(self.euler, "euler", dim=3),
                    as_vector(self.translation, "translation", dim=3))

    def _store(self, euler: Array, translation: Array) -> None:  # checked, read-only vectors
        e = _wrap_angles(euler)
        e.setflags(write=False)
        object.__setattr__(self, "euler", e)
        object.__setattr__(self, "translation", translation)

    def vector(self) -> Array:
        return np.concatenate([self.euler, self.translation])

    @classmethod
    def from_vector(cls, v) -> "Pose":
        v = as_vector(v, "pose vector", dim=6)
        pose = object.__new__(cls)
        pose._store(v[:3], v[3:])
        return pose


# Pose-vector coordinates of the three Euler angles; the pose cascade's
# partition coordinates (8 regions).
EULER_PARTITION = (0, 1, 2)

DEFAULT_BASE_POSE = Pose(euler=np.zeros(3), translation=np.array([0.0, 0.0, 2000.0]))


def _camera_columns(P, with_derivatives: bool = False) -> Array:
    """The camera matrix [R | t] (3 x 4) at pose vectors P and, with
    `with_derivatives`, its derivatives wrt the six pose coordinates: k = 1
    or 7 matrices as (column, row, k), (4, 3, k) for one pose (6,) and
    (4, 3, k, N) for rows (N, 6), each entry the same product of sines and
    cosines for a single pose (Python floats) and for rows (arrays)."""
    e = P[..., :3].T
    trig = np.sin(e), np.cos(e), P[..., 3:].T
    (sa, sb, sc), (ca, cb, cc), t = [v.tolist() for v in trig] if P.ndim == 1 else trig
    # the columns of R = Rz(yaw) @ Ry(pitch) @ Rx(roll)
    x = [ca * cb, sa * cb, -sb]
    y = [ca * sb * sc - sa * cc, sa * sb * sc + ca * cc, cb * sc]
    z = [ca * sb * cc + sa * sc, sa * sb * cc - ca * sc, cb * cc]
    entries = [*x, *y, *z, *t]
    if with_derivatives:
        o, i = 0.0 * sa, 0.0 * sa + 1.0
        # R's entries column by column, then t's: each, then d/d(yaw, pitch, roll, tx, ty, tz)
        entries = [
            x[0], -x[1], -ca * sb, o, o, o, o,
            x[1], x[0], -sa * sb, o, o, o, o,
            x[2], o, -cb, o, o, o, o,
            y[0], -y[1], x[0] * sc, z[0], o, o, o,
            y[1], y[0], x[1] * sc, z[1], o, o, o,
            y[2], o, x[2] * sc, z[2], o, o, o,
            z[0], -z[1], x[0] * cc, -y[0], o, o, o,
            z[1], z[0], x[1] * cc, -y[1], o, o, o,
            z[2], o, x[2] * cc, -y[2], o, o, o,
            t[0], o, o, o, i, o, o, t[1], o, o, o, o, i, o, t[2], o, o, o, o, o, i,
        ]
    return np.array(entries).reshape(4, 3, -1, *P.shape[:-1])


def euler_to_rotation(euler) -> Array:
    """Intrinsic Z-Y-X rotation Rz(yaw) @ Ry(pitch) @ Rx(roll): 3x3 for one
    angle triple, and for an (N, 3) array the (N, 3, 3) stack of its rows'
    rotations, bit for bit the same."""
    e = np.asarray(euler, dtype=float)
    return np.ascontiguousarray(_camera_columns(np.concatenate([e, 0.0 * e], -1))[:3, :, 0].T)


def _projection(P, H: Array, with_jacobian: bool = False):
    """Normalized projection of the points with homogeneous rows H (n, 4)
    at pose vectors P, one (6,) or rows (N, 6): the point-major features
    (u1, v1, u2, ...) of shape (..., 2n) and with `with_jacobian` their
    derivative (..., 2n, 6), both from one product of H with the camera
    matrices. A point at non-positive depth has NaN features and Jacobian."""
    batch, n = P.shape[:-1], len(H)
    # D[j, i, k] is row i of camera matrix k applied to point j (then poses)
    D = (H @ _camera_columns(P, with_jacobian).reshape(4, -1)).reshape(n, 3, -1, *batch)
    depth = D[:, 2, 0]
    z = np.where(depth > 0, depth, np.nan)  # behind the camera: NaN
    uv = D[:, :2, 0] / z[:, None]
    # poses first, C-contiguous: the bits of batched products downstream follow the
    # layout (a pose's (n, 2) and (n, 2, 6) arrays already are)
    h = (uv if not batch else np.ascontiguousarray(uv.transpose(2, 0, 1))).reshape(*batch, 2 * n)
    if not with_jacobian:
        return h
    # d(x/z) = (dx - u dz) / z, and likewise for y, for all six coordinates
    J = (D[:, :2, 1:] - uv[:, :, None] * D[:, 2:, 1:]) / z[:, None, None]
    J = J if not batch else np.ascontiguousarray(J.transpose(3, 0, 1, 2))
    return h, J.reshape(*batch, 2 * n, 6)


@dataclass(frozen=True)
class Projection:
    """Pixel and normalized image coordinates, both 2 x n."""

    points2d: Array
    normalized: Array

    def __post_init__(self):
        px = as_matrix(self.points2d, "points2d", rows=2)
        object.__setattr__(self, "points2d", px)
        object.__setattr__(self, "normalized",
                           as_matrix(self.normalized, "normalized", width=px.shape[1], rows=2))

    @property
    def n_points(self) -> int:
        return self.points2d.shape[1]

    def feature(self) -> Array:
        """Flattened normalized coordinates, point-major (u1, v1, u2, ...)."""
        return _point_major(self.normalized)


def _require_positive_depth(depth: Array, context: str = "") -> None:
    bad = np.nonzero(depth <= 0)[0]
    if bad.size:
        raise InvalidProjectionError(
            f"{context}non-positive depth for point indices {bad.tolist()}",
            indices=bad.tolist(),
        )


def _observe(
    P, model: ObjectModel, cam: CameraIntrinsics,
    rng: np.random.Generator | None = None, noise_variance: float = 0.0,
) -> tuple[Array, Array]:
    """Pixel coordinates (..., 2, n) of the model's points at pose vectors
    P, one (6,) or rows (N, 6), plus white noise when `noise_variance` is
    positive (for rows, the draws `observe` makes pose by pose in row
    order from the same `rng`; a variance not finite and >= 0 raises
    SettingError), and the depths (..., n). A pixel is NaN where its depth
    is not positive."""
    if not 0 <= noise_variance < math.inf:
        raise SettingError(f"noise_variance must be finite and >= 0, got {noise_variance}")
    C = model.homogeneous @ _camera_columns(P).reshape(4, -1)
    C = C.reshape(len(C), 3, *P.shape[:-1])  # point, camera axis, then poses
    z = np.where(C[:, 2] > 0, C[:, 2], np.nan)
    px = np.stack([cam.fx * C[:, 0] / z + cam.u0, cam.fy * C[:, 1] / z + cam.v0], 1).T
    if noise_variance > 0:
        if rng is None:
            raise ValueError("noisy observation requires an rng")
        px += rng.normal(0.0, math.sqrt(noise_variance), px.shape)
    return px, C[:, 2].T


def normalize_pixels(points2d, cam: CameraIntrinsics) -> Array:
    """Normalized image coordinates of pixels (..., 2, n)."""
    px = np.asarray(points2d, dtype=float)
    return np.stack(
        [(px[..., 0, :] - cam.u0) / cam.fx, (px[..., 1, :] - cam.v0) / cam.fy], axis=-2
    )


def _point_major(uv: Array) -> Array:
    """Coordinates (..., 2, n) as point-major features (u1, v1, u2, ...), (..., 2n)."""
    return uv.swapaxes(-1, -2).reshape(*uv.shape[:-2], 2 * uv.shape[-1])


def pixel_features(points2d, cam: CameraIntrinsics) -> Array:
    """Normalized point-major features (..., 2n) of pixels (..., 2, n)."""
    return _point_major(normalize_pixels(points2d, cam))


def observe(
    pose: Pose,
    model: ObjectModel,
    cam: CameraIntrinsics,
    rng: np.random.Generator | None = None,
    noise_variance: float = 0.0,
) -> Projection:
    """Project, and optionally add white pixel noise before normalizing;
    every point must have positive depth."""
    px, depth = _observe(pose.vector(), model, cam, rng, noise_variance)
    _require_positive_depth(depth)
    return Projection(points2d=px, normalized=normalize_pixels(px, cam))


def projection_feature_map(model: ObjectModel) -> SmoothMap:
    """Pose vector -> flattened normalized projection, with analytic Jacobian.

    One kernel of order 1 serves a single pose and (N, 6) rows, and gives
    the Jacobian together with the value from one product of the model's
    homogeneous points with the camera matrix and its six derivatives.
    Unlike `observe`, evaluation does not enforce positive depth; a zero
    or negative depth yields NaN features and NaN Jacobian entries for
    that point, which downstream iteration code reports as divergence.
    """
    H = model.homogeneous
    return SmoothMap(6, 2 * model.n_points, lambda P, order=0: _projection(P, H, order > 0),
                     order=1, name=f"projection-{model.name or 'model'}")


def pose_grid_spec(
    rot_extent_deg: float = 30.0,
    rot_step_deg: float = 10.0,
    trans_extent_mm: float = 400.0,
    trans_step_mm: float = 200.0,
) -> Array:
    """Cartesian pose-offset grid over all six parameters, as an (N, 6)
    array of offsets (see `trainer.grid_offsets`)."""
    r = math.radians(rot_extent_deg)
    lo = np.array([-r] * 3 + [-trans_extent_mm] * 3)
    hi = -lo
    step = np.array([math.radians(rot_step_deg)] * 3 + [trans_step_mm] * 3)
    return grid_offsets(lo, hi, step)


def grid_poses(offsets: Array, base_pose: Pose) -> Array:
    """The poses at `offsets` (see `pose_grid_spec`) from `base_pose` as
    an (N, 6) array of pose vectors, angles wrapped as in `Pose`."""
    return _wrap_poses(base_pose.vector() + as_matrix(offsets, "pose offsets", width=6))


def train_pose_sdm(
    model: ObjectModel,
    cam: CameraIntrinsics,
    train_grid: Array,
    base_pose: Pose = DEFAULT_BASE_POSE,
    noise_variance: float = 0.0,
    config: TrainerConfig = TrainerConfig(),
    rng: np.random.Generator | None = None,
    partition: tuple[int, ...] = EULER_PARTITION,
) -> DescentSequence:
    """Train a reversed cascade on projections of a pose grid.

    Targets are the (optionally noisy) normalized projections of each
    grid pose, equal to `observe` pose by pose in grid order from the
    same `rng`; the shared starting point is the base pose. Each stage
    fits one step per region of `partition` (default: the signs of the
    three Euler angles relative to the base pose); pass ``()`` for one
    step per stage.
    """
    poses = grid_poses(train_grid, base_pose)
    px, depth = _observe(poses, model, cam, rng, noise_variance)
    behind = np.flatnonzero((depth <= 0).any(axis=1))
    if behind.size:
        i = behind[0]
        _require_positive_depth(
            depth[i],
            f"training pose euler={poses[i, :3].tolist()} t={poses[i, 3:].tolist()} "
            "is invalid: ",
        )
    targets = pixel_features(px, cam)
    del px, depth  # the pixels and the camera frame behind the depths: lower peak memory
    tset = TrainingSet.reversed_targets(model.feature_map, base_pose.vector(), poses, targets)
    return train(tset, config, partition=partition)


def estimate_pose(
    seq: DescentSequence,
    observed: Projection,
    model: ObjectModel,
    cam: CameraIntrinsics,
    base_pose: Pose = DEFAULT_BASE_POSE,
) -> tuple[Pose, Array]:
    """Run the cascade from the base pose against an observed projection.

    Returns the last iterate as a Pose and the (len(seq) + 1, 6) trajectory
    (see `apply_sequence`, which raises DivergedError if it is not finite).
    """
    if observed.n_points != model.n_points:
        raise ValueError(
            f"observation has {observed.n_points} points, model has {model.n_points}"
        )
    traj = apply_sequence(seq, base_pose.vector(), model.feature_map, y=observed.feature())
    return Pose.from_vector(traj[-1]), traj


def _pose_errors(E: Array, T: Array) -> tuple[Array, Array]:
    """Geodesic rotation errors (degrees) and translation distances (mm)
    between the rows of two (N, 6) pose-vector arrays, each row the same
    bits alone as in a stack. The angle of Q = R_E R_T^T is taken as
    atan2(|axial part of Q|, trace Q - 1), which, unlike acos of the
    trace, keeps its accuracy near 0 and 180 degrees."""
    Q = np.vecdot(euler_to_rotation(E[:, :3])[:, :, None], euler_to_rotation(T[:, :3])[:, None])
    axial = np.stack([Q[:, 2, 1] - Q[:, 1, 2], Q[:, 0, 2] - Q[:, 2, 0], Q[:, 1, 0] - Q[:, 0, 1]], 1)
    rot = np.arctan2(np.sqrt(np.vecdot(axial, axial)), Q[:, 0, 0] + Q[:, 1, 1] + Q[:, 2, 2] - 1.0)
    d = E[:, 3:] - T[:, 3:]
    return np.degrees(rot), np.sqrt(np.vecdot(d, d))


def pose_error(estimated: Pose, truth: Pose) -> tuple[float, float]:
    """(geodesic rotation error in degrees, translation distance in mm)."""
    rot, trans = _pose_errors(estimated.vector()[None], truth.vector()[None])
    return float(rot[0]), float(trans[0])


def load_model_file(path) -> ObjectModel:
    """Plain-text model: one 'x y z' line per point, '#' comments."""
    pts = []
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"expected 3 coordinates per line, got {line!r}")
            pts.append([float(v) for v in parts])
    import os

    name = os.path.splitext(os.path.basename(str(path)))[0]
    return ObjectModel(points=np.array(pts).T, name=name)


def builtin_models() -> dict[str, ObjectModel]:
    """Bundled synthetic objects: cube, stick-figure body, face point set."""
    out = {}
    for name in ("cube", "body", "face"):
        ref = resources.files("sdm.data").joinpath(f"{name}.txt")
        with resources.as_file(ref) as path:
            out[name] = load_model_file(path)
    return out


@dataclass(frozen=True)
class PoseEvalRecord:
    """One test pose's outcome (and optional true-init baseline run's
    errors, status and iteration count)."""

    model: str
    truth: Pose
    estimate: Pose
    rot_err_deg: float
    trans_err_mm: float
    wall_ms: float
    gn_rot_err_deg: float | None = None
    gn_trans_err_mm: float | None = None
    gn_status: RunStatus | None = None
    gn_iterations: int | None = None


def evaluate_test_poses(
    seq: DescentSequence,
    model: ObjectModel,
    cam: CameraIntrinsics,
    test_poses: list[Pose],
    base_pose: Pose = DEFAULT_BASE_POSE,
    noise_variance: float = 0.0,
    rng: np.random.Generator | None = None,
    with_gauss_newton: bool = False,
) -> list[PoseEvalRecord]:
    """Estimate every test pose from its noisy observation.

    All poses are handled at once: one projection and one noise draw
    (equal to `observe` pose by pose from the same `rng`), the cascade
    on rows (`apply_sequence`), and errors on arrays. Each record's
    `wall_ms` is its pose's share of the batched cascade time. With
    `with_gauss_newton`, each instance is also solved by Gauss-Newton
    (25 iterations, on rows) initialized at the true pose, which bounds
    what any method could recover from the noisy projection.

    The first pose that fails, in test order, raises what estimating the
    poses one by one would: InvalidProjectionError for a point at
    non-positive depth, DivergedError for a cascade whose last iterate
    is not finite.
    """
    truths = np.array([p.vector() for p in test_poses]).reshape(-1, 6)
    px, depth = _observe(truths, model, cam, rng, noise_variance)
    targets = pixel_features(px, cam)
    behind = np.flatnonzero((depth <= 0).any(axis=1))
    n = behind[0] if behind.size else len(truths)
    t0 = time.perf_counter()
    X0 = np.tile(base_pose.vector(), (n, 1))
    final = apply_sequence(seq, X0, model.feature_map, targets[:n])[-1]
    wall_ms = (time.perf_counter() - t0) * 1e3 / max(n, 1)
    if behind.size:
        _require_positive_depth(depth[n])
    rot, trans = _pose_errors(_wrap_poses(final), truths)
    gn = [{}] * n
    if with_gauss_newton:
        runs = gauss_newton_rows(model.feature_map, targets, truths, max_iters=25)
        errs = zip(*(e.tolist() for e in _pose_errors(_wrap_poses(runs.final), truths)))
        gn = [dict(gn_rot_err_deg=r, gn_trans_err_mm=t, gn_status=s, gn_iterations=i)
              for (r, t), s, i in zip(errs, runs.status, runs.iterations.tolist())]
    return [
        PoseEvalRecord(model=model.name, truth=truth, estimate=Pose.from_vector(x),
                       rot_err_deg=float(r), trans_err_mm=float(t), wall_ms=wall_ms, **g)
        for truth, x, r, t, g in zip(test_poses, final, rot, trans, gn)
    ]


def subsample_poses(poses: Array, count: int, rng: np.random.Generator) -> list[Pose]:
    """Seeded subset of the rows of an (N, 6) pose-vector array, without
    replacement and in grid order, as Poses; count 0 or >= N keeps all."""
    if count <= 0 or count >= len(poses):
        keep = range(len(poses))
    else:
        keep = sorted(rng.choice(len(poses), size=count, replace=False))
    return [Pose.from_vector(poses[i]) for i in keep]


def train_protocol(
    model: ObjectModel,
    seed: int,
    config: TrainerConfig = TrainerConfig(),
    noise_variance: float = 4.0,
    rot_step_deg: float = 10.0,
    trans_step_mm: float = 200.0,
) -> DescentSequence:
    """The pose experiment's training: `train_pose_sdm` on the
    `pose_grid_spec` grid of the given steps around the default base pose,
    seen by the default camera with noise from the stream
    ``pose-train-noise-<model name>`` of `seed`. The defaults are the
    acceptance protocol's."""
    # imported here, not with the module: seeds loads hashlib, which
    # costs start-up time that no other use of pose needs
    from .seeds import stream

    grid = pose_grid_spec(rot_step_deg=rot_step_deg, trans_step_mm=trans_step_mm)
    return train_pose_sdm(model, DEFAULT_CAMERA, grid, noise_variance=noise_variance,
                          config=config, rng=stream(seed, f"pose-train-noise-{model.name}"))


def run_protocol(
    model: ObjectModel,
    seed: int,
    test_noise_variance: float = 4.0,
    test_rot_step_deg: float = 7.0,
    test_trans_step_mm: float = 170.0,
    subsample: int = 2000,
    with_gauss_newton: bool = True,
    **training,
) -> tuple[DescentSequence, list[PoseEvalRecord]]:
    """The pose experiment: `train_protocol(model, seed, **training)`, then
    `evaluate_test_poses` on `subsample` poses (see `subsample_poses`,
    stream ``pose-subsample-<model name>``) of the test grid around the
    default base pose, with noise from the stream
    ``pose-test-noise-<model name>``. The defaults are the acceptance
    protocol's. Returns the trained sequence and the records."""
    from .seeds import stream  # as in train_protocol

    seq = train_protocol(model, seed, **training)
    test_grid = pose_grid_spec(rot_step_deg=test_rot_step_deg, trans_step_mm=test_trans_step_mm)
    test_poses = subsample_poses(grid_poses(test_grid, DEFAULT_BASE_POSE), subsample,
                                 stream(seed, f"pose-subsample-{model.name}"))
    records = evaluate_test_poses(seq, model, DEFAULT_CAMERA, test_poses,
                                  noise_variance=test_noise_variance,
                                  rng=stream(seed, f"pose-test-noise-{model.name}"),
                                  with_gauss_newton=with_gauss_newton)
    return seq, records
