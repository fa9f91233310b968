"""Synthetic 3D pose estimation with a reversed descent-map cascade.

A pose is three intrinsic Z-Y-X Euler angles (radians) plus a
translation (millimeters). The feature vector of a pose is the
flattened normalized projection of the object's points, so the camera
intrinsics cancel out of the optimization and only enter when pixel
noise is added. Training samples a grid of pose offsets around a base
pose; estimation always starts from that same base pose. The cascade
is partitioned on the three Euler angles: at every stage it applies one
of eight steps, chosen by the signs of the current estimate's angles
relative to the base pose.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .baselines import gauss_newton_minimize
from .core import (
    Array,
    DescentSequence,
    NlsProblem,
    SmoothMap,
    apply_sequence,
    as_matrix,
    as_vector,
)
from .errors import DimensionMismatchError, InvalidProjectionError
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
            raise ValueError("focal lengths must be positive")


DEFAULT_CAMERA = CameraIntrinsics(fx=1000.0, fy=1000.0, u0=500.0, v0=500.0)


@dataclass(frozen=True)
class ObjectModel:
    """3D points (3 x n, millimeters, object frame)."""

    points: Array
    name: str = ""

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != 3:
            raise ValueError("points must be a 3 x n array")
        if pts.shape[1] < 4:
            raise ValueError("a pose model needs at least 4 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("model points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[1]


def _wrap_angle(a: float) -> float:
    w = (a + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if w == -math.pi else w


def _wrap_angles(angles: Array) -> Array:
    """`_wrap_angle` of every entry of an array, into (-pi, pi]."""
    w = np.remainder(angles + math.pi, 2.0 * math.pi) - math.pi
    w[w == -math.pi] = math.pi
    return w


@dataclass(frozen=True)
class Pose:
    """Euler angles (yaw-z, pitch-y, roll-x, radians) and translation (mm)."""

    euler: Array
    translation: Array

    def __post_init__(self):
        e = as_vector(self.euler, "euler", dim=3)
        e = np.array([_wrap_angle(a) for a in e])
        e.setflags(write=False)
        object.__setattr__(self, "euler", e)
        object.__setattr__(self, "translation", as_vector(self.translation, "translation", dim=3))

    def vector(self) -> Array:
        return np.concatenate([self.euler, self.translation])

    @classmethod
    def from_vector(cls, v) -> "Pose":
        v = as_vector(v, "pose vector", dim=6)
        return cls(euler=v[:3], translation=v[3:])

    def rotation(self) -> Array:
        return euler_to_rotation(self.euler)


# Pose-vector coordinates of the three Euler angles; the pose cascade's
# partition coordinates (8 regions).
EULER_PARTITION = (0, 1, 2)

DEFAULT_BASE_POSE = Pose(euler=np.zeros(3), translation=np.array([0.0, 0.0, 2000.0]))


def _rz(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rx(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _plane_rotations(angles: Array, i: int, j: int) -> Array:
    """(N, 3, 3) rotations by `angles` turning axis i toward axis j."""
    c, s = np.cos(angles), np.sin(angles)
    R = np.zeros((len(angles), 3, 3))
    R[:, 3 - i - j, 3 - i - j] = 1.0
    R[:, i, i] = R[:, j, j] = c
    R[:, j, i] = s
    R[:, i, j] = -s
    return R


def euler_to_rotation(euler) -> Array:
    """Intrinsic Z-Y-X rotation: Rz(yaw) @ Ry(pitch) @ Rx(roll).

    One angle triple gives a 3x3 matrix; an (N, 3) array gives the
    (N, 3, 3) stack of its rows' rotations, built from the same entries
    and products.
    """
    e = np.asarray(euler, dtype=float)
    if e.ndim == 2:
        Rz = _plane_rotations(e[:, 0], 0, 1)
        Ry = _plane_rotations(e[:, 1], 2, 0)
        Rx = _plane_rotations(e[:, 2], 1, 2)
        return Rz @ Ry @ Rx
    e = e.reshape(3)
    return _rz(e[0]) @ _ry(e[1]) @ _rx(e[2])


def _rotation_derivatives(euler) -> Array:
    """(3, 3, 3) array, entry k the derivative of Q wrt angle k."""
    e = np.asarray(euler, dtype=float).reshape(3)
    a, b, c = e
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)
    dRz = np.array([[-sa, -ca, 0.0], [ca, -sa, 0.0], [0.0, 0.0, 0.0]])
    dRy = np.array([[-sb, 0.0, cb], [0.0, 0.0, 0.0], [-cb, 0.0, -sb]])
    cc, sc = math.cos(c), math.sin(c)
    dRx = np.array([[0.0, 0.0, 0.0], [0.0, -sc, -cc], [0.0, cc, -sc]])
    Rz, Ry, Rx = _rz(a), _ry(b), _rx(c)
    return np.stack([dRz @ Ry @ Rx, Rz @ dRy @ Rx, Rz @ Ry @ dRx])


@dataclass(frozen=True)
class Projection:
    """Pixel and normalized image coordinates, both 2 x n."""

    points2d: Array
    normalized: Array

    def __post_init__(self):
        px = np.array(self.points2d, dtype=float)
        nm = np.array(self.normalized, dtype=float)
        if px.shape != nm.shape or px.ndim != 2 or px.shape[0] != 2:
            raise ValueError("points2d and normalized must both be 2 x n")
        if not (np.all(np.isfinite(px)) and np.all(np.isfinite(nm))):
            raise ValueError("projection coordinates must be finite")
        px.setflags(write=False)
        nm.setflags(write=False)
        object.__setattr__(self, "points2d", px)
        object.__setattr__(self, "normalized", nm)

    @property
    def n_points(self) -> int:
        return self.points2d.shape[1]

    def feature(self) -> Array:
        """Flattened normalized coordinates, point-major (u1, v1, u2, ...)."""
        return self.normalized.ravel(order="F")


def _camera_frame(pose_vec: Array, model: ObjectModel) -> Array:
    """The model's points in the camera frame: (3, n) for one pose
    vector, (N, 3, n) for an (N, 6) array of them."""
    Q = euler_to_rotation(pose_vec[..., :3])
    return Q @ model.points + pose_vec[..., 3:, None]


def _require_positive_depth(depth: Array, context: str = "") -> None:
    bad = np.nonzero(depth <= 0)[0]
    if bad.size:
        raise InvalidProjectionError(
            f"{context}non-positive depth for point indices {bad.tolist()}",
            indices=bad.tolist(),
        )


def _pixels(C: Array, cam: CameraIntrinsics) -> Array:
    """Pixel coordinates (..., 2, n) of camera-frame points (..., 3, n)."""
    x, y, z = C[..., 0, :], C[..., 1, :], C[..., 2, :]
    u = cam.fx * x / z + cam.u0
    v = cam.fy * y / z + cam.v0
    return np.stack([u, v], axis=-2)


def project(pose: Pose, model: ObjectModel, cam: CameraIntrinsics) -> Projection:
    """Perspective projection; every point must have positive depth."""
    C = _camera_frame(pose.vector(), model)
    _require_positive_depth(C[2])
    px = _pixels(C, cam)
    return Projection(points2d=px, normalized=normalize_pixels(px, cam))


def normalize_pixels(points2d, cam: CameraIntrinsics) -> Array:
    """Normalized image coordinates of pixels (..., 2, n)."""
    px = np.asarray(points2d, dtype=float)
    return np.stack(
        [(px[..., 0, :] - cam.u0) / cam.fx, (px[..., 1, :] - cam.v0) / cam.fy], axis=-2
    )


def observe(
    pose: Pose,
    model: ObjectModel,
    cam: CameraIntrinsics,
    rng: np.random.Generator | None = None,
    noise_variance: float = 0.0,
) -> Projection:
    """Project and optionally add white pixel noise before normalizing."""
    proj = project(pose, model, cam)
    if noise_variance > 0:
        if rng is None:
            raise ValueError("noisy observation requires an rng")
        px = proj.points2d + rng.normal(0.0, math.sqrt(noise_variance), proj.points2d.shape)
        return Projection(points2d=px, normalized=normalize_pixels(px, cam))
    return proj


def projection_feature_map(model: ObjectModel) -> SmoothMap:
    """Pose vector -> flattened normalized projection, with analytic Jacobian.

    Unlike `project`, evaluation does not enforce positive depth; a zero
    or negative depth yields non-finite features, which downstream
    iteration code reports as divergence.
    """
    M = model.points
    n = model.n_points

    def fn(p):
        C = _camera_frame(p, model)
        with np.errstate(divide="ignore", invalid="ignore"):
            uv = np.stack([C[0] / C[2], C[1] / C[2]])
        uv[:, C[2] <= 0] = np.nan  # behind-camera points poison the feature
        return uv.ravel(order="F")

    def rows(P):
        C = _camera_frame(P, model)
        with np.errstate(divide="ignore", invalid="ignore"):
            uv = np.stack([C[:, 0] / C[:, 2], C[:, 1] / C[:, 2]], axis=-1)
        uv[C[:, 2] <= 0] = np.nan
        return uv.reshape(len(P), 2 * n)

    def jac(p):
        C = _camera_frame(p, model)
        dQ = _rotation_derivatives(p[:3])
        J = np.empty((2 * n, 6))
        z = C[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(3):
                dC = dQ[k] @ M
                J[0::2, k] = (dC[0] * z - C[0] * dC[2]) / (z * z)
                J[1::2, k] = (dC[1] * z - C[1] * dC[2]) / (z * z)
            J[0::2, 3] = 1.0 / z
            J[1::2, 3] = 0.0
            J[0::2, 4] = 0.0
            J[1::2, 4] = 1.0 / z
            J[0::2, 5] = -C[0] / (z * z)
            J[1::2, 5] = -C[1] / (z * z)
        return J

    return SmoothMap(6, 2 * n, fn, jac=jac, name=f"projection-{model.name or 'model'}",
                     rows=rows)


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
    offsets = as_matrix(offsets, "pose offsets")
    if offsets.shape[1] != 6:
        raise DimensionMismatchError("pose offsets", expected=6, got=offsets.shape[1])
    poses = base_pose.vector() + offsets
    poses[:, :3] = _wrap_angles(poses[:, :3])
    return poses


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
    C = _camera_frame(poses, model)
    behind = np.flatnonzero((C[:, 2] <= 0).any(axis=1))
    if behind.size:
        i = behind[0]
        _require_positive_depth(
            C[i, 2],
            f"training pose euler={poses[i, :3].tolist()} t={poses[i, 3:].tolist()} "
            "is invalid: ",
        )
    px = _pixels(C, cam)
    if noise_variance > 0:
        if rng is None:
            raise ValueError("noisy observation requires an rng")
        px = px + rng.normal(0.0, math.sqrt(noise_variance), px.shape)
    # point-major features (u1, v1, u2, ...), as Projection.feature
    targets = normalize_pixels(px, cam).transpose(0, 2, 1).reshape(len(poses), -1)
    tset = TrainingSet.reversed_targets(
        projection_feature_map(model), base_pose.vector(), poses, targets
    )
    return train(tset, config, partition=partition)


def estimate_pose(
    seq: DescentSequence,
    observed: Projection,
    model: ObjectModel,
    cam: CameraIntrinsics,
    base_pose: Pose = DEFAULT_BASE_POSE,
) -> tuple[Pose, list[Array]]:
    """Run the cascade from the base pose against an observed projection.

    Returns the last iterate as a Pose and the cascade's trajectory of
    pose vectors (see `apply_sequence`).
    """
    if observed.n_points != model.n_points:
        raise ValueError(
            f"observation has {observed.n_points} points, model has {model.n_points}"
        )
    traj = apply_sequence(
        seq, base_pose.vector(), projection_feature_map(model), y=observed.feature()
    )
    return Pose.from_vector(traj[-1]), traj


def pose_error(estimated: Pose, truth: Pose) -> tuple[float, float]:
    """(geodesic rotation error in degrees, translation distance in mm)."""
    rel = estimated.rotation() @ truth.rotation().T
    cos_angle = (np.trace(rel) - 1.0) / 2.0
    cos_angle = min(1.0, max(-1.0, cos_angle))
    rot_deg = math.degrees(math.acos(cos_angle))
    trans_mm = float(np.linalg.norm(estimated.translation - truth.translation))
    return rot_deg, trans_mm


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
    """One test pose's outcome (and optional true-init baseline errors)."""

    model: str
    truth: Pose
    estimate: Pose
    rot_err_deg: float
    trans_err_mm: float
    wall_ms: float
    gn_rot_err_deg: float | None = None
    gn_trans_err_mm: float | None = None


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

    With `with_gauss_newton`, also solves each instance by Gauss-Newton
    initialized at the true pose, which bounds what any method could
    recover from the noisy projection.
    """
    feature_map = projection_feature_map(model)
    records = []
    for pose in test_poses:
        obs = observe(pose, model, cam, rng=rng, noise_variance=noise_variance)
        t0 = time.perf_counter()
        est, _ = estimate_pose(seq, obs, model, cam, base_pose)
        wall_ms = (time.perf_counter() - t0) * 1e3
        rot_err, trans_err = pose_error(est, pose)
        gn_rot = gn_trans = None
        if with_gauss_newton:
            problem = NlsProblem(map=feature_map, target=obs.feature())
            run = gauss_newton_minimize(problem, pose.vector(), max_iters=25)
            gn_est = Pose.from_vector(run.final)
            gn_rot, gn_trans = pose_error(gn_est, pose)
        records.append(
            PoseEvalRecord(
                model=model.name,
                truth=pose,
                estimate=est,
                rot_err_deg=rot_err,
                trans_err_mm=trans_err,
                wall_ms=wall_ms,
                gn_rot_err_deg=gn_rot,
                gn_trans_err_mm=gn_trans,
            )
        )
    return records


def subsample_poses(poses: Array, count: int, rng: np.random.Generator) -> list[Pose]:
    """Seeded subset of the rows of an (N, 6) pose-vector array, without
    replacement and in grid order, as Poses; count 0 or >= N keeps all."""
    if count <= 0 or count >= len(poses):
        keep = range(len(poses))
    else:
        keep = sorted(rng.choice(len(poses), size=count, replace=False))
    return [Pose.from_vector(poses[i]) for i in keep]
