"""End-to-end pipeline: keypoint files in, refined keypoint files out.

Stages: read keypoints, convert to limb angles and lengths, smooth the root
trajectory, fit one limb-length vector to the subject's median proportions
(a closed-form least-squares fit in log lengths), refine the angle series
with a trained window model, then rebuild keypoints from root + angles +
the fitted lengths, the same in every frame.  Also home to the evaluation
metrics and the CSV exports.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .conditioning import estimate_ratios, optimize_limb_lengths, smooth_base_trajectory
from .errors import SchemaError, ShapeError
from .jsonio import json_index, json_number, read_json
from .refiner import RefinerModel, load_model
from .skeleton import (
    EDGE_NAMES,
    KEYPOINT_NAMES,
    N_KEYPOINTS,
    N_LIMBS,
    PoseSequence,
    pose_to_angles,
    pose_to_limb_lengths,
    reconstruct_sequence,
    velocity_series,
    wrap_angle,
)
from .windows import refine_sequence


@dataclass
class PipelineConfig:
    """Refine settings; the stage that uses a value also checks it.

    half_width sizes the root smoother's window.  The limb-length fit has
    no setting, and the refiner's window layout follows from the model's
    window length alone.
    """

    half_width: int = 50


@dataclass
class RefinedMotion:
    """Motion in the factored representation: root path, angles, lengths."""

    base: np.ndarray  # (n, 2) root trajectory
    theta: np.ndarray  # (n, 12) limb angles, possibly unwrapped
    lengths: np.ndarray  # (n, 12) limb lengths in px
    fps: float

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.lengths = np.asarray(self.lengths, dtype=float)
        n = self.base.shape[0]
        if (
            self.base.shape != (n, 2)
            or self.theta.shape != (n, N_LIMBS)
            or self.lengths.shape != (n, N_LIMBS)
        ):
            raise ShapeError("base (n,2), theta (n,12), lengths (n,12) must agree")

    @property
    def n_frames(self) -> int:
        return self.base.shape[0]

    def positions(self) -> PoseSequence:
        return reconstruct_sequence(self.base, self.theta, self.lengths, self.fps)


# ---------------------------------------------------------------------------
# keypoint files


def parse_keypoints(path) -> PoseSequence:
    """Read a keypoint JSON file and validate it down to each coordinate."""
    doc = read_json(path, str(path))
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    for key in ("fps", "keypoints", "frames"):
        if key not in doc:
            raise SchemaError(f"{path}: missing key {key!r}")
    names = doc["keypoints"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise SchemaError(f"{path}: keypoints must be a list of names")
    if names != list(KEYPOINT_NAMES):
        missing = sorted(set(KEYPOINT_NAMES) - set(names))
        extra = sorted(set(names) - set(KEYPOINT_NAMES))
        raise SchemaError(
            f"{path}: keypoint names mismatch (missing={missing}, extra={extra}, "
            "order must be canonical)"
        )
    frames = doc["frames"]
    if not isinstance(frames, list) or not frames:
        raise SchemaError(f"{path}: frames must be a non-empty list")
    xy = _coordinates(frames)
    if xy is None:
        xy = _walk_coordinates(path, frames)
    try:
        fps = json_number(doc["fps"])
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{path}: fps must be a number")
    try:
        return PoseSequence(xy=xy, fps=fps)
    except ShapeError as exc:
        raise SchemaError(f"{path}: {exc}")


def _coordinates(frames: list) -> np.ndarray | None:
    """The (n, 13, 2) array of a well-formed frame list, else None.

    One pass collects the types of the coordinate values and one
    np.array converts them.  A list this refuses is walked again by
    _walk_coordinates, which words the error.
    """
    pts = [frame.get("xy") if type(frame) is dict else None for frame in frames]
    try:
        kinds = {type(v) for p in pts for pt in p for v in pt}
    except TypeError:
        return None
    # np.array would also take strings, booleans and None
    if not kinds <= {int, float}:
        return None
    try:
        xy = np.array(pts, dtype=float)
    except (ValueError, OverflowError):
        return None
    return xy if xy.shape == (len(frames), N_KEYPOINTS, 2) else None


def _walk_coordinates(path, frames: list) -> np.ndarray:
    """The coordinate check point by point; raises at the first bad one."""
    xy = np.empty((len(frames), N_KEYPOINTS, 2))
    for f, frame in enumerate(frames):
        if not isinstance(frame, dict) or "xy" not in frame:
            raise SchemaError(f"{path}: frame {f} lacks an 'xy' entry")
        pts = frame["xy"]
        if not isinstance(pts, list):
            raise SchemaError(f"{path}: frame {f}: 'xy' must be a list of points")
        if len(pts) != N_KEYPOINTS:
            raise SchemaError(
                f"{path}: frame {f} has {len(pts)} points, expected {N_KEYPOINTS}"
            )
        for j, pt in enumerate(pts):
            try:
                if not isinstance(pt, list) or len(pt) != 2:
                    raise TypeError
                xy[f, j] = (json_number(pt[0]), json_number(pt[1]))
            except (TypeError, ValueError, OverflowError):
                raise SchemaError(
                    f"{path}: frame {f}, keypoint {KEYPOINT_NAMES[j]} is not an (x, y) "
                    "pair of numbers"
                )
    return xy


def write_keypoints(seq: PoseSequence, path) -> None:
    doc = {
        "fps": seq.fps,
        "keypoints": list(KEYPOINT_NAMES),
        "frames": [{"xy": frame} for frame in seq.xy.tolist()],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# refinement


def refine_pose_sequence(
    seq: PoseSequence,
    model: RefinerModel,
    config: PipelineConfig | None = None,
) -> RefinedMotion:
    """Run the full conditioning + refinement chain on a parsed sequence."""
    if config is None:
        config = PipelineConfig()
    theta = pose_to_angles(seq)
    raw_lengths = pose_to_limb_lengths(seq)
    base = smooth_base_trajectory(seq, config.half_width)
    solve = optimize_limb_lengths(raw_lengths, estimate_ratios(raw_lengths))
    lengths = np.tile(solve.lengths, (len(raw_lengths), 1))
    refined = refine_sequence(theta, model)
    return RefinedMotion(base=base, theta=refined, lengths=lengths, fps=seq.fps)


def refine_keypoint_file(
    input_path,
    model_path,
    output_path,
    config: PipelineConfig | None = None,
) -> RefinedMotion:
    """File-level wrapper: parse, refine, write reconstructed keypoints."""
    seq = parse_keypoints(input_path)
    model = load_model(model_path)
    motion = refine_pose_sequence(seq, model, config)
    write_keypoints(motion.positions(), output_path)
    return motion


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsReport:
    mse_aggregate: float
    mse_per_joint: np.ndarray
    n_frames: int
    n_erroneous: int
    n_corrected: int
    correction_rate: float
    tau: float

    def to_dict(self) -> dict:
        return {
            "mse": {
                "aggregate": self.mse_aggregate,
                "per_joint": [float(v) for v in self.mse_per_joint],
            },
            "correction": {
                "rate": self.correction_rate,
                "erroneous_frames": self.n_erroneous,
                "corrected_frames": self.n_corrected,
                "tau_rad": self.tau,
                "tau_deg": math.degrees(self.tau),
            },
            "n_frames": self.n_frames,
        }


def evaluate_metrics(
    refined: np.ndarray,
    truth: np.ndarray,
    erroneous: dict | None = None,
    tau: float = math.radians(10.0),
) -> MetricsReport:
    """Angle MSE plus the outlier correction rate.

    erroneous maps frame index -> affected joint list (None means all 12
    joints; a list must be non-empty).  A frame counts as corrected when
    every affected joint's refined angle is within tau of truth;
    differences are taken on the wrapped branch so a 2*pi offset never
    counts as an error.  With no erroneous frames the rate is vacuously 1.
    """
    refined = np.asarray(refined, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if refined.shape != truth.shape or refined.ndim != 2:
        raise ShapeError("refined and truth must both be (n_frames, n_joints)")
    if not (tau > 0):
        raise ShapeError(f"tau must be positive, got {tau}")
    diff = wrap_angle(refined - truth)
    mse_per_joint = np.mean(diff * diff, axis=0)
    n_frames, n_joints = refined.shape

    erroneous = erroneous or {}
    corrected = 0
    for frame, joints in sorted(erroneous.items()):
        if not (0 <= frame < n_frames):
            raise ShapeError(f"erroneous frame {frame} outside the sequence")
        # an empty list has no joint to fail tau, so it would always count as corrected
        if joints is not None and not (len(joints) > 0 and all(0 <= j < n_joints for j in joints)):
            raise ShapeError(
                f"erroneous frame {frame}: joints {joints} must be a non-empty list "
                f"of indices in [0, {n_joints})"
            )
        row = diff[frame] if joints is None else diff[frame, list(joints)]
        if np.all(np.abs(row) <= tau):
            corrected += 1
    n_err = len(erroneous)
    return MetricsReport(
        mse_aggregate=float(np.mean(diff * diff)),
        mse_per_joint=mse_per_joint,
        n_frames=n_frames,
        n_erroneous=n_err,
        n_corrected=corrected,
        correction_rate=(corrected / n_err) if n_err else 1.0,
        tau=float(tau),
    )


def load_erroneous_frames(path) -> dict:
    """Read an erroneous-set JSON file into {frame: joints-or-None}.

    Accepted forms: {"frames": [7, {"frame": 9, "joints": [0, 3]}, ...]} or
    a bare list of the same entries.  Plain integers mean all joints, and
    a frame may be listed once; evaluate_metrics refuses an empty or
    out-of-range joint list.
    """
    doc = read_json(path, str(path))
    entries = doc.get("frames") if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise SchemaError(f"{path}: expected a list of frames")
    out: dict[int, list | None] = {}
    for entry in entries:
        if isinstance(entry, int):
            frame, joints = entry, None
        elif isinstance(entry, dict) and "frame" in entry:
            frame, joints = entry["frame"], entry.get("joints")
        else:
            raise SchemaError(f"{path}: unrecognized erroneous-frame entry {entry!r}")
        try:
            frame = json_index(frame)
            joints = None if joints is None else [json_index(j) for j in joints]
        except TypeError:
            raise SchemaError(f"{path}: frame and joints must be integers in {entry!r}")
        if frame in out:
            raise SchemaError(f"{path}: frame {frame} is listed twice")
        out[frame] = joints
    return out


# ---------------------------------------------------------------------------
# exports


def export_series(motion: RefinedMotion, what: str, path) -> None:
    """Write positions, angles, or velocities as CSV with a time column."""
    n = motion.n_frames
    times = np.arange(n) / motion.fps
    if what == "positions":
        header = ["frame", "time_s"]
        for name in KEYPOINT_NAMES:
            header += [f"{name}_x", f"{name}_y"]
        body = motion.positions().xy.reshape(n, -1)
    elif what == "angles":
        header = ["frame", "time_s"] + [f"angle_{name}" for name in EDGE_NAMES]
        body = motion.theta
    elif what == "velocities":
        header = ["frame", "time_s"]
        for name in KEYPOINT_NAMES:
            header += [f"{name}_vx", f"{name}_vy"]
        body = velocity_series(motion.positions().xy, motion.fps).reshape(n, -1)
    else:
        raise ShapeError(
            f"unknown export {what!r}; use positions, angles, or velocities"
        )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for f in range(n):
            writer.writerow([f, repr(float(times[f]))] + [repr(float(v)) for v in body[f]])
