"""Skeleton geometry: keypoints, limb orientations, limb lengths, reconstruction.

The pose model is a rooted spanning tree over 13 named keypoints with the
nose as root.  Each of the 12 tree edges ("limbs") carries two per-frame
quantities: the image-plane orientation of the child keypoint relative to
its parent, and the Euclidean limb length in pixels.  Root position plus
all limb angles and lengths recover the pose exactly, so a sequence can be
round-tripped through the angle representation, denoised there, and
rebuilt.

Angles follow the four-quadrant arctangent convention with range (-pi, pi]:
0 points along +x, +pi/2 along +y, and the branch cut sits on the negative
x axis where the angle is +pi, never -pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLimbError, InsufficientDataError, ShapeError

KEYPOINT_NAMES = (
    "nose",
    "left_shoulder",
    "right_shoulder",
    "left_elbow",
    "right_elbow",
    "left_wrist",
    "right_wrist",
    "left_hip",
    "right_hip",
    "left_knee",
    "right_knee",
    "left_ankle",
    "right_ankle",
)
N_KEYPOINTS = 13
ROOT = 0

# Tree edges as (parent, child), listed so every parent appears as a child
# (or is the root) on an earlier edge; reconstruction walks them in order.
EDGES = (
    (0, 1),
    (0, 2),
    (1, 3),
    (3, 5),
    (2, 4),
    (4, 6),
    (1, 7),
    (2, 8),
    (7, 9),
    (9, 11),
    (8, 10),
    (10, 12),
)
N_LIMBS = 12
EDGE_NAMES = tuple(
    f"{KEYPOINT_NAMES[p]}_to_{KEYPOINT_NAMES[c]}" for p, c in EDGES
)

_PARENTS = np.array([p for p, _ in EDGES])
_CHILDREN = np.array([c for _, c in EDGES])


@dataclass
class PoseSequence:
    """A sequence of 2D poses in pixel coordinates.

    xy has shape (n_frames, 13, 2) and must be finite; fps is the capture
    rate.  Instances are treated as immutable once constructed.
    """

    xy: np.ndarray
    fps: float

    def __post_init__(self):
        self.xy = np.asarray(self.xy, dtype=float)
        if self.xy.ndim != 3 or self.xy.shape[1:] != (N_KEYPOINTS, 2):
            raise ShapeError(
                f"pose array must be (n_frames, {N_KEYPOINTS}, 2), got {self.xy.shape}"
            )
        if self.xy.shape[0] < 1:
            raise ShapeError("pose sequence needs at least one frame")
        if not np.isfinite(self.xy).all():
            bad = np.argwhere(~np.isfinite(self.xy).all(axis=2))
            frame, joint = bad[0]
            raise ShapeError(
                f"non-finite coordinate at frame {frame}, "
                f"keypoint {KEYPOINT_NAMES[joint]}"
            )
        self.fps = float(self.fps)
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ShapeError(f"fps must be positive and finite, got {self.fps}")

    @property
    def n_frames(self) -> int:
        return self.xy.shape[0]


def wrap_angle(theta):
    """Map angles to the canonical branch (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    out = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    # mod can land on -pi for inputs just below the branch point
    out = np.where(out == -np.pi, np.pi, out)
    return out if out.ndim else float(out)


def _refuse_limbs(mask: np.ndarray, problem: str):
    """mask is (n, 12); if any is set, raise naming the first edge and frame."""
    if mask.any():
        frame, edge = np.argwhere(mask)[0]
        raise DegenerateLimbError(
            f"{problem} on limb {EDGE_NAMES[int(edge)]} at frame {int(frame)}"
        )


def _limb_vectors(xy: np.ndarray) -> np.ndarray:
    """Child minus parent keypoint of every limb, (n, 12, 2).  Finite
    keypoints can be too far apart for float64; such a limb is refused."""
    with np.errstate(over="ignore"):
        d = xy[..., _CHILDREN, :] - xy[..., _PARENTS, :]
    _refuse_limbs(~np.isfinite(d).all(axis=-1), "non-finite vector")
    return d


def pose_to_angles(seq: PoseSequence) -> np.ndarray:
    """All limb orientations of a sequence, shape (n_frames, 12)."""
    d = _limb_vectors(seq.xy)
    _refuse_limbs((d[..., 0] == 0.0) & (d[..., 1] == 0.0), "coincident keypoints")
    ang = np.arctan2(d[..., 1], d[..., 0])
    return np.where(ang == -np.pi, np.pi, ang)


def pose_to_limb_lengths(seq: PoseSequence) -> np.ndarray:
    """All limb lengths of a sequence, shape (n_frames, 12)."""
    d = _limb_vectors(seq.xy)
    with np.errstate(over="ignore"):
        lengths = np.hypot(d[..., 0], d[..., 1])
    _refuse_limbs(~np.isfinite(lengths), "non-finite length")
    return lengths


def reconstruct_sequence(base, theta, lengths, fps: float = 30.0) -> PoseSequence:
    """Vectorized reconstruction of a whole sequence.

    base is (n, 2), theta and lengths are (n, 12); returns a PoseSequence.
    """
    base = np.asarray(base, dtype=float)
    theta = np.asarray(theta, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    n = base.shape[0]
    if base.shape != (n, 2) or theta.shape != (n, N_LIMBS) or lengths.shape != (n, N_LIMBS):
        raise ShapeError(
            "base must be (n, 2) and theta/lengths (n, 12) with matching n"
        )
    _refuse_limbs(~(lengths > 0), "non-positive length")
    xy = np.empty((n, N_KEYPOINTS, 2))
    xy[:, ROOT, :] = base
    cos = np.cos(theta)
    sin = np.sin(theta)
    for e, (p, c) in enumerate(EDGES):
        xy[:, c, 0] = xy[:, p, 0] + lengths[:, e] * cos[:, e]
        xy[:, c, 1] = xy[:, p, 1] + lengths[:, e] * sin[:, e]
    return PoseSequence(xy=xy, fps=fps)


def velocity_series(positions: np.ndarray, fps: float) -> np.ndarray:
    """Per-frame velocity in px/s: central differences inside, one-sided at ends."""
    positions = np.asarray(positions, dtype=float)
    if positions.shape[0] < 2:
        raise InsufficientDataError("velocity needs at least two frames")
    if not (fps > 0):
        raise ShapeError(f"fps must be positive, got {fps}")
    return np.gradient(positions, axis=0) * float(fps)
