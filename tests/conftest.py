"""Shared fixtures and pose generators for the test suite."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from poserefine import (
    KEYPOINT_NAMES,
    N_LIMBS,
    PoseSequence,
    pose_to_angles,
    pose_to_limb_lengths,
    reconstruct_sequence,
)

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def pose_angles(xy) -> np.ndarray:
    """The 12 limb orientations of one (13, 2) pose, via the sequence route."""
    return pose_to_angles(PoseSequence(np.asarray(xy, dtype=float)[None], 30.0))[0]


def pose_lengths(xy) -> np.ndarray:
    """The 12 limb lengths of one (13, 2) pose, via the sequence route."""
    return pose_to_limb_lengths(PoseSequence(np.asarray(xy, dtype=float)[None], 30.0))[0]


def rebuild_pose(base, theta, lengths) -> np.ndarray:
    """One (13, 2) pose from root position, limb angles and lengths."""
    return reconstruct_sequence(
        np.asarray(base, dtype=float)[None],
        np.asarray(theta, dtype=float)[None],
        np.asarray(lengths, dtype=float)[None],
    ).xy[0]


def random_pose(rng: np.random.Generator) -> np.ndarray:
    """A (13, 2) pose that is non-degenerate by construction."""
    base = rng.uniform(-200.0, 200.0, size=2)
    theta = rng.uniform(-np.pi, np.pi, size=N_LIMBS)
    lengths = rng.uniform(20.0, 80.0, size=N_LIMBS)
    return rebuild_pose(base, theta, lengths)


def random_sequence(rng: np.random.Generator, n_frames: int, fps: float = 30.0) -> PoseSequence:
    base = rng.uniform(-200.0, 200.0, size=(n_frames, 2))
    theta = rng.uniform(-np.pi, np.pi, size=(n_frames, N_LIMBS))
    lengths = rng.uniform(20.0, 80.0, size=(n_frames, N_LIMBS))
    return reconstruct_sequence(base, theta, lengths, fps)


def smooth_sequence(rng: np.random.Generator, n_frames: int, fps: float = 30.0) -> PoseSequence:
    """Constant limb lengths, quadratic base path, slowly varying angles.

    Built so every conditioning stage is a fixed point: the quadratic base
    passes through the smoother unchanged and the constant lengths already
    satisfy their own ratio table.
    """
    t = np.arange(n_frames, dtype=float)
    coeff = rng.uniform(-1.0, 1.0, size=(3, 2))
    base = coeff[0] + coeff[1] * t[:, None] / n_frames + coeff[2] * (t[:, None] / n_frames) ** 2
    base = 100.0 * base
    phase = rng.uniform(0.0, 2.0 * np.pi, size=N_LIMBS)
    mean = rng.uniform(-2.0, 2.0, size=N_LIMBS)
    theta = mean + 0.6 * np.sin(2.0 * np.pi * t[:, None] / 60.0 + phase)
    lengths = np.broadcast_to(rng.uniform(20.0, 80.0, size=N_LIMBS), (n_frames, N_LIMBS)).copy()
    return reconstruct_sequence(base, theta, lengths, fps)


def write_exact_keypoints(seq: PoseSequence, path) -> None:
    """A keypoint file that holds seq's coordinates bit for bit.

    write_keypoints rounds to six decimals, and the rounded coordinates no
    longer have constant limb lengths, so smooth_sequence's poses would stop
    being a fixed point of conditioning.  Tests that compare a refined file
    with its input to 1e-6 write the input with this instead.
    """
    doc = {
        "fps": seq.fps,
        "keypoints": list(KEYPOINT_NAMES),
        "frames": [{"xy": frame} for frame in seq.xy.tolist()],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def rounded_coordinates(xy) -> np.ndarray:
    """xy as a keypoint file stores it: each value at six decimals."""
    xy = np.asarray(xy, dtype=float)
    return np.array([float(f"{v:.6f}") for v in xy.ravel()]).reshape(xy.shape)


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(20260823)
