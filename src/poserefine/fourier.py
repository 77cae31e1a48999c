"""Order-8 Fourier models of cyclic joint-angle trajectories.

A joint angle over one motion cycle is represented as a truncated Fourier
series: theta(m) = a0 + sum_k [a_k cos(2 pi k m / T) + b_k sin(2 pi k m / T)]
for k = 1..8.  One series is a coefficient vector (a0, a1..aK, b1..bK); the
period T is not part of it but is given wherever the series is sampled.  A
motion template is one such vector per limb; new subjects are simulated by
jittering the mean value and the first two harmonics of a reference template.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSamplingError,
    InsufficientDataError,
    InvalidRangeError,
    ShapeError,
)
from .skeleton import N_LIMBS

ORDER = 8


def eval_fourier(coeffs, m, T: float) -> np.ndarray | float:
    """Evaluate one series (a0, a1..aK, b1..bK) of period T at frame
    positions m (scalar or array)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size % 2 == 0:
        raise ShapeError(f"coefficients must be one odd-length vector, got {coeffs.shape}")
    order = coeffs.size // 2
    m = np.asarray(m, dtype=float)
    arg = m[..., None] * (2.0 * np.pi * np.arange(1, order + 1) / T)
    out = coeffs[0] + np.cos(arg) @ coeffs[1 : order + 1] + np.sin(arg) @ coeffs[order + 1 :]
    return out if out.ndim else float(out)


def fit_fourier(m, theta, T: float, order: int = ORDER) -> np.ndarray:
    """Least-squares fit of a series with known period to sampled angles;
    returns the (2*order+1,) coefficient vector (a0, a1..aK, b1..bK)."""
    m = np.asarray(m, dtype=float).ravel()
    theta = np.asarray(theta, dtype=float).ravel()
    if m.size != theta.size:
        raise ShapeError("sample positions and values must have equal length")
    n_coeffs = 2 * order + 1
    if m.size < n_coeffs:
        raise InsufficientDataError(
            f"need >= {n_coeffs} samples for order {order}, got {m.size}"
        )
    if not (T > 0):
        raise InvalidRangeError(f"period must be positive, got {T}")
    arg = m[:, None] * (2.0 * np.pi * np.arange(1, order + 1) / T)
    basis = np.concatenate([np.ones((m.size, 1)), np.cos(arg), np.sin(arg)], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(basis, theta, rcond=None)
    if rank < n_coeffs:
        raise DegenerateSamplingError(
            f"sample positions leave the fit rank deficient ({rank} < {n_coeffs})"
        )
    return coef


@dataclass(frozen=True, eq=False)
class FourierMotionTemplate:
    """A named (12, 2*ORDER+1) array: one coefficient row per limb."""

    name: str
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (N_LIMBS, 2 * ORDER + 1):
            raise ShapeError(
                f"template needs ({N_LIMBS}, {2 * ORDER + 1}) coefficients, got {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)


@dataclass
class RandomizeRanges:
    """Jitter bounds for simulated subjects.

    a0 gets an additive offset; the first two harmonics get independent
    multiplicative scales.  Degenerate (zero-width) ranges reproduce the
    template exactly.
    """

    a0_offset: tuple = (-0.15, 0.15)
    amplitude_scale: tuple = (0.7, 1.3)

    def __post_init__(self):
        for name in ("a0_offset", "amplitude_scale"):
            lo, hi = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
                raise InvalidRangeError(f"{name} must be a finite (lo, hi) with lo <= hi")


def randomize_template(
    base: FourierMotionTemplate,
    ranges: RandomizeRanges,
    rng: np.random.Generator,
) -> FourierMotionTemplate:
    """Draw a simulated-subject variant of a template.

    Only a0, a1, b1, a2 and b2 move; higher harmonics are untouched.  Draw
    order is fixed (per joint: offset, then scales of a1, b1, a2, b2) so a
    seeded generator reproduces the same variant.
    """
    # the retired period draw: keeps seeded subjects, corpora and inputs byte-identical
    rng.random()
    coeffs = base.coeffs.copy()
    for row in coeffs:
        row[0] += rng.uniform(*ranges.a0_offset)
        row[[1, ORDER + 1, 2, ORDER + 2]] *= rng.uniform(*ranges.amplitude_scale, size=4)
    return FourierMotionTemplate(name=base.name, coeffs=coeffs)


def synthesize_truth(
    template: FourierMotionTemplate,
    frames_per_cycle: int,
    cycles: int,
) -> np.ndarray:
    """Sample clean joint-angle curves on a fixed cycle grid.

    Returns (frames_per_cycle * cycles, 12).  The grid sets the period:
    each series is evaluated with T = frames_per_cycle, so consecutive
    cycles repeat exactly.
    """
    if frames_per_cycle < 1 or cycles < 1:
        raise InvalidRangeError("frames_per_cycle and cycles must be >= 1")
    try:
        m = np.arange(frames_per_cycle * cycles, dtype=float)
    except ValueError as exc:  # a size numpy refuses before allocating
        raise InvalidRangeError(f"{frames_per_cycle} x {cycles} frames are too many: {exc}")
    T = float(frames_per_cycle)
    return np.stack([eval_fourier(row, m, T) for row in template.coeffs], axis=1)


def _series(a0, *harmonics):
    """One coefficient row from (k, a_k, b_k) triples; unlisted orders are 0."""
    row = np.zeros(2 * ORDER + 1)
    row[0] = a0
    for k, ak, bk in harmonics:
        row[k] = ak
        row[ORDER + k] = bk
    return row


def reference_templates() -> list[FourierMotionTemplate]:
    """Hand-tuned cyclic motions in image coordinates (x right, y down).

    Baselines put the body below the nose (angles near +pi/2); left and
    right limbs swing in counter-phase.  Magnitudes are loose caricatures
    of gait, not captures.
    """
    down = np.pi / 2

    def gait(name, arm, fore, thigh, shank, lean, bob):
        coeffs = (
            # nose -> shoulders: slight counter-rotation and bob
            _series(down + 0.42, (1, 0.0, bob), (2, 0.02, lean)),
            _series(down - 0.42, (1, 0.0, -bob), (2, -0.02, lean)),
            # shoulder -> elbow: arm swing, phases opposed left/right
            _series(down + 0.06, (1, arm, 0.10), (2, 0.04, 0.02), (3, 0.015, 0.0)),
            # elbow -> wrist: larger swing with harmonic content
            _series(down - 0.10, (1, fore, 0.16), (2, 0.10, 0.05), (3, 0.02, 0.01)),
            _series(down - 0.06, (1, -arm, -0.10), (2, 0.04, -0.02), (3, -0.015, 0.0)),
            _series(down + 0.10, (1, -fore, -0.16), (2, 0.10, -0.05), (3, 0.02, -0.01)),
            # shoulder -> hip: near-rigid torso with a breathing wobble
            _series(down + 0.16, (1, 0.02, lean), (2, 0.012, 0.0)),
            _series(down - 0.16, (1, -0.02, lean), (2, 0.012, 0.0)),
            # hip -> knee and knee -> ankle: the gait itself
            _series(down + 0.05, (1, thigh, 0.12), (2, 0.06, 0.03), (3, 0.02, 0.0)),
            _series(down + 0.02, (1, shank, 0.22), (2, 0.16, 0.06), (4, 0.03, 0.01)),
            _series(down - 0.05, (1, -thigh, -0.12), (2, 0.06, -0.03), (3, -0.02, 0.0)),
            _series(down - 0.02, (1, -shank, -0.22), (2, 0.16, -0.06), (4, 0.03, -0.01)),
        )
        return FourierMotionTemplate(name=name, coeffs=np.stack(coeffs))

    return [
        gait("walk", arm=0.28, fore=0.38, thigh=0.40, shank=0.52, lean=0.015, bob=0.03),
        gait("run", arm=0.46, fore=0.62, thigh=0.62, shank=0.80, lean=0.030, bob=0.06),
        gait("march", arm=0.55, fore=0.40, thigh=0.70, shank=0.46, lean=0.010, bob=0.04),
        gait("shuffle", arm=0.12, fore=0.18, thigh=0.20, shank=0.28, lean=0.020, bob=0.02),
    ]
