"""Order-8 Fourier models of cyclic joint-angle trajectories.

A joint angle over one motion cycle is represented as a truncated Fourier
series: theta(m) = a0 + sum_k [a_k cos(2 pi k m / T) + b_k sin(2 pi k m / T)]
for k = 1..8.  A motion template bundles one such series per limb; new
subjects are simulated by jittering the mean value, the first two
harmonics, and the period of a reference template.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateSamplingError,
    InsufficientDataError,
    InvalidRangeError,
    ShapeError,
)
from .skeleton import N_LIMBS

ORDER = 8


@dataclass(frozen=True)
class FourierCoeffs:
    """One truncated series: mean a0, harmonics (a, b), period T in frames."""

    a0: float
    a: tuple
    b: tuple
    T: float

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "T", float(self.T))
        if len(self.a) != len(self.b):
            raise ShapeError("cos and sin coefficient lists must match in length")
        vals = (self.a0, self.T) + self.a + self.b
        if not all(np.isfinite(v) for v in vals):
            raise ShapeError("coefficients must be finite")
        if not (self.T > 0):
            raise InvalidRangeError(f"period must be positive, got {self.T}")

    @property
    def order(self) -> int:
        return len(self.a)


def eval_fourier(coeffs: FourierCoeffs, m) -> np.ndarray | float:
    """Evaluate the series at frame positions m (scalar or array)."""
    m = np.asarray(m, dtype=float)
    if coeffs.order == 0:
        out = np.full(m.shape, coeffs.a0)
    else:
        phase = 2.0 * np.pi * np.arange(1, coeffs.order + 1) / coeffs.T
        arg = m[..., None] * phase
        out = (
            coeffs.a0
            + np.cos(arg) @ np.asarray(coeffs.a)
            + np.sin(arg) @ np.asarray(coeffs.b)
        )
    return out if out.ndim else float(out)


def _basis(m: np.ndarray, order: int, T: float) -> np.ndarray:
    phase = 2.0 * np.pi * np.arange(1, order + 1) / T
    arg = m[:, None] * phase
    return np.concatenate([np.ones((m.size, 1)), np.cos(arg), np.sin(arg)], axis=1)


def fit_fourier(m, theta, T: float, order: int = ORDER) -> FourierCoeffs:
    """Least-squares fit of a series with known period to sampled angles."""
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
    basis = _basis(m, order, T)
    coef, _, rank, _ = np.linalg.lstsq(basis, theta, rcond=None)
    if rank < n_coeffs:
        raise DegenerateSamplingError(
            f"sample positions leave the fit rank deficient ({rank} < {n_coeffs})"
        )
    return FourierCoeffs(
        a0=float(coef[0]),
        a=tuple(coef[1 : order + 1]),
        b=tuple(coef[order + 1 :]),
        T=float(T),
    )


@dataclass(frozen=True)
class FourierMotionTemplate:
    """A named bundle of one Fourier series per limb."""

    name: str
    joints: tuple

    def __post_init__(self):
        if len(self.joints) != N_LIMBS:
            raise ShapeError(f"template needs {N_LIMBS} joint series")
        object.__setattr__(self, "joints", tuple(self.joints))


@dataclass
class RandomizeRanges:
    """Jitter bounds for simulated subjects.

    a0 gets an additive offset; the first two harmonics get independent
    multiplicative scales; the period gets one shared multiplicative scale.
    Degenerate (zero-width) ranges reproduce the template exactly.
    """

    a0_offset: tuple = (-0.15, 0.15)
    amplitude_scale: tuple = (0.7, 1.3)
    period_scale: tuple = (0.8, 1.25)

    def __post_init__(self):
        for name in ("a0_offset", "amplitude_scale", "period_scale"):
            lo, hi = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
                raise InvalidRangeError(f"{name} must be a finite (lo, hi) with lo <= hi")
        if self.period_scale[0] <= 0:
            raise InvalidRangeError("period_scale must stay positive")


def randomize_template(
    base: FourierMotionTemplate,
    ranges: RandomizeRanges,
    rng: np.random.Generator,
) -> FourierMotionTemplate:
    """Draw a simulated-subject variant of a template.

    Only a0, a1, b1, a2, b2, and T move; higher harmonics are untouched.
    Draw order is fixed (period, then per joint: offset, four scales) so a
    seeded generator reproduces the same variant.
    """
    t_scale = rng.uniform(*ranges.period_scale)
    joints = []
    for c in base.joints:
        offset = rng.uniform(*ranges.a0_offset)
        scales = rng.uniform(*ranges.amplitude_scale, size=4)
        a = list(c.a)
        b = list(c.b)
        if c.order >= 1:
            a[0] *= scales[0]
            b[0] *= scales[1]
        if c.order >= 2:
            a[1] *= scales[2]
            b[1] *= scales[3]
        joints.append(
            replace(c, a0=c.a0 + offset, a=tuple(a), b=tuple(b), T=c.T * t_scale)
        )
    return FourierMotionTemplate(name=base.name, joints=tuple(joints))


def synthesize_truth(
    template: FourierMotionTemplate,
    frames_per_cycle: int = 100,
    cycles: int = 2,
) -> np.ndarray:
    """Sample clean joint-angle curves on a fixed cycle grid.

    Returns (frames_per_cycle * cycles, 12).  The grid fixes the period:
    each series is evaluated with T = frames_per_cycle, so consecutive
    cycles repeat exactly.
    """
    if frames_per_cycle < 1 or cycles < 1:
        raise InvalidRangeError("frames_per_cycle and cycles must be >= 1")
    m = np.arange(frames_per_cycle * cycles, dtype=float)
    out = np.empty((m.size, N_LIMBS))
    for j, c in enumerate(template.joints):
        grid = replace(c, T=float(frames_per_cycle))
        out[:, j] = eval_fourier(grid, m)
    return out


def _series(a0, *harmonics, T=100.0):
    """Build FourierCoeffs from (k, a_k, b_k) triples; unlisted orders are 0."""
    a = [0.0] * ORDER
    b = [0.0] * ORDER
    for k, ak, bk in harmonics:
        a[k - 1] = ak
        b[k - 1] = bk
    return FourierCoeffs(a0=a0, a=tuple(a), b=tuple(b), T=T)


def reference_templates() -> list[FourierMotionTemplate]:
    """Hand-tuned cyclic motions in image coordinates (x right, y down).

    Baselines put the body below the nose (angles near +pi/2); left and
    right limbs swing in counter-phase.  Magnitudes are loose caricatures
    of gait, not captures.
    """
    down = np.pi / 2

    def gait(name, arm, fore, thigh, shank, lean, bob):
        joints = (
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
        return FourierMotionTemplate(name=name, joints=joints)

    return [
        gait("walk", arm=0.28, fore=0.38, thigh=0.40, shank=0.52, lean=0.015, bob=0.03),
        gait("run", arm=0.46, fore=0.62, thigh=0.62, shank=0.80, lean=0.030, bob=0.06),
        gait("march", arm=0.55, fore=0.40, thigh=0.70, shank=0.46, lean=0.010, bob=0.04),
        gait("shuffle", arm=0.12, fore=0.18, thigh=0.20, shank=0.28, lean=0.020, bob=0.02),
    ]
