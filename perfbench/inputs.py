"""Benchmark inputs, made from the workload seed with public functions only.

A clip is one simulated subject: a randomized reference gait, fixed
per-subject limb lengths and a drifting root, corrupted per joint in angle
space by the default noise model and then jittered by about 1.5 px per
keypoint.  The pixel jitter matters: without it the limb lengths are
constant and the limb-length solver has nothing to do.  The noise model
draws one jitter level per window, so it is applied to each 100-frame
segment of a joint, as in the training corpus; a long sequence then mixes
many noise levels instead of twelve.  Item i of seed s always draws from
SeedSequence([s, i]), so the same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import poserefine as pr

FPS = 50.0
JITTER_PX = 1.5
NOISE_SEGMENT = 100  # frames per draw of the noise model, the model's window
# nose->shoulders, upper arms, forearms, shoulders->hips, thighs, shanks,
# in the order of pr.EDGES; a subject about 400 px tall
LIMB_PX = np.array([45.0, 45.0, 70.0, 60.0, 70.0, 60.0, 130.0, 130.0, 105.0, 100.0, 105.0, 100.0])


@dataclass
class Clip:
    noisy: pr.PoseSequence  # what the pipeline is given
    clean: pr.PoseSequence  # keypoints rebuilt from the truth angles
    truth: np.ndarray  # (n, 12) truth angles
    noisy_angles: np.ndarray  # (n, 12) angles of the noisy keypoints
    erroneous: dict  # frame -> joints hit by a primary outlier

    @property
    def n_frames(self) -> int:
        return self.truth.shape[0]


def make_clip(seed: int, item: int, frames: tuple) -> Clip:
    """Clip `item` of `seed`, with a length drawn from frames = (lo, hi)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, item])))
    n = int(rng.integers(frames[0], frames[1] + 1))
    templates = pr.reference_templates()
    variant = pr.randomize_template(
        templates[item % len(templates)], pr.RandomizeRanges(), rng
    )
    frames_per_cycle = int(rng.integers(80, 121))
    cycles = -(-n // frames_per_cycle)
    truth = pr.synthesize_truth(variant, frames_per_cycle, cycles)[:n]

    lengths = LIMB_PX * rng.uniform(0.85, 1.15) * rng.uniform(0.95, 1.05, size=LIMB_PX.size)
    lengths = np.broadcast_to(lengths, truth.shape)
    t = np.arange(n) / FPS
    start = rng.uniform([200.0, 100.0], [600.0, 200.0])
    drift = rng.uniform([-40.0, -5.0], [40.0, 5.0])  # px/s
    bob = rng.uniform(1.0, 4.0) * np.sin(2.0 * np.pi * t * FPS / frames_per_cycle)
    root = start + drift * t[:, None]
    root[:, 1] += bob

    noisy_theta = np.empty_like(truth)
    erroneous: dict[int, list] = {}
    spec = pr.NoiseSpec()
    for j in range(pr.N_LIMBS):
        for lo in range(0, n, NOISE_SEGMENT):
            seg = slice(lo, lo + NOISE_SEGMENT)
            noisy_theta[seg, j], events = pr.inject_noise_events(truth[seg, j], spec, rng)
            for frame in events.primary:
                erroneous.setdefault(lo + int(frame), []).append(j)

    clean = pr.reconstruct_sequence(root, truth, lengths, FPS)
    corrupted = pr.reconstruct_sequence(root, noisy_theta, lengths, FPS)
    noisy = pr.PoseSequence(
        xy=corrupted.xy + rng.normal(0.0, JITTER_PX, size=corrupted.xy.shape), fps=FPS
    )
    return Clip(
        noisy=noisy,
        clean=clean,
        truth=truth,
        noisy_angles=pr.pose_to_angles(noisy),
        erroneous=erroneous,
    )


def corpus_seed(seed: int, item: int) -> int:
    """Base seed of the training corpus of item `item` of `seed`."""
    return int(np.random.SeedSequence([seed, item]).generate_state(1)[0])
