"""Synthetic training corpus: noise injection, binary shards, manifest.

Clean windows come from Fourier motion templates; each window is corrupted
with per-window Gaussian jitter plus sparse large outliers whose halved
echoes land on neighbouring frames.  Records are streamed to fixed-layout
little-endian shards next to a JSON manifest.  Everything is deterministic
in the base seed: each simulated subject and each window draws from its own
seed sequence, so shards can be regenerated or written in parallel without
changing a byte.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GenerationError,
    InvalidRangeError,
    SchemaError,
    ShapeError,
)
from .fourier import (
    RandomizeRanges,
    randomize_template,
    reference_templates,
    synthesize_truth,
)
from .jsonio import json_index, read_json
from .refiner import MAX_WINDOW
from .skeleton import N_LIMBS

_SPLIT_CODES = {"train": 0, "test": 1}


@dataclass
class NoiseSpec:
    """Corruption model for one window of joint angles (radians).

    Jitter: one sigma per window drawn uniformly from jitter_sigma_range,
    then i.i.d. zero-mean Gaussian noise on every frame.  Outliers: a
    ceil(outlier_fraction * length) subset of frames each gets a single
    Gaussian draw with per-event sigma uniform in
    (outlier_sigma_max / 3, outlier_sigma_max].  Each outlier echoes onto
    min(secondary_max, round(|N(0, secondary_sigma^2)|)) frames on each
    side, its amplitude halved per frame of distance.
    """

    jitter_sigma_range: tuple = (0.0, math.radians(15.0))
    outlier_fraction: float = 0.05
    outlier_sigma_max: float = math.radians(45.0)
    secondary_sigma: float = 2.0
    secondary_max: int = 5
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.jitter_sigma_range
        if not (0 <= lo <= hi):
            raise InvalidRangeError("jitter_sigma_range must satisfy 0 <= lo <= hi")
        if not (0 <= self.outlier_fraction <= 1):
            raise InvalidRangeError("outlier_fraction must be in [0, 1]")
        if self.outlier_sigma_max < 0 or self.secondary_sigma < 0:
            raise InvalidRangeError("sigmas must be non-negative")
        if self.secondary_max < 0:
            raise InvalidRangeError("secondary_max must be >= 0")


@dataclass
class NoiseEvents:
    """Which frames of a window were corrupted beyond baseline jitter."""

    primary: np.ndarray
    secondary: np.ndarray

    def all_frames(self) -> np.ndarray:
        return np.unique(np.concatenate([self.primary, self.secondary]))


def inject_noise_events(truth: np.ndarray, spec: NoiseSpec, rng: np.random.Generator):
    """Corrupt one window; returns (noisy, NoiseEvents).

    The rng draw order is fixed: jitter sigma, jitter vector, outlier frame
    choice, then per outlier its sigma, amplitude, and echo count.
    """
    truth = np.asarray(truth, dtype=float)
    if truth.ndim != 1:
        raise ShapeError(f"window must be 1-D, got shape {truth.shape}")
    n = truth.size
    sigma = rng.uniform(*spec.jitter_sigma_range)
    noisy = truth + rng.normal(0.0, sigma, size=n)

    n_out = math.ceil(spec.outlier_fraction * n)
    primary = np.array([], dtype=int)
    secondary: list[int] = []
    if n_out > 0:
        primary = np.sort(rng.choice(n, size=n_out, replace=False))
        for p in primary:
            ev_sigma = rng.uniform(spec.outlier_sigma_max / 3.0, spec.outlier_sigma_max)
            amp = rng.normal(0.0, ev_sigma)
            n_echo = min(
                spec.secondary_max,
                int(round(abs(rng.normal(0.0, spec.secondary_sigma)))),
            )
            noisy[p] += amp
            for d in range(1, n_echo + 1):
                for q in (p - d, p + d):
                    if 0 <= q < n:
                        noisy[q] += amp * 2.0 ** (-d)
                        secondary.append(int(q))
    events = NoiseEvents(
        primary=primary.astype(int),
        secondary=np.unique(np.array(secondary, dtype=int)),
    )
    return noisy, events


# ---------------------------------------------------------------------------
# shard files


def _record_dtype(window: int) -> np.dtype:
    return np.dtype(
        [
            ("joint", "<u2"),
            ("length", "<u2"),
            ("truth", "<f4", (window,)),
            ("noisy", "<f4", (window,)),
        ]
    )


def write_shard(path, joints: np.ndarray, truth: np.ndarray, noisy: np.ndarray) -> int:
    """Write records to one shard file; returns the byte size."""
    truth = np.asarray(truth, dtype=np.float32)
    noisy = np.asarray(noisy, dtype=np.float32)
    joints = np.asarray(joints)
    k, window = truth.shape
    if noisy.shape != (k, window) or joints.shape != (k,):
        raise ShapeError("joints, truth, and noisy must agree on record count")
    rec = np.empty(k, dtype=_record_dtype(window))
    rec["joint"] = joints
    rec["length"] = window
    rec["truth"] = truth
    rec["noisy"] = noisy
    data = rec.tobytes()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def read_shard(path, window: int):
    """Read one shard; returns (joints, truth, noisy) as arrays."""
    dtype = _record_dtype(window)
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) % dtype.itemsize != 0:
        raise SchemaError(f"shard {path} is not a whole number of records")
    rec = np.frombuffer(data, dtype=dtype)
    if rec.size and not (rec["length"] == window).all():
        raise SchemaError(f"shard {path} disagrees with the manifest window length")
    if rec.size and (rec["joint"] >= N_LIMBS).any():
        raise SchemaError(f"shard {path} contains an out-of-range joint index")
    return (
        rec["joint"].astype(int),
        rec["truth"].astype(np.float64),
        rec["noisy"].astype(np.float64),
    )


# ---------------------------------------------------------------------------
# manifest


@dataclass
class DatasetManifest:
    window: int
    stride: int
    frames_per_cycle: int
    cycles: int
    base_seed: int
    noise: NoiseSpec
    templates: list
    counts: dict = field(default_factory=dict)  # split -> record count
    shards: dict = field(default_factory=dict)  # split -> [(name, records, bytes)]
    root: str = ""  # directory of the manifest once saved/loaded

    def to_json(self) -> str:
        deg = math.degrees
        doc = {
            "window": self.window,
            "stride": self.stride,
            "frames_per_cycle": self.frames_per_cycle,
            "cycles": self.cycles,
            "base_seed": self.base_seed,
            "noise_deg": {
                "jitter_sigma_range": [deg(v) for v in self.noise.jitter_sigma_range],
                "outlier_fraction": self.noise.outlier_fraction,
                "outlier_sigma_max": deg(self.noise.outlier_sigma_max),
                "secondary_sigma": self.noise.secondary_sigma,
                "secondary_max": self.noise.secondary_max,
            },
            "templates": list(self.templates),
            "counts": self.counts,
            "shards": {
                split: [
                    {"name": name, "records": records, "bytes": size}
                    for name, records, size in entries
                ]
                for split, entries in self.shards.items()
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        self.root = os.path.dirname(os.path.abspath(path))

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        doc = read_json(path, f"manifest {path}")
        if not isinstance(doc, dict):
            raise SchemaError(f"manifest {path}: top level must be an object")
        try:
            counts, shards, templates = doc["counts"], doc["shards"], doc["templates"]
            if not (isinstance(counts, dict) and isinstance(shards, dict)):
                raise SchemaError(f"manifest {path}: counts and shards must be objects")
            if not (isinstance(templates, list) and all(isinstance(t, str) for t in templates)):
                raise SchemaError(f"manifest {path}: templates must be a list of names")
            nd = doc["noise_deg"]
            rad = math.radians
            noise = NoiseSpec(
                jitter_sigma_range=tuple(rad(v) for v in nd["jitter_sigma_range"]),
                outlier_fraction=nd["outlier_fraction"],
                outlier_sigma_max=rad(nd["outlier_sigma_max"]),
                secondary_sigma=nd["secondary_sigma"],
                secondary_max=nd["secondary_max"],
                seed=json_index(doc["base_seed"]),
            )
            manifest = cls(
                window=json_index(doc["window"]),
                stride=json_index(doc["stride"]),
                frames_per_cycle=json_index(doc["frames_per_cycle"]),
                cycles=json_index(doc["cycles"]),
                base_seed=json_index(doc["base_seed"]),
                noise=noise,
                templates=templates,
                counts={k: json_index(v) for k, v in counts.items()},
                shards={
                    split: [
                        (e["name"], json_index(e["records"]), json_index(e["bytes"]))
                        for e in entries
                    ]
                    for split, entries in shards.items()
                },
            )
        except KeyError as exc:
            raise SchemaError(f"manifest {path}: missing key {exc}")
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"manifest {path}: {exc}")
        if manifest.window < 2 or manifest.stride < 1:
            raise SchemaError(f"manifest {path}: window must be >= 2 and stride >= 1")
        uncounted = sorted(set(manifest.shards) - set(manifest.counts))
        if uncounted:
            raise SchemaError(f"manifest {path}: shards of {uncounted} have no count")
        for entries in manifest.shards.values():
            for name, _, _ in entries:
                if not (isinstance(name, str) and name):
                    raise SchemaError(f"manifest {path}: shard name {name!r} is not a file name")
        manifest.root = os.path.dirname(os.path.abspath(path))
        return manifest


# ---------------------------------------------------------------------------
# generation


def _window_offsets(total: int, window: int, stride: int) -> int:
    return (total - window) // stride + 1


def _sample_coords(index: int, n_offsets: int):
    """Map a flat sample index to (subject, joint, offset index)."""
    per_subject = N_LIMBS * n_offsets
    subject = index // per_subject
    rest = index % per_subject
    return subject, rest // n_offsets, rest % n_offsets


def _subject_rng(base_seed: int, split: str, subject: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([base_seed, _SPLIT_CODES[split], subject]))
    )


def _window_rng(base_seed: int, split: str, subject: int, joint: int, offset: int):
    return np.random.Generator(
        np.random.PCG64(
            np.random.SeedSequence(
                [base_seed, _SPLIT_CODES[split], subject, joint, offset]
            )
        )
    )


def _subject_truth(
    manifest: DatasetManifest,
    templates: list,
    ranges: RandomizeRanges,
    split: str,
    subject: int,
) -> np.ndarray:
    base = templates[subject % len(templates)]
    variant = randomize_template(
        base, ranges, _subject_rng(manifest.base_seed, split, subject)
    )
    return synthesize_truth(variant, manifest.frames_per_cycle, manifest.cycles)


def record_coords(manifest: DatasetManifest, index: int):
    """(subject, joint, window offset) for a flat record index of a split."""
    total = manifest.frames_per_cycle * manifest.cycles
    n_offsets = _window_offsets(total, manifest.window, manifest.stride)
    subject, joint, offset_idx = _sample_coords(index, n_offsets)
    return subject, joint, offset_idx * manifest.stride


def record_events(manifest: DatasetManifest, split: str, index: int) -> NoiseEvents:
    """Re-derive the corruption events of a stored record from its seed."""
    subject, joint, offset = record_coords(manifest, index)
    rng = _window_rng(manifest.base_seed, split, subject, joint, offset)
    _, events = inject_noise_events(np.zeros(manifest.window), manifest.noise, rng)
    return events


def generate_dataset(
    out_dir,
    train_count: int,
    test_count: int,
    noise: NoiseSpec | None = None,
    templates: list | None = None,
    ranges: RandomizeRanges | None = None,
    window: int = 100,
    stride: int = 1,
    frames_per_cycle: int = 100,
    cycles: int = 2,
    records_per_shard: int = 65536,
) -> DatasetManifest:
    """Write a train/test corpus of noisy-vs-clean windows under out_dir."""
    if noise is None:
        noise = NoiseSpec()
    if templates is None:
        templates = reference_templates()
    if ranges is None:
        ranges = RandomizeRanges()
    total = frames_per_cycle * cycles
    if window < 2 or stride < 1:
        raise GenerationError("window must be >= 2 and stride >= 1")
    if window > MAX_WINDOW:
        raise GenerationError(f"window {window} exceeds the shard limit of {MAX_WINDOW}")
    if window > total:
        raise GenerationError(
            f"window {window} exceeds the {total}-frame synthesized sequence"
        )
    if train_count < 1 or test_count < 0:
        raise GenerationError("train_count must be >= 1 and test_count >= 0")
    if records_per_shard < 1:
        raise GenerationError("records_per_shard must be >= 1")

    os.makedirs(out_dir, exist_ok=True)
    manifest = DatasetManifest(
        window=window,
        stride=stride,
        frames_per_cycle=frames_per_cycle,
        cycles=cycles,
        base_seed=noise.seed,
        noise=noise,
        templates=[t.name for t in templates],
    )
    n_offsets = _window_offsets(total, window, stride)

    for split, count in (("train", train_count), ("test", test_count)):
        manifest.counts[split] = count
        manifest.shards[split] = []
        if count == 0:
            continue
        truth_cache: tuple[int, np.ndarray] | None = None
        shard_joints = np.empty(min(count, records_per_shard), dtype=int)
        shard_truth = np.empty((shard_joints.size, window), dtype=np.float32)
        shard_noisy = np.empty_like(shard_truth)
        fill = 0
        shard_no = 0

        def flush():
            nonlocal fill, shard_no
            if fill == 0:
                return
            name = f"{split}-{shard_no:04d}.bin"
            size = write_shard(
                os.path.join(out_dir, name),
                shard_joints[:fill],
                shard_truth[:fill],
                shard_noisy[:fill],
            )
            manifest.shards[split].append((name, fill, size))
            shard_no += 1
            fill = 0

        for index in range(count):
            subject, joint, offset_idx = _sample_coords(index, n_offsets)
            offset = offset_idx * stride
            if truth_cache is None or truth_cache[0] != subject:
                truth_cache = (
                    subject,
                    _subject_truth(manifest, templates, ranges, split, subject),
                )
            clean = truth_cache[1][offset : offset + window, joint]
            rng = _window_rng(noise.seed, split, subject, joint, offset)
            noisy, _ = inject_noise_events(clean, noise, rng)
            shard_joints[fill] = joint
            shard_truth[fill] = clean
            shard_noisy[fill] = noisy
            fill += 1
            if fill == records_per_shard:
                flush()
        flush()

        written = sum(records for _, records, _ in manifest.shards[split])
        if written != count:
            raise GenerationError(
                f"{split}: wrote {written} records, expected {count}"
            )

    manifest.save(os.path.join(out_dir, "manifest.json"))
    return manifest


def load_split(manifest: DatasetManifest, split: str, root=None):
    """Concatenate a split's shards; returns (joints, truth, noisy)."""
    root = root if root is not None else manifest.root
    if split not in manifest.shards:
        raise SchemaError(f"manifest has no split named {split!r}")
    parts = [
        read_shard(os.path.join(root, name), manifest.window)
        for name, _, _ in manifest.shards[split]
    ]
    if not parts:
        empty = np.empty((0, manifest.window))
        return np.empty(0, dtype=int), empty, empty.copy()
    joints = np.concatenate([p[0] for p in parts])
    truth = np.concatenate([p[1] for p in parts])
    noisy = np.concatenate([p[2] for p in parts])
    expected = manifest.counts[split]
    if joints.shape[0] != expected:
        raise SchemaError(
            f"{split}: shards hold {joints.shape[0]} records, manifest says {expected}"
        )
    return joints, truth, noisy

