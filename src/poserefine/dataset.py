"""Synthetic training corpus: noise injection, binary shards, manifest.

Clean windows come from Fourier motion templates; each window is corrupted
with per-window Gaussian jitter plus sparse large outliers whose halved
echoes land on neighbouring frames.  Each split is written as one shard
of float32 angle windows next to a JSON manifest.  Everything is
deterministic in the base seed: each simulated subject and each window
draws from its own seed sequence, so any record's noise can be replayed
from the manifest alone.
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
from .jsonio import json_index, json_number, read_json
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
        # NaN fails every comparison, so each check below refuses it too
        lo, hi = self.jitter_sigma_range
        if not (0 <= lo <= hi < math.inf):
            raise InvalidRangeError("jitter_sigma_range must satisfy 0 <= lo <= hi < inf")
        if not (0 <= self.outlier_fraction <= 1):
            raise InvalidRangeError("outlier_fraction must be in [0, 1]")
        if not (0 <= self.outlier_sigma_max < math.inf and 0 <= self.secondary_sigma < math.inf):
            raise InvalidRangeError("sigmas must be finite and non-negative")
        if self.secondary_max < 0:
            raise InvalidRangeError("secondary_max must be >= 0")
        if self.seed < 0:
            raise InvalidRangeError("seed must be >= 0")


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


def write_shard(path, truth: np.ndarray, noisy: np.ndarray) -> int:
    """Write records to one shard file; returns the byte size.  A shard is a
    little-endian float32 array (records, 2, window): truth, then noisy."""
    truth = np.asarray(truth, dtype="<f4")
    noisy = np.asarray(noisy, dtype="<f4")
    if truth.ndim != 2 or noisy.shape != truth.shape:
        raise ShapeError("truth and noisy must be (records, window) arrays of one shape")
    records = np.stack([truth, noisy], axis=1)
    records.tofile(path)
    return records.nbytes


def read_shard(path, window: int):
    """Read one shard; returns (truth, noisy) as float64 (records, window) arrays."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValueError) as exc:  # a manifest names the shard
        raise SchemaError(f"shard {path} cannot be read: {exc}")
    record_bytes = 2 * 4 * window
    if len(data) % record_bytes != 0:
        raise SchemaError(f"shard {path} is not a whole number of records")
    records = np.frombuffer(data, dtype="<f4").reshape(len(data) // record_bytes, 2, window)
    # checked before the float64 cast, which warns on a signalling NaN
    if not np.isfinite(records).all():
        raise SchemaError(f"shard {path} holds a non-finite angle")
    return records[:, 0].astype(np.float64), records[:, 1].astype(np.float64)


# ---------------------------------------------------------------------------
# manifest


def _geometry_problem(window: int, stride: int, frames_per_cycle: int, cycles: int):
    """Why no corpus can have this window geometry, or None if one can."""
    if window < 2 or stride < 1:
        return "window must be >= 2 and stride >= 1"
    if frames_per_cycle < 1 or cycles < 1:
        return "frames_per_cycle and cycles must be >= 1"
    total = frames_per_cycle * cycles
    if window > total:
        return f"window {window} exceeds the {total}-frame synthesized sequence"
    return None


@dataclass
class DatasetManifest:
    window: int
    stride: int
    frames_per_cycle: int
    cycles: int
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
            "base_seed": self.noise.seed,
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
                jitter_sigma_range=tuple(rad(json_number(v)) for v in nd["jitter_sigma_range"]),
                outlier_fraction=json_number(nd["outlier_fraction"]),
                outlier_sigma_max=rad(json_number(nd["outlier_sigma_max"])),
                secondary_sigma=json_number(nd["secondary_sigma"]),
                secondary_max=json_index(nd["secondary_max"]),
                seed=json_index(doc["base_seed"]),
            )
            manifest = cls(
                window=json_index(doc["window"]),
                stride=json_index(doc["stride"]),
                frames_per_cycle=json_index(doc["frames_per_cycle"]),
                cycles=json_index(doc["cycles"]),
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
        problem = _geometry_problem(
            manifest.window, manifest.stride, manifest.frames_per_cycle, manifest.cycles
        )
        if problem:
            raise SchemaError(f"manifest {path}: {problem}")
        unknown = sorted(set(manifest.counts) - set(_SPLIT_CODES))
        if unknown:
            raise SchemaError(f"manifest {path}: unknown splits {unknown}; expected train, test")
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


def _rng(*key) -> np.random.Generator:
    """The generator seeded by the integer sequence key."""
    return np.random.default_rng(list(key))


def record_coords(manifest: DatasetManifest, index):
    """(subject, joint, window offset) for a flat record index of a split.

    index may also be an integer array, since divmod works elementwise.
    """
    total = manifest.frames_per_cycle * manifest.cycles
    n_offsets = (total - manifest.window) // manifest.stride + 1
    subject, rest = divmod(index, N_LIMBS * n_offsets)
    joint, offset_idx = divmod(rest, n_offsets)
    return subject, joint, offset_idx * manifest.stride


def record_events(manifest: DatasetManifest, split: str, index: int) -> NoiseEvents:
    """Re-derive the corruption events of a stored record from its seed."""
    subject, joint, offset = record_coords(manifest, index)
    rng = _rng(manifest.noise.seed, _SPLIT_CODES[split], subject, joint, offset)
    _, events = inject_noise_events(np.zeros(manifest.window), manifest.noise, rng)
    return events


def generate_dataset(
    out_dir,
    train_count: int = 20000,
    test_count: int = 4000,
    noise: NoiseSpec | None = None,
    window: int = 100,
    stride: int = 1,
    frames_per_cycle: int = 100,
    cycles: int = 2,
) -> DatasetManifest:
    """Write a train/test corpus of noisy-vs-clean windows under out_dir.

    Each non-empty split is one shard, `<split>-0000.bin`, filled in
    record_coords order; an empty split gets no file.  A split's records
    are built in memory as float32 first, half the bytes that load_split
    then holds as float64.  No shard is written until both splits are built.
    """
    if noise is None:
        noise = NoiseSpec()
    templates, ranges = reference_templates(), RandomizeRanges()
    problem = _geometry_problem(window, stride, frames_per_cycle, cycles)
    if problem:
        raise GenerationError(problem)
    if train_count < 1 or test_count < 0:
        raise GenerationError("train_count must be >= 1 and test_count >= 0")

    manifest = DatasetManifest(
        window=window,
        stride=stride,
        frames_per_cycle=frames_per_cycle,
        cycles=cycles,
        noise=noise,
        templates=[t.name for t in templates],
    )

    built = []
    for split, count in (("train", train_count), ("test", test_count)):
        manifest.counts[split] = count
        manifest.shards[split] = []
        if count == 0:
            continue
        code = _SPLIT_CODES[split]
        truth = np.empty((count, window), dtype=np.float32)
        noisy = np.empty_like(truth)
        truth_subject = -1
        for index in range(count):
            subject, joint, offset = record_coords(manifest, index)
            if subject != truth_subject:
                # one randomized template per simulated subject
                base = templates[subject % len(templates)]
                variant = randomize_template(base, ranges, _rng(noise.seed, code, subject))
                subject_truth = synthesize_truth(variant, frames_per_cycle, cycles)
                truth_subject = subject
            clean = subject_truth[offset : offset + window, joint]
            rng = _rng(noise.seed, code, subject, joint, offset)
            truth[index] = clean
            with np.errstate(over="ignore"):  # an overflow is refused below
                noisy[index], _ = inject_noise_events(clean, noise, rng)
        if not np.isfinite(noisy).all():
            raise GenerationError(f"the noise overflows float32 in the {split} split")
        built.append((f"{split}-0000.bin", split, truth, noisy))
    os.makedirs(out_dir, exist_ok=True)
    for name, split, truth, noisy in built:
        size = write_shard(os.path.join(out_dir, name), truth, noisy)
        manifest.shards[split].append((name, len(truth), size))

    manifest.save(os.path.join(out_dir, "manifest.json"))
    return manifest


def load_split(manifest: DatasetManifest, split: str):
    """Read a split's one shard; returns (joints, truth, noisy) as read.  A
    shard stores no joints: record_coords derives each from its record's index."""
    if split not in manifest.shards:
        raise SchemaError(f"manifest has no split named {split!r}")
    entries = manifest.shards[split]
    if len(entries) > 1:
        raise SchemaError(f"{split}: the manifest lists {len(entries)} shards, a split is one")
    try:
        truth = noisy = np.empty((0, manifest.window))  # an empty split's arrays
    except ValueError as exc:  # only a hand-edited window of 2**60 frames or more
        raise SchemaError(f"{split}: window {manifest.window} is too large: {exc}")
    for name, records, _ in entries:
        truth, noisy = read_shard(os.path.join(manifest.root, name), manifest.window)
        if len(truth) != records:
            raise SchemaError(f"shard {name} holds {len(truth)} records, manifest says {records}")
    count, expected = len(truth), manifest.counts[split]
    if count != expected:
        raise SchemaError(f"{split}: shards hold {count} records, manifest says {expected}")
    try:
        _, joints, _ = record_coords(manifest, np.arange(count))
    except OverflowError as exc:  # only a hand-edited geometry, such as a 2**63 stride
        raise SchemaError(f"{split}: the manifest geometry overflows int64: {exc}")
    return joints, truth, noisy
