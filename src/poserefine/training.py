"""Training loop for the window refiner: Adam, best-epoch selection, logging.

Adam's moments, the parameters and the gradients it receives are
float64.  Each batch's gradients, and the whole validation split in one
call, run on every available core in fixed row blocks (see `refiner`),
so a seed gives the same model on any number of CPUs.  They all work in
the calling thread's arenas (see `refiner`), so each block's arrays are
paged in by the first step and reused by the rest of the run.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import DatasetManifest, load_split
from .errors import InsufficientDataError, ShapeError, TrainingDivergedError
from .refiner import RefinerModel, batch_gradients, mse_loss, refine_batch


@dataclass
class TrainConfig:
    """The training settings; the defaults are the shipped recipe."""

    batch_size: int = 256
    learning_rate: float = 1e-3
    max_epochs: int = 4
    validation_fraction: float = 0.1
    hidden: int = 64
    d_att: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ShapeError("batch_size and max_epochs must be >= 1")
        if not (0 <= self.validation_fraction < 1):
            raise ShapeError("validation_fraction must be in [0, 1)")
        if not (0 < self.learning_rate < np.inf):
            raise ShapeError("learning_rate must be positive and finite")
        if self.seed < 0:
            raise ShapeError("seed must be >= 0")


@dataclass
class EpochStats:
    epoch: int
    train_mse: float
    # None when the run has no validation windows
    val_mse: float | None
    wall_time_s: float
    # training windows over the epoch's wall time, validation included
    windows_per_s: float

    def __str__(self) -> str:
        val = "" if self.val_mse is None else f" val {self.val_mse:.6f}"
        return f"epoch {self.epoch}: train {self.train_mse:.6f}{val} ({self.wall_time_s:.1f}s)"


@dataclass
class TrainLog:
    entries: list = field(default_factory=list)
    seed: int = 0
    config: dict = field(default_factory=dict)
    best_epoch: int = -1
    # the best epoch's val_mse: None without validation windows
    best_val_mse: float | None = None


# Adam's moment decay rates and denominator offset
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8


class Adam:
    """Standard Adam with bias correction, one slot pair per tensor."""

    def __init__(self, params: dict, config: TrainConfig):
        self.config = config
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        self.step_count += 1
        t = self.step_count
        correct1 = 1.0 - _BETA1**t
        correct2 = 1.0 - _BETA2**t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            params[name] -= self.config.learning_rate * (m / correct1) / (
                np.sqrt(v / correct2) + _EPSILON
            )


def save_train_log(log: TrainLog, path, include_timing: bool = False) -> None:
    """Serialize the log; wall-clock fields are off by default so reruns
    with the same seed write identical bytes."""
    doc = asdict(log)
    if not include_timing:
        for entry in doc["entries"]:
            del entry["wall_time_s"], entry["windows_per_s"]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# a diverging run's overflows are refused by the loss checks, not warned of
@np.errstate(over="ignore", invalid="ignore")
def train_on_arrays(
    noisy: np.ndarray,
    truth: np.ndarray,
    config: TrainConfig | None = None,
    progress=None,
):
    """Train a fresh refiner on in-memory windows; returns (model, TrainLog).

    Validation windows are split off by a seeded permutation.  Every epoch
    runs, and the model of the epoch with the best validation MSE is
    returned; without validation windows, the best training MSE.
    """
    if config is None:
        config = TrainConfig()
    noisy = np.asarray(noisy, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if noisy.shape != truth.shape or noisy.ndim != 2:
        raise ShapeError("noisy and truth must both be (n, window)")
    n, window = noisy.shape
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    n_val = int(round(config.validation_fraction * n))
    if n - n_val < 1:
        raise InsufficientDataError("no training samples left after validation split")
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]

    model = RefinerModel.init_random(
        hidden=config.hidden, d_att=config.d_att, window=window, seed=config.seed
    )
    opt = Adam(model.params, config)
    log = TrainLog(seed=config.seed, config=asdict(config))

    best = np.inf
    for epoch in range(config.max_epochs):
        started = time.perf_counter()
        order = rng.permutation(train_idx)
        total = 0.0
        for lo in range(0, order.size, config.batch_size):
            part = order[lo : lo + config.batch_size]
            loss, grads = batch_gradients(noisy[part], truth[part], model)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            opt.step(model.params, grads)
            total += loss * part.size
        train_mse = total / order.size
        val_mse = mse_loss(refine_batch(noisy[val_idx], model), truth[val_idx]) if n_val else None
        monitored = train_mse if val_mse is None else val_mse
        if not np.isfinite(monitored):
            raise TrainingDivergedError(epoch)
        wall_time_s = time.perf_counter() - started
        log.entries.append(
            EpochStats(
                epoch=epoch,
                train_mse=train_mse,
                val_mse=val_mse,
                wall_time_s=wall_time_s,
                windows_per_s=order.size / wall_time_s,
            )
        )
        if progress is not None:
            progress(log.entries[-1])
        # monitored is finite, so epoch 0 always sets best_params
        if monitored < best:
            best = monitored
            log.best_epoch = epoch
            log.best_val_mse = val_mse
            best_params = {k: v.copy() for k, v in model.params.items()}

    model.params = best_params
    return model, log


def train_model(
    manifest: DatasetManifest,
    config: TrainConfig | None = None,
    progress=None,
):
    """Train on the manifest's train split; returns (model, TrainLog)."""
    _, truth, noisy = load_split(manifest, "train")
    return train_on_arrays(noisy, truth, config, progress=progress)
