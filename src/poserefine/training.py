"""Training loop for the window refiner: Adam, early stopping, logging."""

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
    batch_size: int = 256
    learning_rate: float = 1e-3
    max_epochs: int = 20
    patience: int = 5
    validation_fraction: float = 0.1
    hidden: int = 64
    d_att: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 0:
            raise ShapeError("batch_size and max_epochs must be >= 1, patience >= 0")
        if not (0 <= self.validation_fraction < 1):
            raise ShapeError("validation_fraction must be in [0, 1)")
        if not (self.learning_rate > 0):
            raise ShapeError("learning_rate must be positive")


@dataclass
class EpochStats:
    epoch: int
    train_mse: float
    val_mse: float
    wall_time_s: float


@dataclass
class TrainLog:
    entries: list = field(default_factory=list)
    seed: int = 0
    config: dict = field(default_factory=dict)
    best_epoch: int = -1
    best_val_mse: float = float("inf")


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
    entries = []
    for e in log.entries:
        row = {"epoch": e.epoch, "train_mse": e.train_mse, "val_mse": e.val_mse}
        if include_timing:
            row["wall_time_s"] = e.wall_time_s
        entries.append(row)
    doc = {
        "entries": entries,
        "seed": log.seed,
        "config": log.config,
        "best_epoch": log.best_epoch,
        "best_val_mse": log.best_val_mse,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def train_on_arrays(
    noisy: np.ndarray,
    truth: np.ndarray,
    config: TrainConfig | None = None,
    progress=None,
):
    """Train a fresh refiner on in-memory windows; returns (model, TrainLog).

    Validation windows are split off by a seeded permutation; the model with
    the best validation MSE is returned.  With validation_fraction == 0 the
    training MSE drives early stopping instead.
    """
    if config is None:
        config = TrainConfig()
    noisy = np.asarray(noisy, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if noisy.shape != truth.shape or noisy.ndim != 2:
        raise ShapeError("noisy and truth must both be (n, window)")
    n, window = noisy.shape
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
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
    best_params = {k: v.copy() for k, v in model.params.items()}
    since_best = 0

    def eval_in_batches(idx):
        if idx.size == 0:
            return float("nan")
        total = 0.0
        for lo in range(0, idx.size, config.batch_size):
            part = idx[lo : lo + config.batch_size]
            pred = refine_batch(noisy[part], model)
            total += mse_loss(pred, truth[part]) * part.size
        return total / idx.size

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
        val_mse = eval_in_batches(val_idx)
        monitored = train_mse if n_val == 0 else val_mse
        if not np.isfinite(monitored):
            raise TrainingDivergedError(epoch)
        log.entries.append(
            EpochStats(
                epoch=epoch,
                train_mse=train_mse,
                val_mse=val_mse,
                wall_time_s=time.perf_counter() - started,
            )
        )
        if progress is not None:
            progress(log.entries[-1])
        if monitored < log.best_val_mse:
            log.best_val_mse = monitored
            log.best_epoch = epoch
            best_params = {k: v.copy() for k, v in model.params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best > config.patience:
                break

    model.params = best_params
    return model, log


def train_model(
    manifest: DatasetManifest,
    config: TrainConfig | None = None,
    root=None,
    progress=None,
):
    """Train on the manifest's train split; returns (model, TrainLog)."""
    _, truth, noisy = load_split(manifest, "train", root)
    return train_on_arrays(noisy, truth, config, progress=progress)
