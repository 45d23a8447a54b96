"""Optimizers, LR schedules, toy datasets, and the training loop.

The loop is deterministic end to end: parameter init, batch order, and
every numeric op are pure functions of the config and seeds, so two runs
with identical arguments produce bit-identical logs. Batch order per
epoch depends only on (seed, epoch), never on the network being trained,
which is what lets a zero-length transition reproduce the standard STE
baseline exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from .compression import CompressedBlock, CompressionSpec, compress_block, refresh_blocks
from .model import DenseBlock, Network
from .tensor import Tensor, backward, softmax_cross_entropy
from .vcon import schedulers_of

Array = np.ndarray


# --------------------------------------------------------------------------
# Learning-rate schedules and optimizers


@dataclass(frozen=True)
class Constant:
    pass


@dataclass(frozen=True)
class Cosine:
    """Linear warmup to the base lr, then cosine decay to zero.

    total_steps may be left None and resolved by the train loop.
    """

    total_steps: int | None = None
    warmup_ratio: float = 0.0
    warmup_start_lr: float = 0.0

    def __post_init__(self):
        if self.total_steps is not None and self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if not (0.0 <= self.warmup_ratio < 1.0):
            raise ValueError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        if self.warmup_start_lr < 0.0:
            raise ValueError(f"warmup_start_lr must be >= 0, got {self.warmup_start_lr}")


Schedule = Union[Constant, Cosine]


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "adam"  # "sgd" | "adam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    schedule: Schedule = Constant()

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"kind must be 'sgd' or 'adam', got {self.kind!r}")
        if self.lr <= 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")


def lr_at(step: int, spec: OptimizerSpec) -> float:
    """Learning rate used at a given optimizer step (0-based).

    Warmup runs for floor(warmup_ratio * total_steps) steps and lands
    exactly on the base lr; cosine decay then reaches exactly 0 at
    step == total_steps.
    """
    sch = spec.schedule
    if isinstance(sch, Constant):
        return spec.lr
    if sch.total_steps is None:
        raise ValueError("cosine schedule used before total_steps was resolved")
    total = sch.total_steps
    warm = int(math.floor(sch.warmup_ratio * total))
    if step < warm:
        return sch.warmup_start_lr + (spec.lr - sch.warmup_start_lr) * (step / warm)
    denom = max(total - warm, 1)
    progress = min((step - warm) / denom, 1.0)
    return spec.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class Optimizer:
    """SGD or Adam over named parameters.

    State is keyed by parameter name, so blocks can be swapped mid-run
    (the post-shot switch) without losing or misrouting moments.
    Parameters whose grad is None (absent from the step's graph) are left
    untouched.
    """

    def __init__(self, spec: OptimizerSpec):
        self.spec = spec
        self.step_count = 0
        self._state: dict[str, dict[str, Array]] = {}

    def step(self, named_params: Sequence[tuple[str, Tensor]]) -> float:
        spec = self.spec
        lr = lr_at(self.step_count, spec)
        t = self.step_count + 1
        for name, p in named_params:
            g = p.grad
            if g is None:
                continue
            if spec.kind == "sgd":
                p.data -= lr * g
            else:
                st = self._state.get(name)
                if st is None:
                    st = {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data)}
                    self._state[name] = st
                m, v = st["m"], st["v"]
                m *= spec.beta1
                m += (1.0 - spec.beta1) * g
                v *= spec.beta2
                v += (1.0 - spec.beta2) * (g * g)
                m_hat = m / (1.0 - spec.beta1**t)
                v_hat = v / (1.0 - spec.beta2**t)
                p.data -= lr * m_hat / (np.sqrt(v_hat) + spec.eps)
        self.step_count += 1
        return lr


# --------------------------------------------------------------------------
# Datasets

SPLITS = ("train", "val", "test")
_SPIRAL_WIND = 4.0  # radians each arm winds from center to rim


@dataclass
class Dataset:
    features: Array  # (count, dim) float64
    labels: Array  # (count,) int64
    split_tags: Array  # (count,) one of SPLITS

    def split(self, tag: str) -> tuple[Array, Array]:
        if tag not in SPLITS:
            raise ValueError(f"unknown split {tag!r}, expected one of {SPLITS}")
        sel = self.split_tags == tag
        return self.features[sel], self.labels[sel]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


def _split_tags(count: int) -> Array:
    n_train = int(math.floor(0.70 * count))
    n_val = int(math.floor(0.15 * count))
    tags = np.empty(count, dtype="<U5")
    tags[:n_train] = "train"
    tags[n_train : n_train + n_val] = "val"
    tags[n_train + n_val :] = "test"
    return tags


def make_synthetic(
    kind: str,
    classes: int = 3,
    samples_per_class: int = 500,
    noise: float = 0.1,
    seed: int = 0,
) -> Dataset:
    """2-D toy classification data, split 70/15/15.

    "blobs": Gaussian clusters centered on the unit circle (noise is the
    coordinate stddev; 0 puts every point exactly on its center).
    "spiral": interleaved arms, one per class, with angular noise.
    """
    if kind not in ("blobs", "spiral"):
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if classes < 2 or samples_per_class < 1:
        raise ValueError(f"need >= 2 classes and >= 1 sample per class, got {classes}, {samples_per_class}")
    if noise < 0.0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    count = classes * samples_per_class
    features = np.empty((count, 2))
    labels = np.empty(count, dtype=np.int64)
    for c in range(classes):
        rows = slice(c * samples_per_class, (c + 1) * samples_per_class)
        labels[rows] = c
        phase = 2.0 * math.pi * c / classes
        if kind == "blobs":
            center = np.array([math.cos(phase), math.sin(phase)])
            features[rows] = center + noise * rng.standard_normal((samples_per_class, 2))
        else:
            radii = (np.arange(samples_per_class) + 1.0) / samples_per_class
            angles = phase + _SPIRAL_WIND * radii + noise * rng.standard_normal(samples_per_class)
            features[rows] = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    order = rng.permutation(count)
    return Dataset(features[order], labels[order], _split_tags(count))


class DataError(ValueError):
    """Malformed dataset file."""


def load_csv(path, standardize: bool = True) -> Dataset:
    """Load `f0,...,fk,label` rows; split 70/15/15 in file order.

    Features are standardized per column with mean/std taken over the
    train split only (constant columns become zeros). Feature cells must be
    finite; labels must be non-negative integers that fit int64.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}:1: empty file, expected a header row 'f0,...,fk,label'")
    header = rows[0]
    n_feat = len(header) - 1
    expected = [f"f{i}" for i in range(n_feat)] + ["label"]
    if n_feat < 1 or header != expected:
        raise DataError(
            f"{path}:1: expected a header row 'f0,...,fk,label', got {','.join(header)!r}"
        )
    body = rows[1:]
    if not body:
        raise DataError(f"{path}:2: no data rows")
    features = np.empty((len(body), n_feat))
    labels = np.empty(len(body), dtype=np.int64)
    for i, row in enumerate(body):
        lineno = i + 2
        if len(row) != n_feat + 1:
            raise DataError(f"{path}:{lineno}: expected {n_feat + 1} cells, got {len(row)}")
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed numeric value in {row!r}") from None
        if not all(map(math.isfinite, values[:-1])):
            raise DataError(f"{path}:{lineno}: non-finite feature value in {row!r}")
        lab = values[-1]
        if not (0 <= lab < 2**63 and lab == int(lab)):  # NaN and infinity fail the range test
            raise IndexError(f"{path}:{lineno}: label {row[-1]!r} is not a valid class index")
        features[i] = values[:-1]
        labels[i] = int(lab)
    tags = _split_tags(len(body))
    if standardize:
        train_rows = features[tags == "train"]
        mean = train_rows.mean(axis=0)
        std = train_rows.std(axis=0)
        std[std == 0.0] = 1.0
        features = (features - mean) / std
    return Dataset(features, labels, tags)


# --------------------------------------------------------------------------
# Run bookkeeping


@dataclass
class RunLog:
    """Per-step and per-epoch scalars; exact floats, no wall-clock."""

    steps: list[tuple[int, float, float, float]] = field(default_factory=list)  # step, beta, lr, loss
    epochs: list[tuple[int, float]] = field(default_factory=list)  # epoch, val_accuracy


STEP_HEADER = ["step", "beta", "lr", "train_loss"]
EPOCH_HEADER = ["epoch", "val_accuracy"]


def write_runlog(log: RunLog, steps_path, epochs_path) -> None:
    with open(steps_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(STEP_HEADER)
        for step, beta, lr, loss in log.steps:
            w.writerow([step, repr(beta), repr(lr), repr(loss)])
    with open(epochs_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(EPOCH_HEADER)
        for epoch, acc in log.epochs:
            w.writerow([epoch, repr(acc)])


def read_runlog(steps_path, epochs_path) -> RunLog:
    log = RunLog()
    with open(steps_path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != STEP_HEADER:
            raise DataError(f"{steps_path}: missing step header {STEP_HEADER}")
        for row in reader:
            log.steps.append((int(row[0]), float(row[1]), float(row[2]), float(row[3])))
    with open(epochs_path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != EPOCH_HEADER:
            raise DataError(f"{epochs_path}: missing epoch header {EPOCH_HEADER}")
        for row in reader:
            log.epochs.append((int(row[0]), float(row[1])))
    return log


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the step, lr, and beta at failure."""

    def __init__(self, step: int, lr: float, beta: float):
        super().__init__(f"training diverged at step {step} (lr={lr:g}, beta={beta:g})")
        self.step = step
        self.lr = lr
        self.beta = beta

    def __reduce__(self):
        # rebuilt from the three numbers, so it crosses a process boundary
        return type(self), (self.step, self.lr, self.beta)


# --------------------------------------------------------------------------
# The loop

@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    seed: int
    optimizer: OptimizerSpec = OptimizerSpec()
    q_steps: int = 0  # post-shot dense budget: steps trained dense before the switch
    post_shot_spec: CompressionSpec | None = None
    freeze_mask: bool = False
    eval_compressed_only: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.q_steps < 0:
            raise ValueError(f"q_steps must be >= 0, got {self.q_steps}")


def steps_per_epoch(n_train: int, batch_size: int) -> int:
    if n_train < 1 or batch_size < 1:
        raise ValueError(f"need positive sizes, got n_train={n_train}, batch_size={batch_size}")
    return -(-n_train // batch_size)


def q_steps_from_epochs(q_epochs: int, n_train: int, batch_size: int) -> int:
    """Transition length in steps for a transition given in epochs."""
    if q_epochs < 0:
        raise ValueError(f"q_epochs must be >= 0, got {q_epochs}")
    return q_epochs * steps_per_epoch(n_train, batch_size)


def batch_order(seed: int, epoch: int, n_train: int) -> Array:
    """Shuffle for one epoch; a pure function of (seed, epoch) only."""
    return np.random.default_rng([seed, epoch]).permutation(n_train)


def refresh_network(net: Network, refresh_masks: bool = True) -> None:
    """Re-derive masks/scales for every compressed block (or branch)."""
    targets = [getattr(block, "branch", block) for block in net.blocks]
    refresh_blocks([t for t in targets if isinstance(t, CompressedBlock)], refresh_masks=refresh_masks)


def evaluate(net: Network, features: Array, labels: Array, compressed_only: bool = False) -> float:
    """Classification accuracy at the network's current state."""
    if len(labels) == 0:
        return float("nan")
    x = Tensor(features)
    out = net.forward_compressed(x) if compressed_only else net.forward(x)
    pred = out.data.argmax(axis=1)
    return float((pred == labels).mean())


def _resolve_schedule(spec: OptimizerSpec, total_steps: int) -> OptimizerSpec:
    sch = spec.schedule
    if isinstance(sch, Cosine) and sch.total_steps is None:
        return replace(spec, schedule=replace(sch, total_steps=total_steps))
    return spec


def train(net: Network, dataset: Dataset, cfg: TrainConfig) -> tuple[Network, RunLog]:
    """Run the full loop; the network is trained in place.

    The network is the run's phase: dense blocks train as they are,
    compressed blocks through the straight-through estimator, wrapped blocks
    blend under their shared scheduler. With ``post_shot_spec`` an all-dense
    network is compressed in place once ``q_steps`` steps are done.

    Per step: refresh derived compression state, forward, mean-batch
    cross-entropy, backward, optimizer update, then one tick of each
    scheduler, so the very first forward sees beta = 1. The logged beta
    column is the weight of the original branch: the scheduler's value for a
    blended network, 1 for an all-dense one, 0 for a compressed one.
    """
    if cfg.post_shot_spec is not None and not _all_dense(net):
        raise ValueError("post_shot_spec needs an all-dense network")
    x_train, y_train = dataset.split("train")
    x_val, y_val = dataset.split("val")
    n_train = len(y_train)
    spe = steps_per_epoch(n_train, cfg.batch_size)
    opt = Optimizer(_resolve_schedule(cfg.optimizer, cfg.epochs * spe))
    schedulers = schedulers_of(net)
    log = RunLog()
    gstep = 0
    for epoch in range(1, cfg.epochs + 1):
        order = batch_order(cfg.seed, epoch, n_train)
        for b in range(spe):
            if gstep == cfg.q_steps and cfg.post_shot_spec is not None:
                _post_shot_switch(net, cfg.post_shot_spec)
            refresh_network(net, refresh_masks=not cfg.freeze_mask)
            beta = schedulers[0].beta() if schedulers else (1.0 if _all_dense(net) else 0.0)
            idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            logits = net.forward(Tensor(x_train[idx]))
            loss = softmax_cross_entropy(logits, y_train[idx])
            loss_val = float(loss.data)
            if not math.isfinite(loss_val):
                raise TrainingDiverged(gstep, lr_at(opt.step_count, opt.spec), beta)
            params = net.trainable_parameters()
            for _, p in params:
                p.grad = None  # a branch that left the graph must not replay its last gradient
            backward(loss)
            lr_used = opt.step(params)
            for sch in schedulers:
                sch.step()
            log.steps.append((gstep, beta, lr_used, loss_val))
            gstep += 1
        refresh_network(net, refresh_masks=not cfg.freeze_mask)
        acc = evaluate(net, x_val, y_val, compressed_only=cfg.eval_compressed_only)
        log.epochs.append((epoch, acc))
    return net, log


def _all_dense(net: Network) -> bool:
    return all(isinstance(b, DenseBlock) for b in net.blocks)


def _post_shot_switch(net: Network, spec: CompressionSpec) -> None:
    # swap dense blocks for compressed ones in place; parameter names keep
    # their block indices so optimizer state carries over
    net.blocks = [compress_block(b, spec) for b in net.blocks]
    refresh_blocks(net.blocks)
