"""Optimizers, LR schedules, toy datasets, and the training loop.

The loop is deterministic end to end: parameter init, batch order, and
every numeric op are pure functions of the config and seeds, so two runs
with identical arguments produce bit-identical logs. Batch order per
epoch depends only on (seed, epoch), never on the network being trained,
which is what lets a zero-length transition reproduce the standard STE
baseline exactly. The loop trains a lone network or a stack of them
(model.py) alike; each member of a stack takes its own seed's batches and
gives the bytes it would give alone.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from .compression import CompressedBlock, CompressionSpec, compress_block, refresh_blocks
from .model import DenseBlock, Network
from .tensor import Tensor, backward, no_graph, softmax_cross_entropy
from .vcon import compressed_blocks

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
    """SGD or Adam over named parameters, streamed through two small scratch
    buffers.

    A step updates the live parameters, those whose grad is not None;
    the others (absent from the step's graph) are left untouched. The live
    parameters' Adam moments lie in one flat m and one flat v, in live
    order, and a step walks them in chunks of at most ``chunk`` elements:
    it gathers the chunk's gradient pieces into one scratch buffer, runs
    the update as a handful of whole-chunk ops into the other, whose
    per-element arithmetic is the same as one tensor at a time, then
    subtracts each piece's update from its parameter's array in place. A
    parameter that fits in a chunk is one piece, whole; a larger one is cut
    into C-ordered blocks of whole rows. So only m and v outlive a step,
    and a step makes the same ops, and gives the same bytes, whatever the
    chunk. The gather adds 0.0, so a -0.0 gradient counts as +0.0. It takes
    a gradient and a parameter of any layout; the engine's gradients are
    C-ordered (``linear`` returns its weight gradient as ``g.T @ x``), so
    for them it is a contiguous copy.

    Adam moments are keyed by parameter name, so blocks can be swapped
    mid-run (the post-shot switch) without losing or misrouting moments.
    A parameter that leaves the live set drops its moments with the old
    layout's buffers (in ``train`` none returns: vcon originals leave once
    the transition ends, low-rank post-shot dense weights at the switch);
    one that returns, or changes shape, starts from zero like a new one.
    The layout is rebuilt only when the live names or shapes change.
    """

    chunk = 24_576  # elements per scratch buffer: 192 KiB of float64

    def __init__(self, spec: OptimizerSpec):
        self.spec = spec
        self.step_count = 0
        self._state: dict[str, tuple[Array, Array]] = {}  # name -> (m, v)
        self._layout: tuple[tuple[str, tuple[int, ...]], ...] | None = None
        # per chunk: its m and v (empty for SGD), gradient and update scratch, and its pieces:
        # (live index, index into the parameter or None for all of it, gradient view, update view)
        self._chunks: list[tuple[Array, Array, Array, Array, list[tuple]]] = []

    def _relayout(self, live: Sequence[tuple[str, Tensor]]) -> None:
        state = {}
        bounds = np.cumsum([0] + [p.data.size for _, p in live]).tolist()
        adam = self.spec.kind == "adam"
        m_flat, v_flat = np.zeros(bounds[-1] if adam else 0), np.zeros(bounds[-1] if adam else 0)
        width = min(self.chunk, bounds[-1])
        g_buf, u_buf = np.empty(width), np.empty(width)
        chunks: list[list] = []  # per chunk: [flat start, size, pieces]
        at = 0
        for i, ((name, p), lo, hi) in enumerate(zip(live, bounds, bounds[1:])):
            if adam:
                m, v = m_flat[lo:hi].reshape(p.data.shape), v_flat[lo:hi].reshape(p.data.shape)
                old = self._state.get(name)
                if old is not None and old[0].shape == p.data.shape:
                    m[...], v[...] = old
                state[name] = (m, v)
            for index, shape in _blocks(p.data.shape, self.chunk):
                size = math.prod(shape)
                if not chunks or chunks[-1][1] + size > self.chunk:
                    chunks.append([at, 0, []])
                chunk = chunks[-1]
                views = (buf[chunk[1] : chunk[1] + size].reshape(shape) for buf in (g_buf, u_buf))
                chunk[2].append((i, index, *views))
                chunk[1] += size
                at += size
        self._state = state
        self._chunks = [(m_flat[lo : lo + n], v_flat[lo : lo + n], g_buf[:n], u_buf[:n], pieces)
                        for lo, n, pieces in chunks]

    def select(self, index) -> None:
        """Keep the moments of a stack's members ``index`` (``Network.select``)."""
        self._state = {name: (m[index], v[index]) for name, (m, v) in self._state.items()}
        self._layout = None

    def step(self, named_params: Sequence[tuple[str, Tensor]]) -> float:
        spec = self.spec
        lr = lr_at(self.step_count, spec)
        t = self.step_count + 1
        live = [(name, p) for name, p in named_params if p.grad is not None]
        layout = tuple((name, p.data.shape) for name, p in live)
        if layout != self._layout:
            self._relayout(live)
            self._layout = layout
        tensors = [p for _, p in live]
        for m, v, g, u, pieces in self._chunks:
            for i, index, g_piece, _ in pieces:
                grad = tensors[i].grad
                np.add(grad if index is None else grad[index], 0.0, out=g_piece)
            if spec.kind == "sgd":
                np.multiply(g, lr, out=u)
            else:
                m *= spec.beta1
                np.multiply(g, 1.0 - spec.beta1, out=u)
                m += u
                v *= spec.beta2
                np.multiply(g, g, out=g)
                g *= 1.0 - spec.beta2
                v += g
                np.divide(m, 1.0 - spec.beta1**t, out=u)  # m_hat
                u *= lr
                np.divide(v, 1.0 - spec.beta2**t, out=g)  # v_hat
                np.sqrt(g, out=g)
                g += spec.eps
                u /= g
            for i, index, _, u_piece in pieces:
                data = tensors[i].data
                target = data if index is None else data[index]  # a view: the update lands in place
                target -= u_piece
        self.step_count += 1
        return lr


def _blocks(shape: tuple[int, ...], limit: int) -> list[tuple[tuple | None, tuple[int, ...]]]:
    """(index, shape) of each piece an array of ``shape`` is cut into for
    chunks of ``limit`` elements: the whole array (index None) if it fits,
    else blocks in C order, each a run of whole rows along the first axis
    whose rows fit, so each piece is a view and a contiguous range of the
    array's C-ordered flat index."""
    if math.prod(shape) <= limit:
        return [(None, shape)]
    axis = next(k for k in range(len(shape)) if math.prod(shape[k + 1 :]) <= limit)
    rows, step = shape[axis], limit // math.prod(shape[axis + 1 :])
    return [((*lead, slice(a, min(a + step, rows))), (min(a + step, rows) - a, *shape[axis + 1 :]))
            for lead in np.ndindex(*shape[:axis]) for a in range(0, rows, step)]


# --------------------------------------------------------------------------
# Datasets

SPLITS = ("train", "val", "test")
_SPIRAL_WIND = 4.0  # radians each arm winds from center to rim


@dataclass
class Dataset:
    """Rows split 70/15/15 in order: the first floor(0.70 * count) train,
    the next floor(0.15 * count) val, the rest test."""

    features: Array  # (count, dim) float64
    labels: Array  # (count,) int64

    def split(self, tag: str) -> tuple[Array, Array]:
        if tag not in SPLITS:
            raise ValueError(f"unknown split {tag!r}, expected one of {SPLITS}")
        n_train, n_val = math.floor(0.70 * len(self.labels)), math.floor(0.15 * len(self.labels))
        rows = {"train": slice(0, n_train), "val": slice(n_train, n_train + n_val),
                "test": slice(n_train + n_val, None)}[tag]
        return self.features[rows], self.labels[rows]


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
    return Dataset(features[order], labels[order])


class DataError(ValueError):
    """Malformed dataset file."""


def _csv_rows(path):
    """Each row of a CSV file with the line it ends on, as the ``csv`` reader
    counts lines (a quoted cell may span several); bytes that are not UTF-8,
    or a row the ``csv`` reader refuses, raise ``DataError`` at ``path:line``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:  # such as a cell past the reader's field size limit
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def load_csv(path) -> Dataset:
    """Load `f0,...,fk,label` rows; split 70/15/15 in file order.

    Features are standardized per column with mean/std taken over the
    train split only (constant columns become zeros), so a file needs 2
    rows. Feature cells must be finite; labels must be non-negative
    integers that fit int64.
    """
    rows = _csv_rows(path)
    _, header = next(rows, (None, None))
    if header is None:
        raise DataError(f"{path}:1: empty file, expected a header row 'f0,...,fk,label'")
    n_feat = len(header) - 1
    expected = [f"f{i}" for i in range(n_feat)] + ["label"]
    if n_feat < 1 or header != expected:
        raise DataError(f"{path}:1: expected a header row 'f0,...,fk,label', got {','.join(header)!r}")
    body = list(rows)
    if not body:
        raise DataError(f"{path}:2: no data rows")
    features = np.empty((len(body), n_feat))
    labels = np.empty(len(body), dtype=np.int64)
    for i, (lineno, row) in enumerate(body):
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
    train_rows, _ = Dataset(features, labels).split("train")
    if not len(train_rows):
        raise DataError(f"{path}: {len(body)} data row, no train split (the first 70%); need at least 2 rows")
    mean = train_rows.mean(axis=0)
    std = train_rows.std(axis=0)
    std[std == 0.0] = 1.0
    return Dataset((features - mean) / std, labels)


# --------------------------------------------------------------------------
# Run bookkeeping


@dataclass
class RunLog:
    """Per-step and per-epoch scalars; exact floats, no wall-clock.

    A stack's log holds a list of losses and of accuracies, one per member
    (NaN once a member has left), and the members that left the stack
    under ``failures``; ``member`` takes one member's log out of it."""

    steps: list[tuple[int, float, float, float]] = field(default_factory=list)  # step, beta, lr, loss
    epochs: list[tuple[int, float]] = field(default_factory=list)  # epoch, val_accuracy
    failures: dict[int, TrainingDiverged] = field(default_factory=dict)  # member -> why it left

    def member(self, i: int) -> RunLog:
        return RunLog([(step, beta, lr, loss[i]) for step, beta, lr, loss in self.steps],
                      [(epoch, acc[i]) for epoch, acc in self.epochs])


STEP_HEADER = ["step", "beta", "lr", "train_loss"]
EPOCH_HEADER = ["epoch", "val_accuracy"]
SWEEP_HEADER = ["q", "seed", "epoch", "val_accuracy"]


def write_table(path, header: list[str], rows) -> None:
    """A header row, then the rows; ``csv`` writes a float as its ``repr``."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def read_table(path, header: list[str], types) -> list[tuple]:
    """The rows of a ``write_table`` table, each cell read by its column's
    type; a wrong header, a row of another width or a cell its type cannot
    read raises ``DataError`` at ``path:line``, as do bytes that are not UTF-8."""
    rows = _csv_rows(path)
    if (got := next(rows, (None, []))[1]) != header:
        raise DataError(f"{path}:1: expected header {','.join(header)!r}, got {','.join(got)!r}")
    table = []
    for line, row in rows:
        if len(row) != len(header):
            raise DataError(f"{path}:{line}: expected {len(header)} cells, got {len(row)}")
        try:
            table.append(tuple(t(cell) for t, cell in zip(types, row)))
        except ValueError:
            raise DataError(f"{path}:{line}: unreadable cell in {row!r}") from None
    return table


def write_runlog(log: RunLog, steps_path, epochs_path) -> None:
    write_table(steps_path, STEP_HEADER, log.steps)
    write_table(epochs_path, EPOCH_HEADER, log.epochs)


def read_runlog(steps_path, epochs_path) -> RunLog:
    return RunLog(read_table(steps_path, STEP_HEADER, (int, float, float, float)),
                  read_table(epochs_path, EPOCH_HEADER, (int, float)))


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
    seed: int | tuple[int, ...]  # a stack takes a tuple: one seed per member
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
    blocks = [b for b in compressed_blocks(net) if isinstance(b, CompressedBlock)]
    refresh_blocks(blocks, refresh_masks=refresh_masks)


def evaluate(net: Network, features: Array, labels: Array, compressed_only: bool = False) -> float | list[float]:
    """Classification accuracy at the network's current state: a float, or a
    list of one per member for a stack. The forward records no graph."""
    if len(labels) == 0:
        return np.full(net.stack, np.nan).tolist()
    x = Tensor(features)
    with no_graph():
        out = (Network(compressed_blocks(net)) if compressed_only else net).forward(x)
    pred = out.data.argmax(axis=-1)
    return (pred == labels).mean(axis=-1).tolist()


def _resolve_schedule(spec: OptimizerSpec, total_steps: int) -> OptimizerSpec:
    sch = spec.schedule
    if isinstance(sch, Cosine) and sch.total_steps is None:
        return replace(spec, schedule=replace(sch, total_steps=total_steps))
    return spec


def train(net: Network, dataset: Dataset, cfg: TrainConfig) -> tuple[Network, RunLog]:
    """Run the full loop; the network is trained in place.

    The network is the run's phase: dense blocks train as they are,
    compressed blocks through the straight-through estimator, wrapped blocks
    blend under the network's scheduler. With ``post_shot_spec`` an all-dense
    network is compressed in place once ``q_steps`` steps are done.

    Derived compression state is refreshed once per weight update: once
    before the first step, then after each optimizer update, so every
    forward and every validation pass sees the state of the current
    weights. Per step: forward, mean-batch cross-entropy, backward,
    optimizer update, refresh, then one tick of the network's scheduler,
    so the very first forward sees beta = 1. The logged beta column is the
    weight of the original branch: the scheduler's value for a blended
    network, 1 for an all-dense one, 0 for a compressed one. The step's
    graph is dropped as soon as backward has run, and the parameters'
    gradients as soon as the update has applied them, so none lives on
    through the refresh, the evaluation or the next forward.

    A stack runs one graph per step: member i takes the batches of
    ``cfg.seed[i]`` and one loss, whose gradient reaches only its own
    slices. A member whose loss is not finite leaves the stack at that step
    (``log.failures`` keeps its ``TrainingDiverged``) and the others step
    on; once no member is left, the first member's failure is raised, as
    it is for a lone network.
    """
    if cfg.post_shot_spec is not None and not _all_dense(net):
        raise ValueError("post_shot_spec needs an all-dense network")
    seeds = np.asarray(cfg.seed)
    if seeds.shape != net.stack:
        raise ValueError(f"a network of stack shape {net.stack} needs a seed of that shape, got {cfg.seed!r}")
    x_train, y_train = dataset.split("train")
    x_val, y_val = dataset.split("val")
    n_train = len(y_train)
    spe = steps_per_epoch(n_train, cfg.batch_size)
    opt = Optimizer(_resolve_schedule(cfg.optimizer, cfg.epochs * spe))
    log = RunLog()
    alive = np.arange(seeds.size)  # the member index of each slice still in the stack
    gstep = 0
    for _, p in net.named_parameters():
        p.grad = None  # a gradient left by an earlier backward is no step's
    refresh_network(net, refresh_masks=not cfg.freeze_mask)
    for epoch in range(1, cfg.epochs + 1):
        orders = np.reshape([batch_order(int(seed), epoch, n_train) for seed in seeds.reshape(-1)[alive]],
                            (*net.stack, n_train))
        for b in range(spe):
            if gstep == cfg.q_steps and cfg.post_shot_spec is not None:
                _post_shot_switch(net, cfg.post_shot_spec)
            beta = net.scheduler.beta() if net.scheduler is not None else (1.0 if _all_dense(net) else 0.0)
            while True:
                idx = orders[..., b * cfg.batch_size : (b + 1) * cfg.batch_size]
                logits = net.forward(Tensor(x_train[idx]))
                loss = softmax_cross_entropy(logits, y_train[idx])
                diverged = ~np.isfinite(loss.data.reshape(-1))
                if not diverged.any():
                    break
                for member in alive[diverged]:
                    log.failures[int(member)] = TrainingDiverged(gstep, lr_at(opt.step_count, opt.spec), beta)
                if diverged.all():
                    raise log.failures[min(log.failures)]
                keep = ~diverged  # the rest take this step again without them
                net.blocks = net.select(keep).blocks
                opt.select(keep)
                orders, alive = orders[keep], alive[keep]
            backward(loss)
            losses = loss.data
            del logits, loss  # frees the step's graph
            params = net.named_parameters()
            lr_used = opt.step(params)
            for _, p in params:
                p.grad = None  # nothing reads it again, and a branch that leaves the graph must not replay it
            refresh_network(net, refresh_masks=not cfg.freeze_mask)
            if net.scheduler is not None:
                net.scheduler.step()
            log.steps.append((gstep, beta, lr_used, _by_member(losses, alive, seeds)))
            gstep += 1
        acc = evaluate(net, x_val, y_val, compressed_only=cfg.eval_compressed_only)
        log.epochs.append((epoch, _by_member(acc, alive, seeds)))
    return net, log


def _by_member(values, alive: Array, seeds: Array):
    """The values of the slices still in the stack, at their members' places
    and NaN at the others': a float for a lone network, a list for a stack."""
    row = np.full(seeds.size, np.nan)
    row[alive] = np.reshape(values, -1)
    return row.reshape(seeds.shape).tolist()


def _all_dense(net: Network) -> bool:
    return all(isinstance(b, DenseBlock) for b in net.blocks)


def _post_shot_switch(net: Network, spec: CompressionSpec) -> None:
    # swap dense blocks for compressed ones in place; parameter names keep
    # their block indices so optimizer state carries over
    net.blocks = [compress_block(b, spec) for b in net.blocks]
    refresh_blocks(net.blocks)
