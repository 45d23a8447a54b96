"""Experiment runner: train / compare / sweep-q / inspect.

Configs are one JSON file with nested sections; any leaf can be
overridden from the command line with --set dotted.key=value. Exit codes:
0 success, 1 runtime failure, 2 config error.

Process set-up: before any run, ``main`` keeps the arrays a training step
frees in the process's heap (``_keep_freed_arrays``, glibc's allocator
settings) and keeps OpenBLAS to one thread (``_one_blas_thread``). A run
then computes the same bytes in the command's own process as in a forked
worker, which inherits both.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_network, save_network
from .compression import (
    CompressedBlock,
    CompressionSpec,
    ConfigError,
    compress_network,
    config_fields,
    config_kind,
    config_value,
    reject_unknown,
    spec_from_dict,
    spec_to_dict,
)
from .model import ACTIVATIONS, Network, init_params, stack_networks
from .training import (
    EPOCH_HEADER,
    SWEEP_HEADER,
    Constant,
    Cosine,
    DataError,
    Dataset,
    OptimizerSpec,
    RunLog,
    TrainConfig,
    TrainingDiverged,
    load_csv,
    make_synthetic,
    q_steps_from_epochs,
    read_table,
    steps_per_epoch,
    train,
    write_runlog,
    write_table,
)
from .training import evaluate as _evaluate
from .vcon import BetaScheduler, VconBlock, beta_at, compressed_blocks, finalize, wrap_network


# --------------------------------------------------------------------------
# Config schema

DEFAULT_CONFIG = {
    "model": {"layer_sizes": [2, 16, 3], "activation": "relu"},
    "dataset": {"kind": "blobs", "classes": 3, "samples_per_class": 100, "noise": 0.1, "seed": 0},
    "compression": {"kind": "none"},
    "optimizer": {"kind": "adam", "lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                  "schedule": {"kind": "constant"}},
    "mode": "dense",
    "epochs": 10,
    "batch_size": 32,
    "seeds": [0],
    "output_dir": "runs/out",
    "freeze_original": False,
    "freeze_mask": False,
    "eval_compressed_only": False,
}
_TOP_KEYS = {*DEFAULT_CONFIG, "q_epochs", "q_steps"}
_SYNTHETIC_NUMBERS = {"classes": int, "samples_per_class": int, "noise": float, "seed": int}
_DATASET_FIELDS = {"blobs": _SYNTHETIC_NUMBERS, "spiral": _SYNTHETIC_NUMBERS, "csv": {"path": str}}
_FLAGS = ("freeze_original", "freeze_mask", "eval_compressed_only")
MODES = ("dense", "ste_standard", "post_shot", "vcon")


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or a number past Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return raw


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    """Apply --set dotted.key=value pairs; values parse as JSON, else string."""
    cfg = json.loads(json.dumps(cfg))  # deep copy
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"--set {dotted}: value is not usable JSON: {exc}") from None
        node = cfg
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {dotted}: {part} is not a section")
        node[parts[-1]] = value
    return cfg


@dataclass
class ExperimentConfig:
    """Validated, typed view of one experiment's JSON config."""

    layer_sizes: list[int]
    activation: str
    dataset: dict  # make_synthetic's keyword arguments, or kind "csv" and a path
    compression: CompressionSpec | None
    optimizer: OptimizerSpec
    mode: str
    q_epochs: int | list[int] | None
    q_steps: int | list[int] | None
    epochs: int
    batch_size: int
    seeds: list[int]
    output_dir: Path
    freeze_original: bool
    freeze_mask: bool
    eval_compressed_only: bool
    raw: dict = field(repr=False, default_factory=dict)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _int_list(value, key: str) -> list[int]:
    return [config_value(v, int, f"{key}[{i}]") for i, v in enumerate(config_value(value, list, key))]


def _expect_distinct(values: list[int], key: str) -> None:
    for i, value in enumerate(values):
        _expect(value not in values[:i], f"{key}[{i}] must be distinct from {key}[{values.index(value)}], "
                f"both are {value}")


def _read_q(merged: dict, key: str) -> int | list[int] | None:
    q = merged.get(key)
    if q is not None:
        values = _int_list(q, key) if isinstance(q, list) else [config_value(q, int, key)]
        _expect(all(v >= 0 for v in values), f"{key} must be an integer >= 0 or a list of them")
        _expect_distinct(values, key)
    return q


def _read_dataset(ds) -> dict:
    """The merged dataset section: synthetic numbers, or a csv kind and path."""
    ds = config_value(ds, dict, "dataset")
    reject_unknown(ds, {"kind", *config_kind(ds, _DATASET_FIELDS, "dataset.")}, "dataset.")
    if ds["kind"] == "csv":
        _expect("path" in ds, "dataset.path is required for csv datasets")
        return {"kind": "csv", "path": config_value(ds["path"], str, "dataset.path")}
    out = {"kind": ds["kind"], **{key: config_value(ds[key], t, f"dataset.{key}") for key, t in _SYNTHETIC_NUMBERS.items()}}
    _expect(out["classes"] >= 2, "dataset.classes must be >= 2")
    _expect(out["samples_per_class"] >= 1, "dataset.samples_per_class must be >= 1")
    _expect(out["noise"] >= 0.0, "dataset.noise must be >= 0")
    return out


def _read_optimizer(section) -> OptimizerSpec:
    section = config_value(section, dict, "optimizer")
    sched = config_value(section["schedule"], dict, "optimizer.schedule")
    cls = config_kind(sched, {"constant": Constant, "cosine": Cosine}, "optimizer.schedule.")
    schedule = config_fields(cls, sched, "optimizer.schedule.")
    return config_fields(OptimizerSpec, section, "optimizer.", schedule=schedule)


def validate_config(cfg: dict) -> ExperimentConfig:
    """Check ``cfg`` merged over ``DEFAULT_CONFIG``: every section must be an
    object and every value must already have its JSON type (``config_value``)."""
    reject_unknown(cfg, _TOP_KEYS, "")
    merged = _merge(DEFAULT_CONFIG, cfg)
    if isinstance(cfg.get("dataset"), dict) and cfg["dataset"].get("kind") == "csv":
        merged["dataset"] = dict(cfg["dataset"])  # the synthetic defaults are no csv keys

    model = config_value(merged["model"], dict, "model")
    reject_unknown(model, DEFAULT_CONFIG["model"], "model.")
    sizes = _int_list(model["layer_sizes"], "model.layer_sizes")
    _expect(len(sizes) >= 2 and min(sizes) >= 1, "model.layer_sizes must be a list of >= 2 positive integers")
    activation = config_value(model["activation"], str, "model.activation")
    _expect(activation in ACTIVATIONS, f"model.activation must be one of {ACTIVATIONS}, got {activation!r}")

    spec = spec_from_dict(merged["compression"])
    mode = config_value(merged["mode"], str, "mode")
    _expect(mode in MODES, f"mode must be dense, ste_standard, post_shot, or vcon, got {mode!r}")
    if mode != "dense":
        _expect(spec is not None, f"mode {mode!r} requires a compression section with kind != 'none'")

    q_epochs, q_steps = _read_q(merged, "q_epochs"), _read_q(merged, "q_steps")
    _expect(q_epochs is None or q_steps is None, "give q_epochs or q_steps, not both")
    epochs = config_value(merged["epochs"], int, "epochs")
    _expect(epochs >= 1, "epochs must be an integer >= 1")
    batch = config_value(merged["batch_size"], int, "batch_size")
    _expect(batch >= 1, "batch_size must be an integer >= 1")
    seeds = _int_list(merged["seeds"], "seeds")
    _expect(bool(seeds), "seeds must be a non-empty list of integers")
    for i, seed in enumerate(seeds):
        _expect(0 <= seed < 2**63, f"seeds[{i}] must be an integer in [0, 2**63), got {seed}")
    _expect_distinct(seeds, "seeds")

    return ExperimentConfig(
        layer_sizes=sizes,
        activation=activation,
        dataset=_read_dataset(merged["dataset"]),
        compression=spec,
        optimizer=_read_optimizer(merged["optimizer"]),
        mode=mode,
        q_epochs=q_epochs,
        q_steps=q_steps,
        epochs=epochs,
        batch_size=batch,
        seeds=seeds,
        output_dir=Path(config_value(merged["output_dir"], str, "output_dir")),
        **{flag: config_value(merged[flag], bool, flag) for flag in _FLAGS},
        raw=merged,
    )


# --------------------------------------------------------------------------
# Shared run machinery


def build_dataset(exp: ExperimentConfig) -> Dataset:
    ds = exp.dataset
    return load_csv(ds["path"]) if ds["kind"] == "csv" else make_synthetic(**ds)


def _transition_steps(exp: ExperimentConfig, dataset: Dataset, sweep: bool) -> list[int]:
    """The config's transition lengths in optimizer steps: one for train and
    compare, at least two for sweep-q; q_epochs count whole epochs of steps."""
    q = exp.q_steps if exp.q_epochs is None else exp.q_epochs
    if sweep:
        _expect(isinstance(q, list) and len(q) >= 2,
                "sweep-q needs q_epochs or q_steps as a list of at least 2 values")
    else:
        _expect(not isinstance(q, list), "train/compare need a scalar q_epochs or q_steps (lists are for sweep-q)")
        _expect(q is not None or exp.mode not in ("vcon", "post_shot"), f"mode {exp.mode!r} needs q_epochs or q_steps")
        q = [q or 0]
    if exp.q_epochs is not None:
        q = [q_steps_from_epochs(v, len(dataset.split("train")[1]), exp.batch_size) for v in q]
    return q


def _arm(exp: ExperimentConfig, mode: str, q_steps: int, output_dir: Path) -> ExperimentConfig:
    """``exp`` as one arm: its runs in ``mode``, with a ``q_steps``-step transition, written to ``output_dir``."""
    return replace(exp, mode=mode, q_epochs=None, q_steps=q_steps, output_dir=output_dir)


@dataclass
class SeedResult:
    """One finished member: its ``summary.json`` row, its own log and its lone network."""

    row: dict
    log: RunLog
    net: Network


@dataclass
class StackResult:
    """One ``run_single`` call: the stack's log, one row per step, and each
    seed's outcome in seed order: its result, or why it left the stack."""

    log: RunLog
    members: list[SeedResult | TrainingDiverged]


def run_single(exp: ExperimentConfig, dataset: Dataset, seeds: list[int], mode: str, q_steps: int) -> StackResult:
    """Train one arm's ``seeds`` as one stack of networks, then take each
    member out as a lone network with its own log and ``summary.json`` row
    (``wall_clock_seconds`` is the stack's; vcon adds ``transition_finished``)."""
    start = time.perf_counter()
    net = stack_networks([init_params(exp.layer_sizes, seed, exp.activation) for seed in seeds])
    dense_count = net.select(0).param_count()
    if mode == "ste_standard":
        net = compress_network(net, exp.compression)
    elif mode == "vcon":
        net = wrap_network(net, exp.compression, BetaScheduler(q=q_steps), train_original=not exp.freeze_original)
    cfg = TrainConfig(
        epochs=exp.epochs,
        batch_size=exp.batch_size,
        seed=tuple(seeds),
        optimizer=exp.optimizer,
        q_steps=q_steps,
        post_shot_spec=exp.compression if mode == "post_shot" else None,
        freeze_mask=exp.freeze_mask,
        eval_compressed_only=exp.eval_compressed_only,
    )
    net, log = train(net, dataset, cfg)
    x_test, y_test = dataset.split("test")
    test_acc = _evaluate(net, x_test, y_test, compressed_only=exp.eval_compressed_only)
    elapsed = time.perf_counter() - start
    members = dict(log.failures)
    for k, i in enumerate(i for i in range(len(seeds)) if i not in log.failures):  # slice k holds seed i
        member, member_log = net.select(k), log.member(i)
        compressed_count = sum(b.param_count() for b in compressed_blocks(member))  # once originals are dropped
        best_val = max((acc for _, acc in member_log.epochs if not math.isnan(acc)), default=float("nan"))
        row = dict(seed=seeds[i], final_test_accuracy=test_acc[k], best_val_accuracy=best_val,
                   param_count_dense=dense_count, param_count_compressed=compressed_count, wall_clock_seconds=elapsed)
        if net.scheduler is not None:  # vcon
            row["transition_finished"] = net.scheduler.t >= net.scheduler.q
        members[i] = SeedResult(row, member_log, member)
    return StackResult(log, [members[i] for i in range(len(seeds))])


def _runlog_paths(out_dir: Path, seed: int) -> tuple[Path, Path]:
    return out_dir / f"runlog_steps_seed{seed}.csv", out_dir / f"runlog_epochs_seed{seed}.csv"


def _write_seed_outputs(out_dir: Path, result: SeedResult) -> None:
    """Write a finished member's run logs and checkpoint (whose header holds
    the network's scheduler state), and its finalized network once its row
    says the transition finished."""
    seed = result.row["seed"]
    out_dir.mkdir(parents=True, exist_ok=True)
    write_runlog(result.log, *_runlog_paths(out_dir, seed))
    save_network(result.net, out_dir / f"checkpoint_seed{seed}.vcnet")
    if result.row.get("transition_finished"):
        save_network(finalize(result.net), out_dir / f"finalized_seed{seed}.vcnet")


def _aggregate(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {"mean": float(arr.mean()), "stddev": float(arr.std())}


def _summary_dict(arm: ExperimentConfig, rows: list[dict]) -> dict:
    return {
        "config": arm.raw,
        "mode": arm.mode,
        "per_seed": rows,
        "aggregate": {
            "test_accuracy": _aggregate([r["final_test_accuracy"] for r in rows]),
            "best_val_accuracy": _aggregate([r["best_val_accuracy"] for r in rows]),
        },
    }


def _run_task(arm: ExperimentConfig, dataset: Dataset, seeds: list[int]) -> list[dict | TrainingDiverged]:
    """One stack of an arm's runs, in whichever process it was given to: train,
    write each finished member's files, and return, in seed order, each
    member's summary row, or why it left the stack. The logs stay on disk only."""
    outcomes = []
    for result in run_single(arm, dataset, seeds, arm.mode, arm.q_steps).members:
        if isinstance(result, SeedResult):
            _write_seed_outputs(arm.output_dir, result)
            result = result.row
        outcomes.append(result)
    return outcomes


def _worker_count(tasks: int) -> int:
    """Processes to run ``tasks`` runs in: one per CPU this process may use, at
    most one per run, and 1 (the calling process itself) where fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(tasks, cpus)


_OPENBLAS_SET_THREADS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")


def _one_blas_thread() -> None:
    """Process set-up: keep a loaded OpenBLAS to one thread, in this process and
    in the workers it forks. A product OpenBLAS splits over threads may not give
    its one-thread bytes, so a run's outputs would depend on the CPU count; and
    workers already fill the CPUs, where BLAS threads on top of them spin.
    Without /proc, nothing changes."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # replaced on disk since it was loaded: leave it be
            continue
        for name in _OPENBLAS_SET_THREADS:
            if hasattr(lib, name):
                getattr(lib, name)(1)


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 128 << 20


def _keep_freed_arrays() -> None:
    """Process set-up: keep the arrays a training step frees in this process's
    heap, for the next step to reuse. By default glibc maps a block of 128 KiB
    or more on its own and unmaps it when freed, and gives a freed heap top
    back to the kernel, so every step faults on fresh pages. Blocks under
    32 MiB now come from the heap, which is trimmed only past 128 MiB free.
    Either setting alone turns off glibc's dynamic mmap threshold and faults
    far more than both, so the trim threshold is set only once the mmap one
    took. Forked workers inherit both. Where glibc is not the C library,
    nothing changes."""
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _chunks(seeds: list[int], count: int) -> list[list[int]]:
    """``seeds`` in ``count`` runs of consecutive seeds (at most one per seed),
    sizes differing by at most one, the longer ones first."""
    return [chunk.tolist() for chunk in np.array_split(seeds, min(count, len(seeds)))]


def _run_arms(arms: list[ExperimentConfig], dataset: Dataset, quiet: bool) -> list[dict]:
    """Run each arm on each of its seeds and return each arm's summary. A task
    trains a chunk of an arm's seeds as one stack (``run_single``): each arm's
    seeds are split into ``ceil(workers / arms)`` chunks, so the workers, one
    per CPU, each take about one stack, and with several tasks and workers
    the tasks are spread over forked worker processes. Each member writes its
    own files as soon as its stack ends. Results are taken in task order (arm
    by arm, seed by seed), so progress lines, each arm's summary.json (written
    after its last seed) and the first failure do not depend on the worker
    count. A member that diverges leaves its stack; the others finish and
    keep their files, and its failure is raised when the results reach it.

    Before any run starts, a post_shot arm must switch to its compressed net
    before its last step, and what compressing the arms' layers warns about
    is printed, each message once."""
    n_train = len(dataset.split("train")[1])
    for arm in arms:
        run = arm.epochs * steps_per_epoch(n_train, arm.batch_size)
        key = "q_steps" if arm.raw.get("q_epochs") is None else "q_epochs"
        _expect(arm.mode != "post_shot" or arm.q_steps < run, f"{key} must end post_shot's dense phase before "
                f"the run ends: it would switch at step {arm.q_steps} of a {run}-step run, so the run would "
                "never compress")
    for message in dict.fromkeys(message for arm in arms if arm.mode != "dense"
                                 for n, m in zip(arm.layer_sizes[1:], arm.layer_sizes)
                                 for message in arm.compression.shape_warnings(n, m)):
        print(f"warning: {message}", file=sys.stderr)
    workers = _worker_count(sum(len(arm.seeds) for arm in arms))
    tasks = [(arm, chunk) for arm in arms for chunk in _chunks(arm.seeds, -(-workers // len(arms)))]
    if workers == 1:
        return _collect(tasks, (_run_task(arm, dataset, chunk) for arm, chunk in tasks), quiet)
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
    try:
        futures = [pool.submit(_run_task, arm, dataset, chunk) for arm, chunk in tasks]
        return _collect(tasks, (future.result() for future in futures), quiet)
    finally:
        # after a failure, tasks not yet started are dropped and running ones finish
        pool.shutdown(cancel_futures=True)


def _collect(tasks: list[tuple[ExperimentConfig, list[int]]], results, quiet: bool) -> list[dict]:
    """Take each member's summary row in task order, raising the first that
    left its stack; write and return each arm's summary once its last seed is in."""
    rows, summaries = [], []
    for (arm, seeds), outcomes in zip(tasks, results):
        for seed, row in zip(seeds, outcomes):
            if isinstance(row, TrainingDiverged):
                raise row
            if not quiet:
                print(f"  mode={arm.mode} seed={seed} test_acc={row['final_test_accuracy']:.4f} "
                      f"({row['wall_clock_seconds']:.1f}s)")
            rows.append(row)
        if len(rows) == len(arm.seeds):
            summaries.append(_summary_dict(arm, rows))
            _write_json(arm.output_dir / "summary.json", summaries[-1])
            rows = []
    return summaries


def _write_json(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)


def _read_json(path, what: str, keys: tuple[str, ...]) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or bytes that are not UTF-8
            raise DataError(f"{path}: {what} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DataError(f"{path}: {what} must be a JSON object")
    for key in keys:
        if key not in data:
            raise DataError(f"{path}: {what} is missing {key!r}")
    return data


def read_summary(path) -> dict:
    return _read_json(path, "summary", ("config", "mode", "per_seed", "aggregate"))


def read_compare(path) -> dict:
    return _read_json(path, "comparison", ("config", "baseline_mode", "per_seed", "aggregate"))


def read_sweep_csv(path) -> list[tuple[int, int, int, float]]:
    return read_table(path, SWEEP_HEADER, (int, int, int, float))


# --------------------------------------------------------------------------
# Commands


def cmd_train(exp: ExperimentConfig, quiet: bool = False) -> int:
    dataset = build_dataset(exp)
    (q,) = _transition_steps(exp, dataset, sweep=False)
    (summary,) = _run_arms([_arm(exp, exp.mode, q, exp.output_dir)], dataset, quiet)
    if not quiet:
        agg = summary["aggregate"]["test_accuracy"]
        print(f"{exp.mode}: mean test accuracy {agg['mean']:.4f} (std {agg['stddev']:.4f}) "
              f"over {len(exp.seeds)} seed(s) -> {exp.output_dir / 'summary.json'}")
    return 0


def cmd_compare(exp: ExperimentConfig, baseline: str = "ste_standard", quiet: bool = False) -> int:
    if baseline not in ("ste_standard", "post_shot"):
        raise ConfigError(f"baseline must be ste_standard or post_shot, got {baseline!r}")
    dataset = build_dataset(exp)
    (q,) = _transition_steps(exp, dataset, sweep=False)
    base, vcon = _run_arms([_arm(exp, baseline, q, exp.output_dir / "baseline"),
                            _arm(exp, "vcon", q, exp.output_dir / "vcon")], dataset, quiet)
    per_seed = [{
        "seed": b["seed"],
        "baseline_test_accuracy": b["final_test_accuracy"],
        "vcon_test_accuracy": v["final_test_accuracy"],
        "delta": v["final_test_accuracy"] - b["final_test_accuracy"],
    } for b, v in zip(base["per_seed"], vcon["per_seed"])]
    delta = _aggregate([row["delta"] for row in per_seed])
    compare = {
        "config": exp.raw,
        "baseline_mode": baseline,
        "q_steps": q,
        "per_seed": per_seed,
        "aggregate": {
            "baseline_test_accuracy": base["aggregate"]["test_accuracy"],
            "vcon_test_accuracy": vcon["aggregate"]["test_accuracy"],
            "delta": delta,
            # accuracy-point delta in the conventional parenthesized form
            "formatted_delta": f"({100.0 * delta['mean']:+.2f})",
        },
    }
    _write_json(exp.output_dir / "compare.json", compare)
    if not quiet:
        print(f"vcon vs {baseline}: mean delta {compare['aggregate']['formatted_delta']} "
              f"accuracy points -> {exp.output_dir / 'compare.json'}")
    return 0


def cmd_sweep_q(exp: ExperimentConfig, quiet: bool = False) -> int:
    dataset = build_dataset(exp)
    q_list = _transition_steps(exp, dataset, sweep=True)
    arms = [_arm(exp, "vcon", q, exp.output_dir / f"q{q}") for q in q_list]
    _run_arms(arms, dataset, quiet)
    # the join of the arms' epoch logs, in Q, then seed, then epoch order
    rows = [(arm.q_steps, seed, *row) for arm in arms for seed in arm.seeds
            for row in read_table(_runlog_paths(arm.output_dir, seed)[1], EPOCH_HEADER, (int, float))]
    sweep_path = exp.output_dir / "sweep.csv"
    write_table(sweep_path, SWEEP_HEADER, rows)
    if not quiet:
        print(f"swept q over {q_list} ({len(rows)} rows) -> {sweep_path}")
    return 0


def inspect_data(path) -> dict:
    """Structured checkpoint report (what cmd_inspect prints)."""
    net, scheduler = load_network(path)
    report: dict = {"path": str(path), "blocks": [], "param_count": net.param_count()}
    report["scheduler"] = None if scheduler is None else {
        "q": scheduler.q, "t": scheduler.t, "beta": beta_at(scheduler.t, scheduler.q), "phase": scheduler.phase,
    }
    for i, (block, comp) in enumerate(zip(net.blocks, compressed_blocks(net))):
        entry = {"kind": "dense", "compression": "none", "out_dim": block.out_dim, "in_dim": block.in_dim,
                 "activation": comp.activation}
        if isinstance(comp, CompressedBlock):
            entry.update(kind="compressed", compression=spec_to_dict(comp.spec),
                         bit_footprint=comp.spec.bit_footprint(comp), **comp.spec.describe(comp))
        if isinstance(block, VconBlock):
            entry.update(kind="vcon", original_params=block.original.param_count())
        entry.update(index=i, param_count=block.param_count())
        report["blocks"].append(entry)
    return report


def cmd_inspect(path) -> int:
    report = inspect_data(path)
    print(f"network file: {report['path']}")
    sched = report["scheduler"]
    print("scheduler: none" if sched is None else
          f"scheduler: q={sched['q']} t={sched['t']} beta={sched['beta']:.6g} phase={sched['phase']}")
    for entry in report["blocks"]:
        n, m, comp = entry["out_dim"], entry["in_dim"], entry["compression"]
        family = "no compression" if comp == "none" else comp["kind"] + spec_from_dict(comp).render(entry, n, m)
        print(f"block {entry['index']}: {entry['kind']} {n}x{m} {entry['activation']}, {family}, "
              f"params {entry['param_count']}")
    print(f"total params: {report['param_count']}")
    return 0


# --------------------------------------------------------------------------
# Entry point


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vconlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--set", dest="assignments", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (dotted path, JSON value)")
        p.add_argument("--seed", type=int, default=None, help="replace the config seed list")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    train_cmd = sub.add_parser("train", help="train one mode over the config's seeds")
    add_common(train_cmd)
    train_cmd.add_argument("--mode", default=None, help="replace the config mode")
    compare = sub.add_parser("compare", help="run a baseline and vcon with shared seeds")
    add_common(compare)
    compare.add_argument("--baseline", default="ste_standard",
                         choices=("ste_standard", "post_shot"),
                         help="baseline mode to compare against")
    add_common(sub.add_parser("sweep-q", help="run vcon over a list of transition lengths"))
    inspect = sub.add_parser("inspect", help="describe a saved network file")
    inspect.add_argument("checkpoint", help="path to a .vcnet file")
    return parser


def main(argv=None) -> int:
    _keep_freed_arrays()
    _one_blas_thread()
    args = _parser().parse_args(argv)
    try:
        if args.command == "inspect":
            return cmd_inspect(args.checkpoint)
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args.assignments)
        if args.seed is not None:
            cfg["seeds"] = [args.seed]
        if args.command != "train":
            cfg["mode"] = "vcon"  # compare and sweep-q always run the blended arm
        elif args.mode is not None:
            cfg["mode"] = args.mode
        exp = validate_config(cfg)
        if args.command == "train":
            return cmd_train(exp, quiet=args.quiet)
        if args.command == "compare":
            return cmd_compare(exp, baseline=args.baseline, quiet=args.quiet)
        return cmd_sweep_q(exp, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CheckpointError, OSError, RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
