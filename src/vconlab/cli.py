"""Experiment runner: train / compare / sweep-q / inspect.

Configs are one JSON file with nested sections; any leaf can be
overridden from the command line with --set dotted.key=value. Exit codes:
0 success, 1 runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_network, save_network
from .compression import (
    CompressedBlock,
    CompressionSpec,
    ConfigError,
    bit_footprint,
    compress_network,
    config_fields,
    config_value,
    spec_from_dict,
    spec_to_dict,
)
from .model import ACTIVATIONS, Network, init_params
from .training import (
    Constant,
    Cosine,
    Dataset,
    OptimizerSpec,
    RunLog,
    TrainConfig,
    load_csv,
    make_synthetic,
    q_steps_from_epochs,
    steps_per_epoch,
    train,
    write_runlog,
)
from .training import evaluate as _evaluate
from .vcon import BetaScheduler, VconBlock, beta_at, finalize, wrap_network


# --------------------------------------------------------------------------
# Config schema

_SCHEMA = {
    "model": {"layer_sizes", "activation"},
    "dataset": {"kind", "classes", "samples_per_class", "noise", "seed", "path"},
    "optimizer": {"kind", "lr", "beta1", "beta2", "eps", "schedule"},
    "schedule": {"kind", "warmup_ratio", "warmup_start_lr", "total_steps"},
}
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
_SCHEDULES = {"constant": Constant, "cosine": Cosine}
_FLAGS = ("freeze_original", "freeze_mask", "eval_compressed_only")
MODES = ("dense", "ste_standard", "post_shot", "vcon")


def _reject_unknown(section: dict, allowed: set, prefix: str) -> None:
    for key, value in section.items():
        if key not in allowed:
            raise ConfigError(f"unknown config key: {prefix}{key}")
        if key in _SCHEMA:
            _reject_unknown(config_value(value, dict, prefix + key), _SCHEMA[key], f"{prefix}{key}.")


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


def _read_q(merged: dict, key: str) -> int | list[int] | None:
    q = merged.get(key)
    if q is not None:
        values = _int_list(q, key) if isinstance(q, list) else [config_value(q, int, key)]
        _expect(all(v >= 0 for v in values), f"{key} must be an integer >= 0 or a list of them")
    return q


def _read_dataset(ds: dict) -> dict:
    kind = config_value(ds["kind"], str, "dataset.kind")
    _expect(kind in ("blobs", "spiral", "csv"), f"dataset.kind must be blobs, spiral, or csv, got {kind!r}")
    if kind == "csv":
        _expect("path" in ds, "dataset.path is required for csv datasets")
        return {"kind": kind, "path": config_value(ds["path"], str, "dataset.path")}
    out = {"kind": kind, **{key: config_value(ds[key], t, f"dataset.{key}") for key, t in _SYNTHETIC_NUMBERS.items()}}
    _expect(out["classes"] >= 2, "dataset.classes must be >= 2")
    _expect(out["samples_per_class"] >= 1, "dataset.samples_per_class must be >= 1")
    _expect(out["noise"] >= 0.0, "dataset.noise must be >= 0")
    return out


def _read_optimizer(section: dict) -> OptimizerSpec:
    sched = section["schedule"]
    kind = config_value(sched["kind"], str, "optimizer.schedule.kind")
    _expect(kind in _SCHEDULES, f"optimizer.schedule.kind must be 'constant' or 'cosine', got {kind!r}")
    schedule = config_fields(_SCHEDULES[kind], sched, "optimizer.schedule.")
    return config_fields(OptimizerSpec, section, "optimizer.", schedule=schedule)


def validate_config(cfg: dict) -> ExperimentConfig:
    """Check ``cfg`` merged over ``DEFAULT_CONFIG``: every section must be an
    object and every value must already have its JSON type (``config_value``)."""
    _reject_unknown(cfg, _TOP_KEYS, "")
    merged = _merge(DEFAULT_CONFIG, cfg)

    model = merged["model"]
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


def _transition_steps(exp: ExperimentConfig, dataset: Dataset, sweep: bool, post_shot: bool = False) -> list[int]:
    """The config's transition lengths in optimizer steps: one for train and
    compare, at least two for sweep-q; q_epochs count whole epochs of steps.
    A post_shot run must switch to its compressed net before its last step."""
    q = exp.q_steps if exp.q_epochs is None else exp.q_epochs
    if sweep:
        _expect(isinstance(q, list) and len(q) >= 2,
                "sweep-q needs q_epochs or q_steps as a list of at least 2 values")
    else:
        _expect(not isinstance(q, list), "train/compare need a scalar q_epochs or q_steps (lists are for sweep-q)")
        _expect(q is not None or exp.mode not in ("vcon", "post_shot"), f"mode {exp.mode!r} needs q_epochs or q_steps")
        q = [q or 0]
    n_train = len(dataset.split("train")[1])
    if exp.q_epochs is not None:
        q = [q_steps_from_epochs(v, n_train, exp.batch_size) for v in q]
    if post_shot:
        run = exp.epochs * steps_per_epoch(n_train, exp.batch_size)
        key = "q_steps" if exp.q_epochs is None else "q_epochs"
        _expect(q[0] < run, f"{key} must end post_shot's dense phase before the run ends: it would "
                f"switch at step {q[0]} of a {run}-step run, so the run would never compress")
    return q


@dataclass
class SeedResult:
    seed: int
    final_test_accuracy: float
    best_val_accuracy: float
    param_count_dense: int
    param_count_compressed: int
    wall_clock_seconds: float
    log: RunLog
    net: Network
    scheduler: BetaScheduler | None


def run_single(exp: ExperimentConfig, dataset: Dataset, seed: int, mode: str, q_steps: int) -> SeedResult:
    start = time.perf_counter()
    net = init_params(exp.layer_sizes, seed, exp.activation)
    dense_count = net.param_count()
    scheduler = None
    if mode == "ste_standard":
        net = compress_network(net, exp.compression)
    elif mode == "vcon":
        scheduler = BetaScheduler(q=q_steps)
        net = wrap_network(net, exp.compression, scheduler, train_original=not exp.freeze_original)
    cfg = TrainConfig(
        epochs=exp.epochs,
        batch_size=exp.batch_size,
        seed=seed,
        optimizer=exp.optimizer,
        q_steps=q_steps,
        post_shot_spec=exp.compression if mode == "post_shot" else None,
        freeze_mask=exp.freeze_mask,
        eval_compressed_only=exp.eval_compressed_only,
    )
    net, log = train(net, dataset, cfg)
    x_test, y_test = dataset.split("test")
    test_acc = _evaluate(net, x_test, y_test, compressed_only=exp.eval_compressed_only)
    compressed_count = _compressed_param_count(net)
    elapsed = time.perf_counter() - start
    best_val = max((acc for _, acc in log.epochs if not math.isnan(acc)), default=float("nan"))
    return SeedResult(seed, test_acc, best_val, dense_count, compressed_count, elapsed, log, net, scheduler)


def _compressed_param_count(net: Network) -> int:
    # count the structure that remains once originals are dropped
    return sum(getattr(block, "branch", block).param_count() for block in net.blocks)


def _write_seed_outputs(out_dir: Path, result: SeedResult) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_runlog(result.log,
                 out_dir / f"runlog_steps_seed{result.seed}.csv",
                 out_dir / f"runlog_epochs_seed{result.seed}.csv")
    save_network(result.net, out_dir / f"checkpoint_seed{result.seed}.vcnet", result.scheduler)
    if result.scheduler is not None and result.scheduler.t >= result.scheduler.q:
        save_network(finalize(result.net), out_dir / f"finalized_seed{result.seed}.vcnet")


def _aggregate(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {"mean": float(arr.mean()), "stddev": float(arr.std())}


def _summary_dict(exp: ExperimentConfig, mode: str, rows: list[dict]) -> dict:
    return {
        "config": exp.raw,
        "mode": mode,
        "per_seed": rows,
        "aggregate": {
            "test_accuracy": _aggregate([r["final_test_accuracy"] for r in rows]),
            "best_val_accuracy": _aggregate([r["best_val_accuracy"] for r in rows]),
        },
    }


_ROW_FIELDS = ("seed", "final_test_accuracy", "best_val_accuracy", "param_count_dense",
               "param_count_compressed", "wall_clock_seconds")


@dataclass
class _Arm:
    """One output directory of runs: a mode and a transition length, run on every seed."""

    out_dir: Path
    mode: str
    q: int
    val_accuracy: list[tuple[int, int, float]] = field(default_factory=list)  # seed, epoch, accuracy
    summary: dict = field(default_factory=dict)


def _run_task(exp: ExperimentConfig, dataset: Dataset, out_dir: Path, mode: str, q: int,
              seed: int) -> tuple[dict, list[tuple[int, float]]]:
    """One run, in whichever process it was given to: train, write its files,
    and return only its summary row and its validation curve."""
    result = run_single(exp, dataset, seed, mode, q)
    _write_seed_outputs(out_dir, result)
    return {name: getattr(result, name) for name in _ROW_FIELDS}, result.log.epochs


def _worker_count(tasks: int) -> int:
    """Processes to run ``tasks`` runs in: one per CPU this process may use, at
    most one per task, and 1 (the calling process itself) where fork is missing."""
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
    """Worker start-up: keep a loaded OpenBLAS to one thread. The workers already
    fill the CPUs; BLAS threads on top of them outnumber the cores and spin, which
    made pooled runs slower than one process. Without /proc, nothing changes."""
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


def _run_arms(exp: ExperimentConfig, dataset: Dataset, arms: list[_Arm], quiet: bool) -> list[_Arm]:
    """Run each arm on every seed. The runs are independent tasks; with several
    tasks and CPUs they are spread over forked worker processes. Each run writes
    its own files as soon as it ends. Results are taken in task order (arm by
    arm, seed by seed), so progress lines, each arm's summary.json (written after
    its last seed) and the first failure do not depend on the worker count."""
    tasks = [(arm, seed) for arm in arms for seed in exp.seeds]
    jobs = [(exp, dataset, arm.out_dir, arm.mode, arm.q, seed) for arm, seed in tasks]
    workers = _worker_count(len(tasks))
    if workers == 1:
        _collect(exp, tasks, (_run_task(*job) for job in jobs), quiet)
        return arms
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"), initializer=_one_blas_thread)
    try:
        futures = [pool.submit(_run_task, *job) for job in jobs]
        _collect(exp, tasks, (future.result() for future in futures), quiet)
    finally:
        # after a failure, runs not yet started are dropped and running ones finish
        pool.shutdown(cancel_futures=True)
    return arms


def _collect(exp: ExperimentConfig, tasks: list[tuple[_Arm, int]], results, quiet: bool) -> None:
    """Take each task's (row, validation curve) in task order; write an arm's
    summary.json once its last seed is in."""
    rows = []
    for (arm, seed), (row, curve) in zip(tasks, results):
        if not quiet:
            print(f"  mode={arm.mode} seed={seed} test_acc={row['final_test_accuracy']:.4f} "
                  f"({row['wall_clock_seconds']:.1f}s)")
        arm.val_accuracy.extend((seed, epoch, acc) for epoch, acc in curve)
        rows.append(row)
        if len(rows) == len(exp.seeds):
            arm.summary = _summary_dict(exp, arm.mode, rows)
            _write_json(arm.out_dir / "summary.json", arm.summary)
            rows = []


def _write_json(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)


def _read_json(path, what: str, keys: tuple[str, ...]) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    for key in keys:
        if key not in data:
            raise ConfigError(f"{path}: {what} is missing {key!r}")
    return data


def read_summary(path) -> dict:
    return _read_json(path, "summary", ("config", "mode", "per_seed", "aggregate"))


def read_compare(path) -> dict:
    return _read_json(path, "comparison", ("config", "baseline_mode", "per_seed", "aggregate"))


def read_sweep_csv(path) -> list[tuple[int, int, int, float]]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["q", "seed", "epoch", "val_accuracy"]:
            raise ConfigError(f"{path}: unexpected sweep header {header}")
        for row in reader:
            rows.append((int(row[0]), int(row[1]), int(row[2]), float(row[3])))
    return rows


# --------------------------------------------------------------------------
# Commands


def cmd_train(exp: ExperimentConfig, quiet: bool = False) -> int:
    dataset = build_dataset(exp)
    (q,) = _transition_steps(exp, dataset, sweep=False, post_shot=exp.mode == "post_shot")
    (arm,) = _run_arms(exp, dataset, [_Arm(exp.output_dir, exp.mode, q)], quiet)
    if not quiet:
        agg = arm.summary["aggregate"]["test_accuracy"]
        print(f"{exp.mode}: mean test accuracy {agg['mean']:.4f} (std {agg['stddev']:.4f}) "
              f"over {len(exp.seeds)} seed(s) -> {exp.output_dir / 'summary.json'}")
    return 0


def cmd_compare(exp: ExperimentConfig, baseline: str = "ste_standard", quiet: bool = False) -> int:
    if baseline not in ("ste_standard", "post_shot"):
        raise ConfigError(f"baseline must be ste_standard or post_shot, got {baseline!r}")
    dataset = build_dataset(exp)
    (q,) = _transition_steps(exp, dataset, sweep=False, post_shot=baseline == "post_shot")
    base, vcon = _run_arms(exp, dataset, [_Arm(exp.output_dir / "baseline", baseline, q),
                                          _Arm(exp.output_dir / "vcon", "vcon", q)], quiet)
    per_seed = [{
        "seed": b["seed"],
        "baseline_test_accuracy": b["final_test_accuracy"],
        "vcon_test_accuracy": v["final_test_accuracy"],
        "delta": v["final_test_accuracy"] - b["final_test_accuracy"],
    } for b, v in zip(base.summary["per_seed"], vcon.summary["per_seed"])]
    deltas = [row["delta"] for row in per_seed]
    mean_delta = float(np.mean(deltas))
    compare = {
        "config": exp.raw,
        "baseline_mode": baseline,
        "q_steps": q,
        "per_seed": per_seed,
        "aggregate": {
            "baseline_test_accuracy": base.summary["aggregate"]["test_accuracy"],
            "vcon_test_accuracy": vcon.summary["aggregate"]["test_accuracy"],
            "delta": _aggregate(deltas),
            # accuracy-point delta in the conventional parenthesized form
            "formatted_delta": f"({100.0 * mean_delta:+.2f})",
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
    arms = _run_arms(exp, dataset, [_Arm(exp.output_dir / f"q{q}", "vcon", q) for q in q_list], quiet)
    rows = [(arm.q, *row) for arm in arms for row in arm.val_accuracy]
    sweep_path = exp.output_dir / "sweep.csv"
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "seed", "epoch", "val_accuracy"])
        for q, seed, epoch, acc in rows:
            writer.writerow([q, seed, epoch, repr(acc)])
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
    for i, block in enumerate(net.blocks):
        comp = getattr(block, "branch", block)
        entry = {"kind": "dense", "compression": "none", "out_dim": block.out_dim, "in_dim": block.in_dim,
                 "activation": comp.activation}
        if isinstance(comp, CompressedBlock):
            entry.update(kind="compressed", compression=spec_to_dict(comp.spec),
                         bit_footprint=bit_footprint(comp.spec, comp.out_dim, comp.in_dim), **comp.spec.describe(comp))
        if isinstance(block, VconBlock):
            entry.update(kind="vcon", original_params=block.original.param_count())
        entry.update(index=i, param_count=block.param_count())
        report["blocks"].append(entry)
    return report


def cmd_inspect(path) -> int:
    report = inspect_data(path)
    print(f"network file: {report['path']}")
    sched = report["scheduler"]
    if sched is None:
        print("scheduler: none")
    else:
        print(f"scheduler: q={sched['q']} t={sched['t']} beta={sched['beta']:.6g} phase={sched['phase']}")
    for entry in report["blocks"]:
        desc = f"block {entry['index']}: {entry['kind']} {entry['out_dim']}x{entry['in_dim']} {entry['activation']}"
        comp = entry["compression"]
        if comp == "none":
            desc += ", no compression"
        else:
            desc += f", {comp['kind']}"
            if "density" in entry:
                desc += f", density {entry['kept_weights']}/{entry['out_dim'] * entry['in_dim']} ({entry['density']:.4f})"
            if "alpha" in entry:
                desc += f", alpha {entry['alpha']:.6g}"
            if "rank" in entry:
                desc += f", rank {entry['rank']}"
        desc += f", params {entry['param_count']}"
        print(desc)
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
        p.add_argument("--mode", default=None, help="replace the config mode")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    add_common(sub.add_parser("train", help="train one mode over the config's seeds"))
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
    args = _parser().parse_args(argv)
    try:
        if args.command == "inspect":
            return cmd_inspect(args.checkpoint)
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args.assignments)
        if args.seed is not None:
            cfg["seeds"] = [args.seed]
        if args.mode is not None:
            cfg["mode"] = args.mode
        if args.command in ("compare", "sweep-q"):
            cfg["mode"] = "vcon"  # these commands always run the blended arm
        exp = validate_config(cfg)
        if args.command == "train":
            return cmd_train(exp, quiet=args.quiet)
        if args.command == "compare":
            return cmd_compare(exp, baseline=args.baseline, quiet=args.quiet)
        if args.command == "sweep-q":
            return cmd_sweep_q(exp, quiet=args.quiet)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CheckpointError, OSError, RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
