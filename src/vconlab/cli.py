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
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_network, save_network
from .compression import (
    FAMILIES,
    CompressedBlock,
    CompressionSpec,
    bit_footprint,
    compress_network,
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
    train,
    write_runlog,
)
from .training import evaluate as _evaluate
from .vcon import BetaScheduler, VconBlock, beta_at, finalize, wrap_network


class ConfigError(ValueError):
    """Invalid or unknown configuration."""


# --------------------------------------------------------------------------
# Config schema

_SCHEMA = {
    "model": {"layer_sizes", "activation"},
    "dataset": {"kind", "classes", "samples_per_class", "noise", "seed", "path"},
    "compression": {"kind", *(f.name for cls in FAMILIES.values() for f in fields(cls))},
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


def _reject_unknown(section: dict, allowed: set, prefix: str) -> None:
    for key, value in section.items():
        if key not in allowed:
            raise ConfigError(f"unknown config key: {prefix}{key}")
        if key in _SCHEMA and isinstance(value, dict):
            _reject_unknown(value, _SCHEMA[key], f"{prefix}{key}.")


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
    except json.JSONDecodeError as exc:
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
    dataset: dict
    compression: CompressionSpec | None
    optimizer: OptimizerSpec
    mode: str
    q_epochs: object  # int or list for sweeps, or None
    q_steps: object
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


def _dataset_number(ds: dict, key: str, kind):
    # ds is merged over DEFAULT_CONFIG, so every key is present
    try:
        return kind(ds[key])
    except (TypeError, ValueError):
        raise ConfigError(f"dataset.{key} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {ds[key]!r}") from None


def _build_optimizer(section: dict) -> OptimizerSpec:
    sched_cfg = section.get("schedule", {"kind": "constant"})
    kind = sched_cfg.get("kind", "constant")
    if kind == "constant":
        schedule = Constant()
    elif kind == "cosine":
        try:
            schedule = Cosine(
                total_steps=sched_cfg.get("total_steps"),
                warmup_ratio=float(sched_cfg.get("warmup_ratio", 0.0)),
                warmup_start_lr=float(sched_cfg.get("warmup_start_lr", 0.0)),
            )
        except ValueError as exc:
            raise ConfigError(f"optimizer.schedule: {exc}") from None
    else:
        raise ConfigError(f"optimizer.schedule.kind must be 'constant' or 'cosine', got {kind!r}")
    try:
        return OptimizerSpec(
            kind=section.get("kind", "adam"),
            lr=float(section.get("lr", 1e-3)),
            beta1=float(section.get("beta1", 0.9)),
            beta2=float(section.get("beta2", 0.999)),
            eps=float(section.get("eps", 1e-8)),
            schedule=schedule,
        )
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from None


def validate_config(cfg: dict) -> ExperimentConfig:
    _reject_unknown(cfg, _TOP_KEYS, "")
    merged = _merge(DEFAULT_CONFIG, cfg)

    model = merged["model"]
    sizes = model.get("layer_sizes")
    _expect(isinstance(sizes, list) and len(sizes) >= 2 and all(isinstance(s, int) and s >= 1 for s in sizes),
            "model.layer_sizes must be a list of >= 2 positive integers")
    activation = model.get("activation", "relu")
    _expect(activation in ACTIVATIONS, f"model.activation must be one of {ACTIVATIONS}, got {activation!r}")

    ds = merged["dataset"]
    ds_kind = ds.get("kind")
    _expect(ds_kind in ("blobs", "spiral", "csv"), f"dataset.kind must be blobs, spiral, or csv, got {ds_kind!r}")
    if ds_kind == "csv":
        _expect(isinstance(ds.get("path"), str), "dataset.path is required for csv datasets")
    else:
        _expect(_dataset_number(ds, "classes", int) >= 2, "dataset.classes must be >= 2")
        _expect(_dataset_number(ds, "samples_per_class", int) >= 1, "dataset.samples_per_class must be >= 1")
        _expect(_dataset_number(ds, "noise", float) >= 0.0, "dataset.noise must be >= 0")
        _dataset_number(ds, "seed", int)

    try:
        spec = spec_from_dict(merged["compression"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"compression: {exc}") from None

    mode = merged["mode"]
    _expect(mode in ("dense", "ste_standard", "post_shot", "vcon"),
            f"mode must be dense, ste_standard, post_shot, or vcon, got {mode!r}")
    if mode != "dense":
        _expect(spec is not None, f"mode {mode!r} requires a compression section with kind != 'none'")

    q_epochs = merged.get("q_epochs")
    q_steps = merged.get("q_steps")
    _expect(not (q_epochs is not None and q_steps is not None),
            "give q_epochs or q_steps, not both")
    for name, q in (("q_epochs", q_epochs), ("q_steps", q_steps)):
        if q is None:
            continue
        if isinstance(q, list):
            _expect(all(isinstance(v, int) and v >= 0 for v in q), f"{name} entries must be integers >= 0")
        else:
            _expect(isinstance(q, int) and q >= 0, f"{name} must be an integer >= 0 or a list of them")

    epochs = merged["epochs"]
    batch = merged["batch_size"]
    _expect(isinstance(epochs, int) and epochs >= 1, "epochs must be an integer >= 1")
    _expect(isinstance(batch, int) and batch >= 1, "batch_size must be an integer >= 1")
    seeds = merged["seeds"]
    _expect(isinstance(seeds, list) and seeds and all(isinstance(s, int) for s in seeds),
            "seeds must be a non-empty list of integers")

    return ExperimentConfig(
        layer_sizes=list(sizes),
        activation=activation,
        dataset=ds,
        compression=spec,
        optimizer=_build_optimizer(merged["optimizer"]),
        mode=mode,
        q_epochs=q_epochs,
        q_steps=q_steps,
        epochs=epochs,
        batch_size=batch,
        seeds=list(seeds),
        output_dir=Path(merged["output_dir"]),
        freeze_original=bool(merged["freeze_original"]),
        freeze_mask=bool(merged["freeze_mask"]),
        eval_compressed_only=bool(merged["eval_compressed_only"]),
        raw=merged,
    )


# --------------------------------------------------------------------------
# Shared run machinery


def build_dataset(exp: ExperimentConfig) -> Dataset:
    ds = exp.dataset
    if ds["kind"] == "csv":
        return load_csv(ds["path"])
    return make_synthetic(
        ds["kind"],
        classes=_dataset_number(ds, "classes", int),
        samples_per_class=_dataset_number(ds, "samples_per_class", int),
        noise=_dataset_number(ds, "noise", float),
        seed=_dataset_number(ds, "seed", int),
    )


def _resolve_q(exp: ExperimentConfig, dataset: Dataset) -> int:
    q_epochs = exp.q_epochs
    q_steps = exp.q_steps
    if isinstance(q_steps, list) or isinstance(q_epochs, list):
        raise ConfigError("train/compare need a scalar q_epochs or q_steps (lists are for sweep-q)")
    if q_steps is not None:
        return int(q_steps)
    if q_epochs is not None:
        n_train = len(dataset.split("train")[1])
        return q_steps_from_epochs(int(q_epochs), n_train, exp.batch_size)
    if exp.mode in ("vcon", "post_shot"):
        raise ConfigError(f"mode {exp.mode!r} needs q_epochs or q_steps")
    return 0


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


def run_single(exp: ExperimentConfig, dataset: Dataset, seed: int, mode: str, q_steps: int,
               quiet: bool = True) -> SeedResult:
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
        mode=mode,
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
    if not quiet:
        print(f"  mode={mode} seed={seed} test_acc={test_acc:.4f} ({elapsed:.1f}s)")
    best_val = max((acc for _, acc in log.epochs if not math.isnan(acc)), default=float("nan"))
    return SeedResult(
        seed=seed,
        final_test_accuracy=test_acc,
        best_val_accuracy=best_val,
        param_count_dense=dense_count,
        param_count_compressed=compressed_count,
        wall_clock_seconds=elapsed,
        log=log,
        net=net,
        scheduler=scheduler,
    )


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


def _summary_dict(exp: ExperimentConfig, mode: str, results: list[SeedResult]) -> dict:
    return {
        "config": exp.raw,
        "mode": mode,
        "per_seed": [
            {
                "seed": r.seed,
                "final_test_accuracy": r.final_test_accuracy,
                "best_val_accuracy": r.best_val_accuracy,
                "param_count_dense": r.param_count_dense,
                "param_count_compressed": r.param_count_compressed,
                "wall_clock_seconds": r.wall_clock_seconds,
            }
            for r in results
        ],
        "aggregate": {
            "test_accuracy": _aggregate([r.final_test_accuracy for r in results]),
            "best_val_accuracy": _aggregate([r.best_val_accuracy for r in results]),
        },
    }


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
    q_steps = _resolve_q(exp, dataset)
    results = []
    for seed in exp.seeds:
        result = run_single(exp, dataset, seed, exp.mode, q_steps, quiet=quiet)
        _write_seed_outputs(exp.output_dir, result)
        results.append(result)
    summary = _summary_dict(exp, exp.mode, results)
    _write_json(exp.output_dir / "summary.json", summary)
    if not quiet:
        agg = summary["aggregate"]["test_accuracy"]
        print(f"{exp.mode}: mean test accuracy {agg['mean']:.4f} (std {agg['stddev']:.4f}) "
              f"over {len(exp.seeds)} seed(s) -> {exp.output_dir / 'summary.json'}")
    return 0


def cmd_compare(exp: ExperimentConfig, baseline: str = "ste_standard", quiet: bool = False) -> int:
    if baseline not in ("ste_standard", "post_shot"):
        raise ConfigError(f"baseline must be ste_standard or post_shot, got {baseline!r}")
    dataset = build_dataset(exp)
    q_steps = _resolve_q(exp, dataset)
    base_results, vcon_results = [], []
    for seed in exp.seeds:
        base_results.append(run_single(exp, dataset, seed, baseline, q_steps, quiet=quiet))
        vcon_results.append(run_single(exp, dataset, seed, "vcon", q_steps, quiet=quiet))
    base_dir = exp.output_dir / "baseline"
    vcon_dir = exp.output_dir / "vcon"
    for r in base_results:
        _write_seed_outputs(base_dir, r)
    for r in vcon_results:
        _write_seed_outputs(vcon_dir, r)
    _write_json(base_dir / "summary.json", _summary_dict(exp, baseline, base_results))
    _write_json(vcon_dir / "summary.json", _summary_dict(exp, "vcon", vcon_results))

    per_seed = [{
        "seed": b.seed,
        "baseline_test_accuracy": b.final_test_accuracy,
        "vcon_test_accuracy": v.final_test_accuracy,
        "delta": v.final_test_accuracy - b.final_test_accuracy,
    } for b, v in zip(base_results, vcon_results)]
    deltas = [row["delta"] for row in per_seed]
    mean_delta = float(np.mean(deltas))
    compare = {
        "config": exp.raw,
        "baseline_mode": baseline,
        "q_steps": q_steps,
        "per_seed": per_seed,
        "aggregate": {
            "baseline_test_accuracy": _aggregate([r.final_test_accuracy for r in base_results]),
            "vcon_test_accuracy": _aggregate([r.final_test_accuracy for r in vcon_results]),
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
    n_train = len(dataset.split("train")[1])
    if isinstance(exp.q_steps, list):
        q_list = [int(q) for q in exp.q_steps]
    elif isinstance(exp.q_epochs, list):
        q_list = [q_steps_from_epochs(int(q), n_train, exp.batch_size) for q in exp.q_epochs]
    else:
        raise ConfigError("sweep-q needs q_epochs or q_steps as a list of at least 2 values")
    if len(q_list) < 2:
        raise ConfigError("sweep-q needs at least 2 q values")
    rows = []
    for q in q_list:
        q_dir = exp.output_dir / f"q{q}"
        for seed in exp.seeds:
            result = run_single(exp, dataset, seed, "vcon", q, quiet=quiet)
            _write_seed_outputs(q_dir, result)
            rows.extend((q, seed, epoch, acc) for epoch, acc in result.log.epochs)
    exp.output_dir.mkdir(parents=True, exist_ok=True)
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
