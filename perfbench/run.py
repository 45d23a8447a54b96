"""vconlab benchmark: three training workloads driven through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each repetition runs the workload's ``vconlab`` commands, every one in a
fresh process with BLAS/OpenMP pinned to one thread, then verifies the
files they wrote in another fresh process. Repetitions continue while the
next one fits in ``--seconds``. ``--trace 0`` prints the end-to-end metrics
(medians over repetitions; times in reference seconds, see clock.py);
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` (training runs) and
``metrics``. Any failed or unverified run makes the exit code 1; a checkout
without ``src/vconlab`` makes it 2 with no result line. See README.md here
for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 60
SETUP_SAMPLES = 5
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> (unit, better); the order here is the print order
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "test_acc_mean": ("fraction", "higher"),
    "ok_ratio": ("fraction", "higher"),
}
MODULES = ("cli", "training", "compression", "vcon", "model", "tensor", "checkpoint")
RUN_MODES = ("ste_standard", "post_shot", "vcon")
PER_LAYER = {
    "trace_overhead": "ratio",
    "cli.run_concurrency": "ratio",
    **{f"cli.run.{mode}.ms_per_step": "ms" for mode in RUN_MODES},
    "cli.outputs_s": "s",
    "training.loop_self_s": "s",
    "training.optimizer_s": "s",
    "training.optimizer_us_per_step": "us",
    "training.evaluate_s": "s",
    "training.useful_update_ratio": "ratio",
    "training.vcon.useful_update_ratio": "ratio",
    "training.vcon.useful_updates_per_run": "count",
    "training.vcon.updates_per_run": "count",
    "model.forward_s": "s",
    "model.dense_forward_s": "s",
    "model.dense_forward_calls": "count",
    "compression.refresh_s": "s",
    "compression.refresh_us_per_call": "us",
    "compression.branch_forward_s": "s",
    "compression.svd_s": "s",
    "compression.svd_calls": "count",
    "vcon.blend_forward_s": "s",
    "vcon.transition_share": "ratio",
    "tensor.backward_s": "s",
    "tensor.loss_s": "s",
    "tensor.graph_nodes_per_step": "count",
    "tensor.grad_bytes_per_step": "bytes",
    "checkpoint.save_s": "s",
    "checkpoint.save_bytes": "bytes",
    "checkpoint.load_s": "s",
    "checkpoint.load_bytes": "bytes",
    **{f"{module}.self_s": "s" for module in MODULES},
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program)."""


# --------------------------------------------------------------------------
# Workloads: each maps a seed to a list of CLI calls


def _spiral(samples_per_class: int) -> dict:
    # the dataset is the A7 one on every seed; seeds vary the training runs, whose
    # spread in accuracy is smaller than that of a changing dataset
    return {"kind": "spiral", "classes": 3, "samples_per_class": samples_per_class,
            "noise": 0.2, "seed": 0}


def _steps(samples_per_class: int, epochs: int, batch_size: int = 64) -> int:
    # the package splits 70/15/15 and runs ceil(n_train / batch) steps per epoch
    n_train = int(math.floor(0.70 * 3 * samples_per_class))
    return epochs * -(-n_train // batch_size)


def _call(argv: list[str], config: dict, runs: list[tuple[str, str, int]]) -> dict:
    """One CLI invocation; ``runs`` lists (subdir, mode, seed) of each training run."""
    total = _steps(config["dataset"]["samples_per_class"], config["epochs"])
    return {"argv": argv, "config": config, "runs": runs, "total_steps": total,
            "q_steps": config.get("q_steps", 0)}


def _base_config(sizes, compression, spc, epochs, seeds) -> dict:
    return {
        "model": {"layer_sizes": sizes, "activation": "relu"},
        "dataset": _spiral(spc),
        "compression": compression,
        "optimizer": {"kind": "adam", "lr": 1e-3},
        "epochs": epochs,
        "batch_size": 64,
        "seeds": seeds,
    }


def spiral_compare(rng: random.Random, smoke: bool) -> list[dict]:
    """The paper's A7 experiment: STE vs blend, 0.95 layer pruning, Q = run / 5."""
    sizes, spc, epochs = ([2, 16, 16, 3], 40, 5) if smoke else ([2, 64, 64, 3], 500, 60)
    seeds = rng.sample(range(1 << 30), 5)
    cfg = _base_config(sizes, {"kind": "prune_layer", "sparsity": 0.95}, spc, epochs, seeds)
    cfg["q_steps"] = _steps(spc, epochs) // 5
    runs = [(arm, mode, s) for s in seeds for arm, mode in (("baseline", "ste_standard"), ("vcon", "vcon"))]
    return [_call(["compare", "--baseline", "ste_standard"], cfg, runs)]


WIDE_FAMILIES = [
    {"kind": "prune_layer", "sparsity": 0.95},
    {"kind": "prune_global", "sparsity": 0.95},
    {"kind": "prune_nm", "keep": 2, "group": 4},
    {"kind": "prune_structured", "sparsity": 0.95},
    {"kind": "binary"},
]


def wide_transition(rng: random.Random, smoke: bool) -> list[dict]:
    """Width 256, one train call per family, Q = the whole run."""
    sizes, spc, epochs = ([2, 32, 32, 3], 40, 2) if smoke else ([2, 256, 256, 3], 500, 8)
    calls = []
    for family in WIDE_FAMILIES:
        seed = rng.randrange(1 << 30)
        cfg = _base_config(sizes, family, spc, epochs, [seed])
        cfg["mode"] = "vcon"
        cfg["q_steps"] = _steps(spc, epochs)
        calls.append(_call(["train"], cfg, [(".", "vcon", seed)]))
    return calls


def lowrank_post_shot(rng: random.Random, smoke: bool) -> list[dict]:
    """Rank-16 factorization against the post-shot baseline, Q = run / 2."""
    sizes, rank, spc, epochs = ([2, 16, 16, 3], 4, 40, 2) if smoke else ([2, 128, 128, 3], 16, 500, 12)
    seeds = rng.sample(range(1 << 30), 2)
    cfg = _base_config(sizes, {"kind": "low_rank", "rank": rank}, spc, epochs, seeds)
    cfg["q_steps"] = _steps(spc, epochs) // 2
    runs = [(arm, mode, s) for s in seeds for arm, mode in (("baseline", "post_shot"), ("vcon", "vcon"))]
    return [_call(["compare", "--baseline", "post_shot"], cfg, runs)]


WORKLOADS = {
    "spiral_compare": spiral_compare,
    "wide_transition": wide_transition,
    "lowrank_post_shot": lowrank_post_shot,
}


def make_calls(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"), smoke)


# --------------------------------------------------------------------------
# Child processes


def run_child(args: list, timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    env = {**os.environ, **CHILD_ENV}
    return subprocess.run([sys.executable, str(CHILD), *map(str, args)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def measure_setup(call: dict, work: Path, samples: int) -> tuple[list[float], dict]:
    """Fresh-process import + config validation + dataset build, ``samples`` times."""
    cfg_path = work / "setup_config.json"
    cfg_path.write_text(json.dumps({**call["config"], "output_dir": str(work / "unused")}))
    times, raw, info = [], [], {}
    for i in range(samples + 1):  # the first one warms the bytecode and file caches
        out = work / "setup_result.json"
        proc = run_child(["setup", cfg_path, out])
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed:\n{proc.stderr.strip()}")
        info = _read_json(out)
        if i:
            times.append(info.pop("setup_s"))
            raw.append(info.pop("setup_raw_s"))
    info["setup_raw_s"] = statistics.median(raw)
    return times, info


def write_configs(calls: list[dict], rep_dir: Path) -> list[Path]:
    paths = []
    for j, call in enumerate(calls):
        path = rep_dir / f"call{j}.json"
        path.write_text(json.dumps({**call["config"], "output_dir": str(rep_dir / f"call{j}")}))
        paths.append(path)
    return paths


def new_rep(traced: bool) -> dict:
    return {"traced": traced, "wall_s": 0.0, "wall_raw_s": 0.0, "wall_traced_s": 0.0, "maxrss_mb": 0.0,
           "spans": [], "failed_calls": set(), "messages": []}


def run_rep(calls: list[dict], rep_dir: Path, traced: bool, param_counts: dict) -> dict:
    """Run every CLI call of the workload once, then verify what they wrote."""
    rep_dir.mkdir()
    rep = new_rep(traced)
    for j, cfg_path in enumerate(write_configs(calls, rep_dir)):
        result, spans = rep_dir / f"call{j}.result.json", rep_dir / f"call{j}.spans.json"
        argv = [*calls[j]["argv"], "--config", cfg_path, "--quiet"]
        proc = run_child(["cli", result, spans if traced else "-", *argv])
        if proc.returncode != 0 or not result.exists() or _read_json(result)["rc"] != 0:
            rep["failed_calls"].add(j)
            rep["messages"].append(f"call {j} ({' '.join(calls[j]['argv'])}) exited "
                                   f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
            continue
        res = _read_json(result)
        rep["wall_s"] += res["wall_s"]
        rep["wall_raw_s"] += res["wall_raw_s"]
        rep["maxrss_mb"] = max(rep["maxrss_mb"], res["maxrss_mb"])
        if traced:
            rep["wall_traced_s"] += res["wall_traced_s"]
            rep["spans"].append(_read_json(spans))
    verify_rep(calls, rep_dir, rep, param_counts)
    return rep


def verify_rep(calls: list[dict], rep_dir: Path, rep: dict, param_counts: dict) -> None:
    """Check the files under ``rep_dir`` in a fresh process; fills ``rep["runs"]``.

    ``param_counts`` caches the expected compressed sizes between repetitions.
    """
    traced = rep["traced"]
    manifest = {"param_counts": param_counts, "calls": [
        {**call, "runs": [{"dir": str(rep_dir / f"call{j}" / sub), "mode": mode, "seed": seed}
                          for sub, mode, seed in call["runs"]]}
        for j, call in enumerate(calls)
    ]}
    manifest_path, result = rep_dir / "manifest.json", rep_dir / "verify.result.json"
    manifest_path.write_text(json.dumps(manifest))
    spans = rep_dir / "verify.spans.json"
    proc = run_child(["verify", manifest_path, result, spans if traced else "-"])
    if proc.returncode != 0:
        raise BenchError(f"verification child failed:\n{proc.stderr.strip()}")
    if traced:
        rep["spans"].append(_read_json(spans))
    verified = _read_json(result)
    param_counts.update(verified["param_counts"])
    facts = iter(verified["runs"])
    rep["runs"] = []
    for j, call in enumerate(calls):
        for sub, mode, seed in call["runs"]:
            fact = next(facts)
            if j in rep["failed_calls"]:
                fact["errors"] = [f"call {j} failed"]
            fact.update(call=j, mode=mode, seed=seed)
            rep["runs"].append(fact)


# --------------------------------------------------------------------------
# Metrics


def e2e_metrics(reps: list[dict], setup_times: list[float]) -> dict:
    def per_rep(fn):
        return statistics.median(fn(rep) for rep in reps)

    def steps(rep):
        return sum(run["steps"] for run in rep["runs"])

    def accs(rep):
        return [run["test_acc"] for run in rep["runs"] if "test_acc" in run]

    def ok(rep):
        return sum(not run["errors"] for run in rep["runs"]) / len(rep["runs"])

    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": per_rep(lambda r: r["wall_s"]),
        "steps_per_s": per_rep(lambda r: steps(r) / r["wall_s"] if r["wall_s"] else 0.0),
        "peak_rss_mb": per_rep(lambda r: r["maxrss_mb"]),
        "test_acc_mean": per_rep(lambda r: statistics.fmean(accs(r)) if accs(r) else 0.0),
        "ok_ratio": per_rep(ok),
    }


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(rep: dict, untraced_wall: float) -> dict:
    """Per-layer numbers of one traced repetition, derived from its spans."""
    total = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    by_mode = defaultdict(lambda: defaultdict(float))
    loop_self = 0.0
    for data in rep["spans"]:
        names, spans = data["names"], data["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        run_time = defaultdict(float)
        for i, (n, start, end, _, run) in enumerate(spans):
            name = names[n]
            total[name] += end - start
            calls[name] += 1
            own = end - start - covered[i]
            self_s[name.split(".")[0]] += own
            if name == "training.train":
                loop_self += own
            if name == "cli.run":
                run_time[run] += end - start
        for key, value in data["counts"].items():
            counts[key] += value
        for run_id, run in data["runs"].items():
            mode = by_mode[run["mode"]]
            mode["seconds"] += run_time[int(run_id)]
            for key in ("steps", "updates", "useful"):
                mode[key] += run[key]
            mode["runs"] += 1

    vcon_runs = [run for run in rep["runs"] if run["mode"] == "vcon"]
    vcon = by_mode["vcon"]
    backward_calls = calls["tensor.backward"]
    out = {
        "trace_overhead": _ratio(rep["wall_s"], untraced_wall),
        "cli.run_concurrency": _ratio(total["cli.run"], rep["wall_traced_s"]),
        **{f"cli.run.{m}.ms_per_step": _ratio(by_mode[m]["seconds"], by_mode[m]["steps"], 1e3)
           for m in RUN_MODES},
        "cli.outputs_s": total["cli.outputs"],
        "training.loop_self_s": loop_self,
        "training.optimizer_s": total["training.optimizer"],
        "training.optimizer_us_per_step": _ratio(total["training.optimizer"], calls["training.optimizer"], 1e6),
        "training.evaluate_s": total["training.evaluate"],
        "training.useful_update_ratio": _ratio(sum(m["useful"] for m in by_mode.values()),
                                               sum(m["updates"] for m in by_mode.values())),
        "training.vcon.useful_update_ratio": _ratio(vcon["useful"], vcon["updates"]),
        "training.vcon.useful_updates_per_run": _ratio(vcon["useful"], vcon["runs"]),
        "training.vcon.updates_per_run": _ratio(vcon["updates"], vcon["runs"]),
        "model.forward_s": total["model.forward"],
        "model.dense_forward_s": total["model.dense_forward"],
        "model.dense_forward_calls": calls["model.dense_forward"],
        "compression.refresh_s": total["compression.refresh"],
        "compression.refresh_us_per_call": _ratio(total["compression.refresh"], calls["compression.refresh"], 1e6),
        "compression.branch_forward_s": total["compression.forward"],
        "compression.svd_s": total["compression.svd"],
        "compression.svd_calls": calls["compression.svd"],
        "vcon.blend_forward_s": total["vcon.forward"],
        "vcon.transition_share": _ratio(sum(r["transition_steps"] for r in vcon_runs),
                                        sum(r["steps"] for r in vcon_runs)),
        "tensor.backward_s": total["tensor.backward"],
        "tensor.loss_s": total["tensor.loss"],
        "tensor.graph_nodes_per_step": _ratio(counts["graph_nodes"], backward_calls),
        "tensor.grad_bytes_per_step": _ratio(counts["grad_bytes"], backward_calls),
        "checkpoint.save_s": total["checkpoint.save"],
        "checkpoint.save_bytes": counts["save_bytes"],
        "checkpoint.load_s": total["checkpoint.load"],
        "checkpoint.load_bytes": counts["load_bytes"],
        **{f"{module}.self_s": self_s[module] for module in MODULES},
    }
    assert list(out) == list(PER_LAYER)
    return out


# --------------------------------------------------------------------------
# Cross-repetition checks


def check_repeats(reps: list[dict]) -> None:
    """Every repetition must reproduce the first one's accuracies and files."""
    first = reps[0]["runs"]
    for rep in reps[1:]:
        for ref, run in zip(first, rep["runs"]):
            if run["errors"] or ref["errors"]:
                continue
            if run.get("test_acc") != ref.get("test_acc"):
                run["errors"].append(f"test accuracy {run.get('test_acc')!r} differs from "
                                     f"the first repetition's {ref.get('test_acc')!r}")
            for name, digest in run["digests"].items():
                if ref["digests"].get(name) != digest:
                    run["errors"].append(f"{name} differs from the first repetition's bytes")


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    calls = make_calls(workload, seed, smoke)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_times, env = measure_setup(calls[0], work, 2 if smoke else SETUP_SAMPLES)
        env.update(nproc=os.cpu_count(), seed=seed, workload=workload, threads=CHILD_ENV)
        print("perfbench env " + json.dumps(env), flush=True)
        reps, param_counts = [], {}
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            # traced runs alternate untraced and traced repetitions, untraced first,
            # so the untraced ones measure the tracing overhead under the same drift
            rep = run_rep(calls, work / f"rep{len(reps)}", trace and len(reps) % 2 == 1, param_counts)
            shutil.rmtree(work / f"rep{len(reps)}")
            rep["seconds"] = time.perf_counter() - t0
            reps.append(rep)
            print(f"perfbench rep {len(reps) - 1}: traced={int(rep['traced'])} wall_s={rep['wall_s']:.4f} "
                  f"wall_raw_s={rep['wall_raw_s']:.4f} runs={len(rep['runs'])}", flush=True)
            done = time.perf_counter() - start
            if (not trace or len(reps) > 1) and done + rep["seconds"] > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_repeats(reps)
    runs = [run for rep in reps for run in rep["runs"]]
    failed = [run for run in runs if run["errors"]]
    messages = [msg for rep in reps for msg in rep["messages"]]
    messages += [f"{workload} call {r['call']} {r['mode']} seed {r['seed']}: {'; '.join(r['errors'])}"
                 for r in failed]
    if trace:
        untraced_wall = statistics.median(rep["wall_s"] for rep in reps if not rep["traced"])
        per_rep = [layer_metrics(rep, untraced_wall) for rep in reps if rep["traced"]]
        missing = sorted({m for rep in reps for data in rep["spans"] for m in data["missing"]})
        if missing:
            print(f"perfbench: wrap points not found, their metrics read 0: {missing}", flush=True)
        values = {name: statistics.median(m[name] for m in per_rep) for name in PER_LAYER}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = e2e_metrics(reps, setup_times)
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}
    return {"correct": not failed, "attempted": len(runs), "failed": len(failed),
            "metrics": metrics, "messages": messages}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configs, for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vconlab" / "__init__.py").is_file():
        print(f"perfbench: no vconlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for message in result.pop("messages"):
        print(f"perfbench failure: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
