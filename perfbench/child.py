"""One fresh process of the benchmark: set-up sample, CLI call or verification.

    child.py setup  <config.json> <result.json>
    child.py cli    <result.json> <spans.json|-> <vconlab argv...>
    child.py verify <manifest.json> <result.json> <spans.json|->

The package is imported from ``src/`` of the checkout this file sits in;
a vconlab found anywhere else is refused. Results go to <result.json>;
with a spans path other than ``-`` the process is traced and its spans are
written there when it ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 8


def _import_vconlab():
    sys.path.insert(0, str(SRC))
    import vconlab
    import vconlab.cli

    if Path(vconlab.__file__).resolve().parent != SRC / "vconlab":
        raise SystemExit(f"vconlab imported from {vconlab.__file__}, not from {SRC}")
    return vconlab


def _tracer(spans_path: str, vconlab, only=None):
    if spans_path == "-":
        return None
    from tracing import Tracer

    tracer = Tracer()
    tracer.instrument(vconlab, only)
    return tracer


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write(path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh)


def cmd_setup(config_path: str, result_path: str) -> None:
    """Time what a user pays before the first command runs."""
    t0 = time.perf_counter()
    vconlab = _import_vconlab()
    from vconlab import cli

    exp = cli.validate_config(cli.load_config(config_path))
    cli.build_dataset(exp)
    setup_s = time.perf_counter() - t0

    import clock
    import numpy as np

    speed = clock.speed([clock.probe() for _ in range(SETUP_PROBES)])

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    _write(result_path, {
        "setup_s": setup_s * speed,
        "setup_raw_s": setup_s,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "vconlab": vconlab.__version__,
    })


def cmd_cli(result_path: str, spans_path: str, argv: list[str]) -> None:
    vconlab = _import_vconlab()
    tracer = _tracer(spans_path, vconlab)
    from vconlab import cli

    import clock

    # probe time goes on the tracer's paused clock too, so it never inflates a span
    sampler = clock.Sampler(on_pause=None if tracer is None else tracer.pause)
    paused0 = tracer.paused if tracer else 0.0
    t0 = time.perf_counter()
    sampler.start()
    try:
        rc = cli.main(argv)
    finally:
        sampler.stop()
    wall = time.perf_counter() - t0 - sampler.paused
    speed = clock.speed(sampler.samples)
    result = {"rc": rc, "wall_s": wall * speed, "wall_raw_s": wall, "speed": speed,
              "maxrss_mb": _maxrss_mb()}
    if tracer is not None:
        counting = tracer.paused - paused0 - sampler.paused
        result["wall_traced_s"] = wall - counting  # raw, like the spans it is compared with
        tracer.write(spans_path)
    _write(result_path, result)


# --------------------------------------------------------------------------
# Verification


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _expected_beta(mode: str, step: int, q: int, beta_at) -> float:
    if mode == "vcon":
        return beta_at(step, q)
    if mode == "ste_standard":
        return 0.0
    if mode == "post_shot":
        return 1.0 if step < q else 0.0
    return 1.0


def _verify_run(vconlab, call: dict, run: dict, scratch: Path, counts: dict) -> dict:
    """Check one (arm, seed) run's files; returns errors and the facts kept."""
    from vconlab import checkpoint, cli, vcon

    errors: list[str] = []
    arm_dir = Path(run["dir"])
    seed, mode, q = run["seed"], run["mode"], call["q_steps"]
    out = {"errors": errors, "steps": 0, "transition_steps": 0, "digests": {}}

    summary = json.loads((arm_dir / "summary.json").read_text())
    rows = [r for r in summary["per_seed"] if r["seed"] == seed]
    if len(rows) != 1 or summary["mode"] != mode:
        errors.append(f"summary.json has no single {mode} entry for seed {seed}")
        return out
    acc = rows[0]["final_test_accuracy"]
    out["test_acc"] = acc
    if not (isinstance(acc, float) and math.isfinite(acc)):
        errors.append(f"test accuracy {acc!r} is not finite")

    lines = (arm_dir / f"runlog_steps_seed{seed}.csv").read_text().splitlines()
    if lines[0] != "step,beta,lr,train_loss":
        errors.append(f"unexpected step-log header {lines[0]!r}")
    body = [line.split(",") for line in lines[1:]]
    out["steps"] = len(body)
    if len(body) != call["total_steps"]:
        errors.append(f"{len(body)} logged steps, expected {call['total_steps']}")
    for i, row in enumerate(body):
        beta = float(row[1])
        if int(row[0]) != i or beta != _expected_beta(mode, i, q, vcon.beta_at):
            errors.append(f"step-log row {i} reads step {row[0]} beta {row[1]}")
            break
        out["transition_steps"] += beta > 0.0

    # the spec on a fresh network fixes the compressed size (no family's count
    # depends on the weights); counts carry over between repetitions
    key = json.dumps([call["config"]["model"], call["config"]["compression"]])
    if key not in counts:
        exp = cli.validate_config(call["config"])
        fresh = cli.init_params(exp.layer_sizes, 0, exp.activation)
        counts[key] = cli.compress_network(fresh, exp.compression).param_count()
    expected_count = counts[key]
    if rows[0]["param_count_compressed"] != expected_count:
        errors.append(f"summary param_count_compressed {rows[0]['param_count_compressed']} != {expected_count}")

    x_test, y_test = call["_dataset"].split("test")
    names = [f"checkpoint_seed{seed}.vcnet"] + ([f"finalized_seed{seed}.vcnet"] if mode == "vcon" else [])
    for name in names:
        path = arm_dir / name
        if not path.exists():
            errors.append(f"{name} was not written")
            continue
        out["digests"][name] = _sha256(path)
        try:
            net, scheduler = checkpoint.load_network(path)
        except vconlab.CheckpointError as exc:
            errors.append(f"{name}: {exc}")
            continue
        copy = scratch / "resave.vcnet"
        checkpoint.save_network(net, copy, scheduler)
        if copy.read_bytes() != path.read_bytes():
            errors.append(f"{name} does not save back to identical bytes")
        if cli._evaluate(net, x_test, y_test) != acc:
            errors.append(f"{name} does not reproduce the reported test accuracy {acc!r}")
        if name.startswith("finalized") or mode != "vcon":
            if net.param_count() != expected_count:
                errors.append(f"{name} param_count {net.param_count()} != fresh compression {expected_count}")
        elif scheduler.t >= scheduler.q:
            checkpoint.save_network(vcon.finalize(net), copy)
            if copy.read_bytes() != (arm_dir / f"finalized_seed{seed}.vcnet").read_bytes():
                errors.append(f"finalize({name}) differs from the finalized file")
    return out


def cmd_verify(manifest_path: str, result_path: str, spans_path: str) -> None:
    vconlab = _import_vconlab()
    # only checkpoint reads are measured here; the rest is the benchmark's own work
    tracer = _tracer(spans_path, vconlab, only={"checkpoint.load"})
    from vconlab import cli

    manifest = json.loads(Path(manifest_path).read_text())
    scratch = Path(manifest_path).parent
    counts = manifest["param_counts"]
    results = []
    for call in manifest["calls"]:
        call["_dataset"] = cli.build_dataset(cli.validate_config(call["config"]))
        for run in call["runs"]:
            try:
                results.append(_verify_run(vconlab, call, run, scratch, counts))
            except Exception:  # any crash on the program's files fails this run, not the check
                error = traceback.format_exc(limit=-3).strip()
                results.append({"errors": [error], "steps": 0, "transition_steps": 0, "digests": {}})
    if tracer is not None:
        tracer.write(spans_path)
    _write(result_path, {"runs": results, "param_counts": counts})


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    if command == "setup":
        cmd_setup(*rest)
    elif command == "cli":
        cmd_cli(rest[0], rest[1], rest[2:])
    elif command == "verify":
        cmd_verify(*rest)
    else:
        raise SystemExit(f"unknown child command {command!r}")
