import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from vconlab import cli, training
from vconlab.checkpoint import load_network, save_network
from vconlab.cli import (
    ConfigError,
    _evaluate,
    apply_overrides,
    build_dataset,
    inspect_data,
    load_config,
    main,
    read_compare,
    read_summary,
    read_sweep_csv,
    validate_config,
)
from vconlab.compression import PruneNM, compress_network
from vconlab.model import init_params
from vconlab.training import DataError, read_runlog
from vconlab.vcon import BetaScheduler, wrap_network


def _write_config(tmp_path, **overrides):
    cfg = {
        "model": {"layer_sizes": [2, 8, 3], "activation": "relu"},
        "dataset": {"kind": "blobs", "classes": 3, "samples_per_class": 30, "noise": 0.2, "seed": 0},
        "compression": {"kind": "prune_layer", "sparsity": 0.5},
        "optimizer": {"kind": "adam", "lr": 0.01},
        "mode": "ste_standard",
        "epochs": 2,
        "batch_size": 16,
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def _force_workers(monkeypatch, workers):
    # runs go to `workers` processes whatever this machine's CPU count
    monkeypatch.setattr(cli, "_worker_count", lambda tasks: min(tasks, workers))


# --------------------------------------------------------------------------
# Config handling


def test_validate_accepts_defaults_for_missing_sections(tmp_path):
    exp = validate_config({"mode": "dense"})
    assert exp.layer_sizes == [2, 16, 3]
    assert exp.compression is None
    assert exp.seeds == [0]


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key: modle"):
        validate_config({"modle": "dense"})


def test_misspelled_nested_key_named_in_error():
    # a compression section takes kind and the chosen family's fields only
    for section, key in (({"kind": "prune_layer", "sparsityy": 0.9}, "sparsityy"),
                         ({"kind": "binary", "sparsity": 0.9}, "sparsity"),
                         ({"kind": "none", "rank": 3}, "rank")):
        with pytest.raises(ConfigError, match=f"^unknown config key: compression.{key}$"):
            validate_config({"compression": section})


def test_field_level_messages():
    with pytest.raises(ConfigError, match="model.layer_sizes must be a list"):
        validate_config({"model": {"layer_sizes": [5]}})
    with pytest.raises(ConfigError, match="mode must be dense"):
        validate_config({"mode": "sparse"})
    with pytest.raises(ConfigError, match="requires a compression section"):
        validate_config({"mode": "vcon"})
    with pytest.raises(ConfigError, match="not both"):
        validate_config({"q_epochs": 1, "q_steps": 5, "mode": "dense"})
    with pytest.raises(ConfigError, match="seeds"):
        validate_config({"seeds": []})


def test_bad_schedule_kind():
    with pytest.raises(ConfigError, match="schedule.kind"):
        validate_config({"optimizer": {"schedule": {"kind": "step"}}})


def test_compression_section_errors_are_config_errors():
    with pytest.raises(ConfigError, match="compression"):
        validate_config({"compression": {"kind": "prune_layer", "sparsity": 1.0}})
    with pytest.raises(ConfigError, match="compression"):
        validate_config({"compression": {"kind": "low_rank", "rank": float("inf")}})


def _dataset(key, value):
    return {"dataset": {"kind": "blobs", "classes": 3, "samples_per_class": 30, "noise": 0.2, "seed": 0, key: value}}


# (config entries replacing the test config's, dotted key the error must name;
# a key that is not the family's is named as unknown instead)
UNKNOWN = "unknown config key: "
CONFIG_ERRORS = [
    pytest.param(_dataset("classes", "three"), "dataset.classes", id="classes-three"),
    pytest.param(_dataset("samples_per_class", [100]), "dataset.samples_per_class", id="samples_per_class-value1"),
    pytest.param(_dataset("noise", "loud"), "dataset.noise", id="noise-loud"),
    pytest.param(_dataset("seed", None), "dataset.seed", id="seed-None"),
    pytest.param(_dataset("classes", 3.7), "dataset.classes", id="classes-float"),
    pytest.param({"dataset": 5}, "dataset", id="dataset-not-object"),
    pytest.param({"model": 3}, "model", id="model-not-object"),
    pytest.param({"compression": 5}, "compression", id="compression-not-object"),
    pytest.param({"optimizer": {"lr": None}}, "optimizer.lr", id="lr-null"),
    pytest.param({"optimizer": {"lr": float("nan")}}, "optimizer.lr", id="lr-nan"),
    pytest.param({"optimizer": {"schedule": 7}}, "optimizer.schedule", id="schedule-not-object"),
    pytest.param({"optimizer": {"schedule": {"kind": "cosine", "warmup_ratio": None}}},
                 "optimizer.schedule.warmup_ratio", id="warmup_ratio-null"),
    pytest.param({"optimizer": {"schedule": {"kind": "cosine", "total_steps": "x"}}},
                 "optimizer.schedule.total_steps", id="total_steps-string"),
    pytest.param({"compression": {"kind": "low_rank", "rank": 2.7}}, "compression.rank", id="rank-float"),
    pytest.param({"epochs": True}, "epochs", id="epochs-true"),
    pytest.param({"mode": "vcon", "q_steps": True}, "q_steps", id="q_steps-true"),
    pytest.param({"seeds": [True]}, "seeds", id="seeds-true"),
    pytest.param({"freeze_mask": "no"}, "freeze_mask", id="freeze_mask-string"),
    pytest.param({"optimizer": {"schedule": {"kind": "cosine", "total_steps": -5}}},
                 "optimizer.schedule.total_steps", id="total_steps-negative"),
    pytest.param({"optimizer": {"schedule": {"kind": "cosine", "total_steps": 0}}},
                 "optimizer.schedule.total_steps", id="total_steps-zero"),
    pytest.param({"optimizer": {"beta1": 1.0}}, "optimizer.beta1", id="beta1-one"),
    pytest.param({"optimizer": {"beta2": -0.1}}, "optimizer.beta2", id="beta2-negative"),
    pytest.param({"optimizer": {"eps": 0.0}}, "optimizer.eps", id="eps-zero"),
    pytest.param({"optimizer": {"kind": "rmsprop"}}, "optimizer.kind", id="optimizer-kind-unknown"),
    pytest.param({"compression": {"kind": "prune_layer", "sparsity": 1.0}}, "compression.sparsity", id="sparsity-one"),
    pytest.param({"compression": {"kind": "low_rank", "rank": 0}}, "compression.rank", id="rank-zero"),
    pytest.param({"seeds": [-1]}, "seeds[0]", id="seed-negative"),
    pytest.param({"seeds": [0, 10**300]}, "seeds[1]", id="seed-300-digits"),
    pytest.param({"seeds": [2**63]}, "seeds[0]", id="seed-2-pow-63"),
    pytest.param({"compression": {"kind": "binary", "sparsity": 0.9}}, UNKNOWN + "compression.sparsity",
                 id="binary-sparsity"),
    pytest.param({"compression": {"kind": "none", "rank": 3}}, UNKNOWN + "compression.rank", id="none-rank"),
    pytest.param({"optimizer": {"schedule": {"kind": "constant", "warmup_ratio": 0.5}}},
                 UNKNOWN + "optimizer.schedule.warmup_ratio", id="constant-warmup_ratio"),
    pytest.param({"dataset": {"kind": "blobs", "path": "x.csv"}}, UNKNOWN + "dataset.path", id="blobs-path"),
    pytest.param({"dataset": {"kind": "csv", "path": "x.csv", "noise": 5.0}}, UNKNOWN + "dataset.noise",
                 id="csv-noise"),
    pytest.param({"seeds": [0, 1, 0]}, "seeds[2]", id="seeds-repeated"),
    pytest.param({"mode": "vcon", "q_steps": [2, 2]}, "q_steps[1]", id="q_steps-repeated"),
    pytest.param({"mode": "vcon", "q_epochs": [1, 3, 1]}, "q_epochs[2]", id="q_epochs-repeated"),
]


@pytest.mark.parametrize("entries, key", CONFIG_ERRORS)
def test_dataset_numbers_that_do_not_coerce_are_config_errors(tmp_path, capsys, entries, key):
    # a value that is not already of its JSON type (or a section that is not
    # an object) is a config error naming the dotted key, never converted;
    # so is a value out of its field's range
    path, cfg = _write_config(tmp_path, **entries)
    message = f"^{re.escape(key)}$" if key.startswith(UNKNOWN) else rf"{re.escape(key)}\S* must be"
    with pytest.raises(ConfigError, match=message):
        validate_config(cfg)
    assert main(["train", "--config", str(path), "--quiet"]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_apply_overrides_json_and_string():
    cfg = {"optimizer": {"lr": 1e-3}}
    out = apply_overrides(cfg, ["optimizer.lr=0.05", "mode=vcon", "q_steps=[0,8]", "output_dir=runs/x"])
    assert out["optimizer"]["lr"] == 0.05
    assert out["mode"] == "vcon"  # bare word stays a string
    assert out["q_steps"] == [0, 8]
    assert out["output_dir"] == "runs/x"
    assert cfg["optimizer"]["lr"] == 1e-3  # original untouched


def test_apply_overrides_requires_assignment():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["mode"])


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_config(arr)


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000 + "]" * 100_000], ids=["5000-digits", "nested-100000"])
def test_json_python_cannot_read_is_a_config_error(tmp_path, capsys, text):
    # past Python's integer-digit limit (a ValueError) or its recursion limit,
    # in the file or through --set: exit 2, nothing written
    path, cfg = _write_config(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg)[:-1] + f', "seeds": {text}}}')
    assert main(["train", "--config", str(bad), "--quiet"]) == 2
    assert f"config {bad} is not valid JSON" in capsys.readouterr().err
    assert main(["train", "--config", str(path), "--quiet", "--set", f"seeds={text}"]) == 2
    assert "--set seeds:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------------------
# Exit codes through main()


def test_exit_2_on_misspelled_key(tmp_path, capsys):
    path, _ = _write_config(tmp_path, compression={"kind": "prune_layer", "sparsityy": 0.9})
    assert main(["train", "--config", str(path), "--quiet"]) == 2
    assert "sparsityy" in capsys.readouterr().err


def test_exit_2_on_missing_config_file(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json"), "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_1_on_missing_csv_dataset(tmp_path, capsys):
    path, _ = _write_config(
        tmp_path, dataset={"kind": "csv", "path": str(tmp_path / "nope.csv")}, mode="dense",
        compression={"kind": "none"},
    )
    assert main(["train", "--config", str(path), "--quiet"]) == 1
    assert "error" in capsys.readouterr().err


def test_csv_run_records_a_config_that_validates(tmp_path):
    data = tmp_path / "d.csv"
    rows = ["f0,f1,label"] + [f"{i % 7}.5,{-(i % 5)}.25,{i % 3}" for i in range(60)]
    data.write_text("\n".join(rows) + "\n")
    dataset = {"kind": "csv", "path": str(data)}
    path, _ = _write_config(tmp_path, dataset=dataset, mode="dense", compression={"kind": "none"})
    assert main(["train", "--config", str(path), "--quiet"]) == 0
    recorded = read_summary(tmp_path / "out" / "summary.json")["config"]
    assert recorded["dataset"] == dataset
    assert validate_config(recorded).dataset == dataset


def test_exit_1_on_corrupt_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.vcnet"
    bad.write_bytes(b"not a network file")
    assert main(["inspect", str(bad)]) == 1
    assert "byte offset" in capsys.readouterr().err


def test_exit_0_on_dense_train(tmp_path):
    path, _ = _write_config(tmp_path, mode="dense", compression={"kind": "none"})
    assert main(["train", "--config", str(path), "--quiet"]) == 0


# --------------------------------------------------------------------------
# cmd_train artifacts


def test_train_dense_summary_param_counts_equal(tmp_path):
    path, cfg = _write_config(tmp_path, mode="dense", compression={"kind": "none"})
    assert main(["train", "--config", str(path), "--quiet"]) == 0
    summary = read_summary(tmp_path / "out" / "summary.json")
    assert summary["mode"] == "dense"
    (entry,) = summary["per_seed"]
    assert entry["param_count_compressed"] == entry["param_count_dense"]
    assert 0.0 <= entry["final_test_accuracy"] <= 1.0


def test_train_multi_seed_artifacts_and_aggregate(tmp_path, capsys):
    path, _ = _write_config(tmp_path, seeds=[0, 1, 2])
    assert main(["train", "--config", str(path)]) == 0
    out = tmp_path / "out"
    for seed in (0, 1, 2):
        log = read_runlog(out / f"runlog_steps_seed{seed}.csv", out / f"runlog_epochs_seed{seed}.csv")
        assert len(log.epochs) == 2
        assert (out / f"checkpoint_seed{seed}.vcnet").exists()
    summary = read_summary(out / "summary.json")
    accs = [r["final_test_accuracy"] for r in summary["per_seed"]]
    agg = summary["aggregate"]["test_accuracy"]
    assert abs(agg["mean"] - np.mean(accs)) <= 1e-12
    assert abs(agg["stddev"] - np.std(accs)) <= 1e-12
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"ste_standard: mean test accuracy {agg['mean']:.4f} (std {agg['stddev']:.4f}) "
        f"over 3 seed(s) -> {out / 'summary.json'}")


@pytest.mark.parametrize("reader, what, key", [(read_summary, "summary", "mode"),
                                               (read_compare, "comparison", "baseline_mode")])
def test_output_reader_missing_key_is_a_data_error(tmp_path, reader, what, key):
    path = tmp_path / "out.json"
    path.write_text(json.dumps({"config": {}, "per_seed": [], "aggregate": {}}))
    with pytest.raises(DataError, match=rf"out\.json: {what} is missing '{key}'$"):
        reader(path)


def test_train_seed_flag_replaces_list(tmp_path):
    path, _ = _write_config(tmp_path, seeds=[0, 1, 2])
    assert main(["train", "--config", str(path), "--quiet", "--seed", "7"]) == 0
    summary = read_summary(tmp_path / "out" / "summary.json")
    assert [r["seed"] for r in summary["per_seed"]] == [7]


@pytest.mark.parametrize("command", ["compare", "sweep-q"])
def test_mode_flag_is_train_only(tmp_path, capsys, command):
    # compare and sweep-q always run the blended arm, so they take no --mode
    path, _ = _write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), "--quiet", "--mode", "post_shot"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode post_shot" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_vcon_writes_finalized_checkpoint_when_converged(tmp_path):
    # 63 train rows / batch 16 = 4 steps per epoch; q=4 converges inside 2 epochs
    path, _ = _write_config(tmp_path, mode="vcon", q_steps=4)
    assert main(["train", "--config", str(path), "--quiet"]) == 0
    report = inspect_data(tmp_path / "out" / "finalized_seed0.vcnet")
    assert report["scheduler"] is None
    assert all(b["kind"] == "compressed" for b in report["blocks"])
    (row,) = read_summary(tmp_path / "out" / "summary.json")["per_seed"]
    assert row["transition_finished"] is True


def test_train_vcon_mid_transition_keeps_blend(tmp_path):
    path, _ = _write_config(tmp_path, mode="vcon", q_steps=1000)
    assert main(["train", "--config", str(path), "--quiet"]) == 0
    out = tmp_path / "out"
    assert not (out / "finalized_seed0.vcnet").exists()
    (row,) = read_summary(out / "summary.json")["per_seed"]
    assert row["transition_finished"] is False
    report = inspect_data(out / "checkpoint_seed0.vcnet")
    sched = report["scheduler"]
    assert sched["q"] == 1000
    assert sched["t"] == 8  # 2 epochs x 4 steps
    assert sched["phase"] == "transition"
    assert abs(sched["beta"] - (1.0 - 8 / 1000)) <= 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_low_rank_of_non_finite_weights_is_an_error(tmp_path, capsys, monkeypatch, bad):
    def poisoned(sizes, seed, activation="relu"):
        net = init_params(sizes, seed, activation)
        net.blocks[1].weight.data[0, 0] = bad
        return net

    monkeypatch.setattr(cli, "init_params", poisoned)
    path, _ = _write_config(tmp_path, compression={"kind": "low_rank", "rank": 1})
    assert main(["train", "--config", str(path), "--quiet"]) == 1
    assert "error: truncated_svd needs finite entries; the 3x8 matrix has NaN or inf" in capsys.readouterr().err


def test_low_rank_of_weights_past_the_squares_bound_is_an_error(tmp_path, capsys, monkeypatch):
    def huge(sizes, seed, activation="relu"):
        net = init_params(sizes, seed, activation)
        net.blocks[1].weight.data[:, 0] = 1e200
        return net

    monkeypatch.setattr(cli, "init_params", huge)
    path, _ = _write_config(tmp_path, compression={"kind": "low_rank", "rank": 1})
    assert main(["train", "--config", str(path), "--quiet"]) == 1
    assert "error: truncated_svd needs (w*w).sum()**2 finite" in capsys.readouterr().err


def test_vcon_without_q_is_config_error(tmp_path, capsys):
    path, _ = _write_config(tmp_path, mode="vcon")
    assert main(["train", "--config", str(path), "--quiet"]) == 2
    assert "q_epochs or q_steps" in capsys.readouterr().err


# --------------------------------------------------------------------------
# cmd_compare


def test_compare_q_zero_deltas_exactly_zero(tmp_path):
    path, _ = _write_config(tmp_path, seeds=[0, 1], q_steps=0, mode="dense")
    # mode is forced to vcon by the command itself
    assert main(["compare", "--config", str(path), "--quiet"]) == 0
    comp = read_compare(tmp_path / "out" / "compare.json")
    assert comp["baseline_mode"] == "ste_standard"
    assert [row["delta"] for row in comp["per_seed"]] == [0.0, 0.0]
    assert comp["aggregate"]["delta"] == {"mean": 0.0, "stddev": 0.0}
    assert comp["aggregate"]["formatted_delta"] == "(+0.00)"
    # both arms produced their own full artifact trees
    assert read_summary(tmp_path / "out" / "baseline" / "summary.json")["mode"] == "ste_standard"
    assert read_summary(tmp_path / "out" / "vcon" / "summary.json")["mode"] == "vcon"


def test_compare_post_shot_baseline(tmp_path):
    path, _ = _write_config(tmp_path, q_steps=4)
    assert main(["compare", "--config", str(path), "--quiet", "--baseline", "post_shot"]) == 0
    comp = read_compare(tmp_path / "out" / "compare.json")
    assert comp["baseline_mode"] == "post_shot"
    assert len(comp["per_seed"]) == 1
    assert math.isfinite(comp["per_seed"][0]["delta"])
    # only the blended arm reports whether its transition finished
    assert "transition_finished" not in read_summary(tmp_path / "out" / "baseline" / "summary.json")["per_seed"][0]
    assert read_summary(tmp_path / "out" / "vcon" / "summary.json")["per_seed"][0]["transition_finished"] is True


def test_post_shot_that_never_switches_is_config_error(tmp_path, capsys):
    # 62 training points in batches of 16 for 2 epochs: an 8-step run, so a
    # switch at step 8 never comes and the run would stay dense throughout
    for command, q in ((["train"], {"q_epochs": 2}), (["compare", "--baseline", "post_shot"], {"q_steps": 8})):
        path, _ = _write_config(tmp_path, mode="post_shot", **q)
        assert main([*command, "--config", str(path), "--quiet"]) == 2
        assert f"{next(iter(q))} must end post_shot's dense phase" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    path, _ = _write_config(tmp_path, mode="post_shot", q_steps=7)
    assert main(["train", "--config", str(path), "--quiet"]) == 0
    (row,) = read_summary(tmp_path / "out" / "summary.json")["per_seed"]
    assert row["param_count_compressed"] < row["param_count_dense"]


def test_compare_shared_seeds_share_data_order(tmp_path):
    # identical seeds mean identical batch sequences; with sparsity 0 the two
    # arms are the same procedure, so even the loss columns coincide
    path, _ = _write_config(
        tmp_path, q_steps=0, compression={"kind": "prune_layer", "sparsity": 0.0}
    )
    assert main(["compare", "--config", str(path), "--quiet"]) == 0
    out = tmp_path / "out"
    base = read_runlog(out / "baseline" / "runlog_steps_seed0.csv",
                       out / "baseline" / "runlog_epochs_seed0.csv")
    vcon = read_runlog(out / "vcon" / "runlog_steps_seed0.csv",
                       out / "vcon" / "runlog_epochs_seed0.csv")
    assert base == vcon


@pytest.mark.parametrize("workers", [1, 2])
def test_compare_keeps_finished_runs_when_a_seed_diverges(tmp_path, capfd, monkeypatch, workers):
    # seed 1's blended network turns NaN at its third update, as a member of
    # the vcon arm's stack: it leaves the stack, and seed 0 trains on in it
    path, _ = _write_config(tmp_path, seeds=[0, 1], q_steps=6)
    solo = tmp_path / "solo"
    assert main(["compare", "--config", str(path), "--quiet", "--set", "seeds=[0]", "--set", f"output_dir={solo}"]) == 0
    real_step = training.Optimizer.step

    def step(self, named_params):
        lr = real_step(self, named_params)
        if self.step_count == 3:
            for name, p in named_params:
                if name == "blocks.0.original.weight":
                    p.data[1] = np.nan  # the member of seed 1
        return lr

    monkeypatch.setattr(training.Optimizer, "step", step)
    _force_workers(monkeypatch, workers)
    capfd.readouterr()
    with np.errstate(divide="raise", over="raise", invalid="raise"):  # what would warn fails the run instead
        assert main(["compare", "--config", str(path), "--quiet"]) == 1
    assert capfd.readouterr().err == "error: training diverged at step 3 (lr=0.01, beta=0.5)\n"
    out = tmp_path / "out"
    files = ["runlog_steps_seed{}.csv", "runlog_epochs_seed{}.csv", "checkpoint_seed{}.vcnet"]
    for seed in (0, 1):
        assert all((out / "baseline" / name.format(seed)).exists() for name in files)
    assert [r["seed"] for r in read_summary(out / "baseline" / "summary.json")["per_seed"]] == [0, 1]
    assert all((out / "vcon" / name.format(0)).exists() for name in files + ["finalized_seed{}.vcnet"])
    assert not any((out / "vcon" / name.format(1)).exists() for name in files)
    assert not (out / "vcon" / "summary.json").exists()
    assert not (out / "compare.json").exists()
    for arm in ("baseline", "vcon"):  # seed 0's files are those of its run alone
        for f in (solo / arm).glob("*_seed0.*"):
            assert (out / arm / f.name).read_bytes() == f.read_bytes(), f"{arm}/{f.name}"


def test_worker_that_dies_is_a_runtime_error(tmp_path, capfd, monkeypatch):
    real_run = cli.run_single

    def run_single(exp, dataset, seeds, mode, q_steps):
        if mode == "vcon":
            os._exit(3)
        return real_run(exp, dataset, seeds, mode, q_steps)

    monkeypatch.setattr(cli, "run_single", run_single)
    _force_workers(monkeypatch, 2)
    path, _ = _write_config(tmp_path, seeds=[0, 1], q_steps=4)
    assert main(["compare", "--config", str(path), "--quiet"]) == 1
    err = capfd.readouterr().err  # file-descriptor capture also sees the workers
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "vcon" / "summary.json").exists()
    assert not (tmp_path / "out" / "compare.json").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_low_rank_warnings_print_once_per_command(tmp_path, capfd, monkeypatch, workers):
    # the 16x2 and 3x16 layers clamp rank 4 and gain nothing; the 16x16 one warns of nothing
    _force_workers(monkeypatch, workers)
    path, _ = _write_config(tmp_path, model={"layer_sizes": [2, 16, 16, 3]}, seeds=[0, 1], q_steps=4,
                            compression={"kind": "low_rank", "rank": 4})
    assert main(["compare", "--config", str(path), "--quiet", "--baseline", "post_shot"]) == 0
    err = capfd.readouterr().err  # file-descriptor capture also sees the workers
    messages = ["rank 4 clamped to 2 for a 16x2 layer",
                "rank 2 on a 16x2 layer stores 36 values vs 32 dense; no size benefit",
                "rank 4 clamped to 3 for a 3x16 layer",
                "rank 3 on a 3x16 layer stores 57 values vs 48 dense; no size benefit"]
    assert err.splitlines() == [f"warning: {message}" for message in messages]


def test_progress_lines_come_in_task_order(tmp_path, capsys, monkeypatch):
    real_run = cli.run_single

    def run_single(exp, dataset, seeds, mode, q_steps):
        if mode == "ste_standard":
            time.sleep(0.5)  # the second task ends first
        return real_run(exp, dataset, seeds, mode, q_steps)

    monkeypatch.setattr(cli, "run_single", run_single)
    _force_workers(monkeypatch, 2)
    path, _ = _write_config(tmp_path, seeds=[0, 1], q_steps=4)
    assert main(["compare", "--config", str(path)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "test_acc=" in line]
    progress = [re.fullmatch(r"  mode=(\w+) seed=(\d) test_acc=\d\.\d{4} \(\d+\.\ds\)", line) for line in lines]
    assert [m.groups() for m in progress] == [("ste_standard", "0"), ("ste_standard", "1"),
                                              ("vcon", "0"), ("vcon", "1")]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="finds OpenBLAS through /proc")
def test_worker_start_up_keeps_openblas_to_one_thread():
    # in a fresh process, so this one's BLAS keeps its threads
    code = """
import ctypes
from vconlab import cli
libs = [ctypes.CDLL(line.split(None, 5)[5].strip()) for line in open("/proc/self/maps") if "openblas" in line]
getters = [getattr(lib, n.replace("_set_", "_get_")) for lib in libs for n in cli._OPENBLAS_SET_THREADS
           if hasattr(lib, n)]
before = [get() for get in getters]
cli._one_blas_thread()
print(before, [get() for get in getters])
"""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    before, after = map(json.loads, re.fullmatch(r"(\[.*\]) (\[.*\])\n", out).groups())
    if not before or max(before) == 1:
        pytest.skip("no multi-threaded OpenBLAS here")
    assert after == [1] * len(before)


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the allocator settings are glibc's")
def test_training_steps_reuse_freed_memory():
    # once the heap has grown to a step's size, a step's arrays land in blocks
    # earlier steps freed, so the kernel maps no fresh pages; without the
    # settings this run takes about 370 faults per step. In a fresh process, so
    # what earlier tests left in this one's heap does not count, with every
    # stack built before any trains, so a window counts training steps only
    code = """
import resource
from vconlab import cli, training
from vconlab.compression import PruneUnstructuredLayer
from vconlab.model import init_params, stack_networks
from vconlab.vcon import BetaScheduler, wrap_network

seeds = (0, 1, 2, 3, 4)

def stack():
    # a stack of five A7-shaped vcon networks, still early in its transition
    net = wrap_network(stack_networks([init_params([2, 64, 64, 3], s) for s in seeds]),
                       PruneUnstructuredLayer(0.95), BetaScheduler(q=1000))
    return net, training.make_synthetic("spiral", classes=3, samples_per_class=500, noise=0.2, seed=0)

def run(epochs):
    net, data = stacks.pop(0)
    training.train(net, data, training.TrainConfig(epochs=epochs, batch_size=64, seed=seeds))

cli._keep_freed_arrays()
stacks = [stack() for _ in range(4)]
run(epochs=1)
# the first stack trained after the warm-up one may still grow the heap, where
# no freed block fits its first evaluation's activations
run(epochs=2)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run(epochs=2)  # 34 steps
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    faults = [int(line) for line in out.split()]
    assert len(faults) == 2 and max(faults) < 34, f"{faults} minor page faults in two runs of 34 training steps"


def test_allocator_settings_go_together(monkeypatch):
    # the trim threshold is set only once the mmap threshold took
    import ctypes

    for took, want in ((1, [(-3, 32 << 20), (-1, 128 << 20)]), (0, [(-3, 32 << 20)])):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return took

        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        cli._keep_freed_arrays()
        assert calls == want


@pytest.mark.parametrize("libc", ["missing", "no mallopt"])
def test_allocator_set_up_without_mallopt_does_nothing(tmp_path, monkeypatch, libc):
    # where glibc is not the C library (macOS, Windows, musl) main runs as before
    import ctypes

    def cdll(name):
        if libc == "missing":
            raise OSError(f"{name}: cannot open shared object file")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    cli._keep_freed_arrays()
    path, _ = _write_config(tmp_path)
    assert main(["train", "--config", str(path), "--quiet"]) == 0
    assert (tmp_path / "out" / "summary.json").exists()


def _without_wall_clock(data):
    if isinstance(data, dict):
        return {k: _without_wall_clock(v) for k, v in data.items() if k != "wall_clock_seconds"}
    if isinstance(data, list):
        return [_without_wall_clock(v) for v in data]
    return data


def test_worker_count_does_not_change_outputs(tmp_path, monkeypatch):
    path, _ = _write_config(tmp_path, seeds=[0, 1], q_steps=4)
    commands = {
        "train": ["train", "--mode", "vcon"],
        "ste": ["compare"],
        "post_shot": ["compare", "--baseline", "post_shot"],
        "sweep": ["sweep-q", "--set", "q_steps=[0,3,20]"],
    }
    trees = {}
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        for name, command in commands.items():
            argv = [*command, "--config", str(path), "--quiet", "--set", f"output_dir={tmp_path / 'out' / name}"]
            assert main(argv) == 0
        trees[workers] = (tmp_path / "out").rename(tmp_path / f"workers{workers}")
    files = {tree: sorted(p.relative_to(tree) for p in tree.rglob("*") if p.is_file()) for tree in trees.values()}
    assert files[trees[1]] == files[trees[2]]
    assert {p.suffix for p in files[trees[1]]} == {".csv", ".vcnet", ".json"}
    for rel in files[trees[1]]:
        one, two = trees[1] / rel, trees[2] / rel
        if rel.suffix == ".json":
            assert _without_wall_clock(json.loads(one.read_text())) == _without_wall_clock(json.loads(two.read_text()))
        else:
            assert one.read_bytes() == two.read_bytes(), rel


@pytest.mark.parametrize("workers", [1, 2])
def test_summary_rows_keep_their_key_order(tmp_path, monkeypatch, workers):
    # the golden digests pin summary.json's bytes on the recorded numpy and
    # OpenBLAS cores only; the row layout must hold everywhere, for stacks of
    # 3 (one worker) and of 2 + 1 (two workers)
    path, _ = _write_config(tmp_path, seeds=[0, 1, 2], q_steps=4)
    keys = ["seed", "final_test_accuracy", "best_val_accuracy", "param_count_dense", "param_count_compressed",
            "wall_clock_seconds"]
    _force_workers(monkeypatch, workers)
    for mode in ("dense", "ste_standard", "post_shot", "vcon"):
        out = tmp_path / mode
        assert main(["train", "--config", str(path), "--quiet", "--mode", mode, "--set", f"output_dir={out}"]) == 0
        rows = read_summary(out / "summary.json")["per_seed"]
        assert [row["seed"] for row in rows] == [0, 1, 2]
        for row in rows:
            assert list(row) == keys + ["transition_finished"] * (mode == "vcon"), (mode, row)


# --------------------------------------------------------------------------
# cmd_sweep_q


def test_sweep_q_merged_csv_and_row_count(tmp_path, capsys):
    path, _ = _write_config(tmp_path, seeds=[0, 1], q_steps=[0, 8], mode="dense")
    assert main(["sweep-q", "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert capsys.readouterr().out.splitlines()[-1] == f"swept q over [0, 8] (8 rows) -> {out / 'sweep.csv'}"
    rows = read_sweep_csv(out / "sweep.csv")
    assert len(rows) == 2 * 2 * 2  # |q| x seeds x epochs
    # the join of the arms' epoch logs, row for row, in Q, seed, epoch order
    joined = [f"{q},{seed},{line}" for q in (0, 8) for seed in (0, 1)
              for line in (out / f"q{q}" / f"runlog_epochs_seed{seed}.csv").read_text().splitlines()[1:]]
    assert (out / "sweep.csv").read_text().splitlines() == ["q,seed,epoch,val_accuracy", *joined]
    assert {q for q, *_ in rows} == {0, 8}
    for q, seed, epoch, acc in rows:
        assert epoch in (1, 2)
        assert 0.0 <= acc <= 1.0


def test_sweep_q_zero_matches_separate_ste_run(tmp_path):
    path, _ = _write_config(tmp_path, q_steps=[0, 8], mode="dense",
                            output_dir=str(tmp_path / "sweep"))
    assert main(["sweep-q", "--config", str(path), "--quiet"]) == 0

    path2, _ = _write_config(tmp_path, mode="ste_standard", output_dir=str(tmp_path / "ste"))
    assert main(["train", "--config", str(path2), "--quiet"]) == 0

    sweep_rows = [r for r in read_sweep_csv(tmp_path / "sweep" / "sweep.csv") if r[0] == 0]
    ste_log = read_runlog(tmp_path / "ste" / "runlog_steps_seed0.csv",
                          tmp_path / "ste" / "runlog_epochs_seed0.csv")
    assert [(e, a) for _, _, e, a in sweep_rows] == ste_log.epochs


def test_sweep_beta_reaches_zero_at_each_q(tmp_path):
    path, _ = _write_config(tmp_path, q_steps=[2, 6], mode="dense", epochs=2)
    assert main(["sweep-q", "--config", str(path), "--quiet"]) == 0
    for q in (2, 6):
        log = read_runlog(tmp_path / "out" / f"q{q}" / "runlog_steps_seed0.csv",
                          tmp_path / "out" / f"q{q}" / "runlog_epochs_seed0.csv")
        betas = [s[1] for s in log.steps]
        assert all(b > 0.0 for b in betas[:q])
        assert all(b == 0.0 for b in betas[q:])


def test_sweep_q_needs_a_list(tmp_path, capsys):
    path, _ = _write_config(tmp_path, q_steps=4, mode="dense")
    assert main(["sweep-q", "--config", str(path), "--quiet"]) == 2
    assert "list" in capsys.readouterr().err

    path2, _ = _write_config(tmp_path, q_steps=[4], mode="dense")
    assert main(["sweep-q", "--config", str(path2), "--quiet"]) == 2
    assert "at least 2" in capsys.readouterr().err


# --------------------------------------------------------------------------
# The three run flags, end to end


def _vcon_checkpoint(tmp_path, flag):
    # q far beyond the run's 8 steps: the checkpoint is saved mid-transition
    path, cfg = _write_config(tmp_path, mode="vcon", q_steps=1000, **{flag: True})
    assert main(["train", "--config", str(path), "--quiet"]) == 0
    net, scheduler = load_network(tmp_path / "out" / "checkpoint_seed0.vcnet")
    assert scheduler.t == 8
    return net, validate_config(cfg)


def test_freeze_original_keeps_initial_originals(tmp_path):
    net, exp = _vcon_checkpoint(tmp_path, "freeze_original")
    init = init_params(exp.layer_sizes, 0, exp.activation)
    for block, start in zip(net.blocks, init.blocks):
        assert np.array_equal(block.original.weight.data, start.weight.data)
        assert np.array_equal(block.original.bias.data, start.bias.data)
        assert not np.array_equal(block.branch.params["weight"].data, start.weight.data)  # the branch still trained


def test_freeze_mask_keeps_initial_masks(tmp_path):
    net, exp = _vcon_checkpoint(tmp_path, "freeze_mask")
    first = compress_network(init_params(exp.layer_sizes, 0, exp.activation), exp.compression)
    for block, start in zip(net.blocks, first.blocks):
        assert np.array_equal(block.branch.state, start.state)


def test_eval_compressed_only_reports_the_compressed_branches(tmp_path):
    net, exp = _vcon_checkpoint(tmp_path, "eval_compressed_only")
    x_test, y_test = build_dataset(exp).split("test")
    (row,) = read_summary(tmp_path / "out" / "summary.json")["per_seed"]
    assert row["final_test_accuracy"] == _evaluate(net, x_test, y_test, compressed_only=True)


# --------------------------------------------------------------------------
# cmd_inspect


def test_inspect_dense_reports_no_compression(tmp_path, capsys):
    net = init_params([2, 4, 3], seed=0)
    p = tmp_path / "net.vcnet"
    save_network(net, p)
    assert main(["inspect", str(p)]) == 0
    text = capsys.readouterr().out
    assert "no compression" in text
    assert "scheduler: none" in text
    assert f"total params: {net.param_count()}" in text


def test_inspect_finalized_one_in_sixteen_density(tmp_path):
    net = compress_network(init_params([16, 32, 16], seed=1), PruneNM(1, 16))
    p = tmp_path / "net.vcnet"
    save_network(net, p)
    report = inspect_data(p)
    for entry in report["blocks"]:
        assert entry["density"] == 1.0 / 16.0
        assert entry["kept_weights"] == entry["out_dim"] * entry["in_dim"] // 16


def test_inspect_mid_transition_scheduler(tmp_path, capsys):
    sched = BetaScheduler(q=100, t=25)
    net = wrap_network(init_params([2, 4, 3], seed=2), PruneNM(1, 2), sched)
    p = tmp_path / "net.vcnet"
    save_network(net, p)
    report = inspect_data(p)
    assert report["scheduler"] == {"q": 100, "t": 25, "beta": 0.75, "phase": "transition"}
    assert all(b["kind"] == "vcon" for b in report["blocks"])
    assert main(["inspect", str(p)]) == 0
    assert "q=100 t=25 beta=0.75 phase=transition" in capsys.readouterr().out


def test_inspect_reports_alpha_and_rank(tmp_path, capsys):
    from vconlab.compression import BinaryQuant, LowRank

    p1 = tmp_path / "bin.vcnet"
    save_network(compress_network(init_params([4, 6, 3], seed=3), BinaryQuant()), p1)
    assert "alpha" in json.dumps(inspect_data(p1))

    p2 = tmp_path / "lr.vcnet"
    save_network(compress_network(init_params([8, 8, 8], seed=4), LowRank(2)), p2)
    assert all(b["rank"] == 2 for b in inspect_data(p2)["blocks"])


# --------------------------------------------------------------------------
# Installed entry point


@pytest.mark.skipif(shutil.which("vconlab") is None, reason="console script not on PATH")
def test_console_script_smoke(tmp_path):
    path, _ = _write_config(tmp_path, mode="dense", compression={"kind": "none"}, epochs=1)
    proc = subprocess.run(
        ["vconlab", "train", "--config", str(path), "--quiet"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "summary.json").exists()


def test_python_dash_m_on_the_cli_module_runs_the_cli(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "vconlab.cli", "inspect", str(tmp_path / "missing.vcnet")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")


def test_python_dash_m_runs_the_cli(tmp_path):
    p = tmp_path / "net.vcnet"
    save_network(init_params([2, 4, 3], seed=0), p)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "vconlab", "inspect", str(p)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "net.vcnet" in proc.stdout
