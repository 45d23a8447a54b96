import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from vconlab.checkpoint import save_network
from vconlab.cli import (
    ConfigError,
    apply_overrides,
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
from vconlab.training import read_runlog
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
    cfg = {"compression": {"kind": "prune_layer", "sparsityy": 0.9}}
    with pytest.raises(ConfigError, match="unknown config key: compression.sparsityy"):
        validate_config(cfg)


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


@pytest.mark.parametrize("key, value", [
    ("classes", "three"), ("samples_per_class", [100]), ("noise", "loud"), ("seed", None),
])
def test_dataset_numbers_that_do_not_coerce_are_config_errors(tmp_path, capsys, key, value):
    dataset = {"kind": "blobs", "classes": 3, "samples_per_class": 30, "noise": 0.2, "seed": 0, key: value}
    with pytest.raises(ConfigError, match=f"dataset.{key} must be"):
        validate_config({"dataset": dataset})
    path, _ = _write_config(tmp_path, dataset=dataset)
    assert main(["train", "--config", str(path), "--quiet"]) == 2
    assert f"dataset.{key}" in capsys.readouterr().err


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


def test_train_multi_seed_artifacts_and_aggregate(tmp_path):
    path, _ = _write_config(tmp_path, seeds=[0, 1, 2])
    assert main(["train", "--config", str(path), "--quiet"]) == 0
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


def test_train_seed_flag_replaces_list(tmp_path):
    path, _ = _write_config(tmp_path, seeds=[0, 1, 2])
    assert main(["train", "--config", str(path), "--quiet", "--seed", "7"]) == 0
    summary = read_summary(tmp_path / "out" / "summary.json")
    assert [r["seed"] for r in summary["per_seed"]] == [7]


def test_train_vcon_writes_finalized_checkpoint_when_converged(tmp_path):
    # 63 train rows / batch 16 = 4 steps per epoch; q=4 converges inside 2 epochs
    path, _ = _write_config(tmp_path, mode="vcon", q_steps=4)
    assert main(["train", "--config", str(path), "--quiet"]) == 0
    report = inspect_data(tmp_path / "out" / "finalized_seed0.vcnet")
    assert report["scheduler"] is None
    assert all(b["kind"] == "compressed" for b in report["blocks"])


def test_train_vcon_mid_transition_keeps_blend(tmp_path):
    path, _ = _write_config(tmp_path, mode="vcon", q_steps=1000)
    assert main(["train", "--config", str(path), "--quiet"]) == 0
    out = tmp_path / "out"
    assert not (out / "finalized_seed0.vcnet").exists()
    report = inspect_data(out / "checkpoint_seed0.vcnet")
    sched = report["scheduler"]
    assert sched["q"] == 1000
    assert sched["t"] == 8  # 2 epochs x 4 steps
    assert sched["phase"] == "transition"
    assert abs(sched["beta"] - (1.0 - 8 / 1000)) <= 1e-15


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


# --------------------------------------------------------------------------
# cmd_sweep_q


def test_sweep_q_merged_csv_and_row_count(tmp_path):
    path, _ = _write_config(tmp_path, seeds=[0, 1], q_steps=[0, 8], mode="dense")
    assert main(["sweep-q", "--config", str(path), "--quiet"]) == 0
    rows = read_sweep_csv(tmp_path / "out" / "sweep.csv")
    assert len(rows) == 2 * 2 * 2  # |q| x seeds x epochs
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
