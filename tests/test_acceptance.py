"""Release gate: the eight checks below must all pass before shipping.

Each test prints one PASS line with its measured runtime (visible with
``pytest tests/test_acceptance.py -s``); a pytest failure on any of them
is the corresponding FAIL line. Budgets are wall-clock ceilings, asserted.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from vconlab.cli import main, read_compare, read_sweep_csv
from vconlab.compression import (
    BinaryQuant,
    LowRank,
    PruneNM,
    PruneUnstructuredGlobal,
    PruneUnstructuredLayer,
    compress_block,
    compress_network,
    prune_global,
    prune_layerwise,
    prune_nm,
    prune_structured,
    truncated_svd,
)
from vconlab.model import DenseBlock, Network, init_params
from vconlab.tensor import (
    Tensor,
    add,
    backward,
    gelu,
    linear,
    relu,
    scale,
    softmax_cross_entropy,
    ste_apply,
)
from vconlab.training import (
    OptimizerSpec,
    TrainConfig,
    make_synthetic,
    q_steps_from_epochs,
    read_runlog,
    steps_per_epoch,
    train,
)
from vconlab.vcon import BetaScheduler, beta_at, compressed_blocks, finalize, wrap_network

from engine_ops import mul, sub, sum_all
from oracles import finite_difference, rel_error, singular_values_oracle
from test_families import SAMPLES

ALL_VARIANTS = list(SAMPLES.values())


def _done(name: str, t0: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, over its {budget:.0f}s budget"
    print(f"{name} PASS [{elapsed:.2f}s < {budget:.0f}s]: {detail}")


# --------------------------------------------------------------------------


def test_a1_scheduler_exactness():
    t0 = time.perf_counter()
    for q in (1, 7, 1564):
        assert beta_at(0, q) == 1.0
        assert beta_at(q, q) == 0.0
        for t in range(2 * q + 1):
            assert abs(beta_at(t, q) - max(1.0 - t / q, 0.0)) <= 1e-15
    assert beta_at(123, 0) == 0.0
    assert steps_per_epoch(50000, 128) == 391
    for epochs, q in [(4, 1564), (12, 4692), (25, 9775), (40, 15640)]:
        assert q_steps_from_epochs(epochs, 50000, 128) == q
    _done("A1", t0, 1.0, "linear schedule exact over {1,7,1564}; 50000/128 config gives 391 steps/epoch and Q=1564/4692/9775/15640")


def test_a2_blend_endpoint_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-2.0, 2.0, size=(50, 2)))
    dense = init_params([2, 16, 16, 3], seed=0)
    for spec in ALL_VARIANTS:
        sch = BetaScheduler(q=10)
        blended = wrap_network(dense, spec, sch)

        assert np.array_equal(blended.forward(x).data, dense.forward(x).data)  # beta = 1
        sch.t = sch.q
        branches = Network(compressed_blocks(blended))
        assert np.array_equal(blended.forward(x).data, branches.forward(x).data)  # beta = 0

        for vb in blended.blocks:  # affinity, block by block
            xb = Tensor(rng.uniform(-2.0, 2.0, size=(50, vb.in_dim)))
            sch.t = 0
            hi = vb.forward(xb).data
            sch.t = sch.q
            lo = vb.forward(xb).data
            sch.t = 5  # beta = 0.5
            mid = vb.forward(xb).data
            assert np.max(np.abs(mid - 0.5 * (hi + lo))) <= 1e-12
    _done("A2", t0, 5.0, f"{len(ALL_VARIANTS)} variants on 2-16-16-3 nets, 50 inputs: endpoints bit-equal, midpoint affine <= 1e-12")


def test_a3_q_zero_degeneracy():
    t0 = time.perf_counter()
    ds = make_synthetic("blobs", classes=3, samples_per_class=300, seed=0)
    opt = OptimizerSpec(kind="adam", lr=1e-3)
    for spec in (PruneUnstructuredLayer(0.9), BinaryQuant(), LowRank(4)):
        ste = compress_network(init_params([2, 16, 16, 3], seed=1), spec)
        _, ste_log = train(ste, ds, TrainConfig(epochs=3, batch_size=32, seed=1, optimizer=opt))

        blended = wrap_network(init_params([2, 16, 16, 3], seed=1), spec, BetaScheduler(q=0))
        _, vcon_log = train(blended, ds, TrainConfig(epochs=3, batch_size=32, seed=1, optimizer=opt))

        assert ste_log == vcon_log, f"{spec}: trajectories differ"
        branch_params = [(n, p) for n, p in blended.named_parameters() if "branch" in n]
        for (_, p_ste), (_, p_v) in zip(ste.named_parameters(), branch_params):
            assert np.array_equal(p_ste.data, p_v.data)
    _done("A3", t0, 60.0, "vcon(Q=0) bit-identical to ste_standard over 3 epochs on 3x300 blobs for pruning-0.9, binary, low-rank-4")


def _fd_trial(rng, build):
    """One finite-difference trial: build() -> (inputs, forward)."""
    inputs, forward = build(rng)
    backward(forward())
    for p in inputs:
        saved = p.data.copy()

        def f(values, p=p):
            p.data[...] = values
            out = float(forward().data)
            p.data[...] = saved
            return out

        fd = finite_difference(f, saved.copy())
        err = rel_error(p.grad, fd)
        assert err <= 1e-4, f"rel err {err}"


def test_a4_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    def t(shape, lo=-2.0, hi=2.0):
        return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)

    def away_from_kink(shape):
        v = rng.uniform(0.1, 2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        return Tensor(v, requires_grad=True)

    cases = {
        "linear": lambda r: (
            (x := t((4, 3)), w := t((2, 3)), b := t((2,))),
            lambda: sum_all(mul(z := linear(x, w, b), z)),
        ),
        "add": lambda r: ((a := t((2, 3)), b := t((2, 3))), lambda: sum_all(add(a, b))),
        "sub": lambda r: ((a := t((2, 3)), b := t((2, 3))), lambda: sum_all(sub(a, b))),
        "mul": lambda r: ((a := t((2, 3)), b := t((2, 3))), lambda: sum_all(mul(a, b))),
        "scale": lambda r: ((a := t((2, 3)),), lambda: sum_all(scale(a, 1.7))),
        "relu": lambda r: ((a := away_from_kink((3, 3)),), lambda: sum_all(relu(a))),
        "gelu": lambda r: ((a := t((3, 3)),), lambda: sum_all(gelu(a))),
        "softmax_ce": lambda r: (
            (a := t((4, 3)),),
            lambda: softmax_cross_entropy(a, labels),
        ),
    }
    for name, build in cases.items():
        for _ in range(100):
            labels = rng.integers(0, 3, size=4)
            _fd_trial(rng, build)

    # low-rank forward: gradients flow through both factors and the bias
    for _ in range(100):
        block = compress_block(
            DenseBlock(t((3, 4)), t((3,)), "gelu"), LowRank(2)
        )
        x = Tensor(rng.uniform(-2, 2, size=(4, 4)))
        backward(sum_all(block.forward(x)))
        for name, p in block.named_parameters():
            saved = p.data.copy()

            def f(values, p=p):
                p.data[...] = values
                out = float(sum_all(block.forward(x)).data)
                p.data[...] = saved
                return out

            assert rel_error(p.grad, finite_difference(f, saved.copy())) <= 1e-4, name

    # STE: gradient wrt the full-precision weights is the identity-Jacobian
    # pullback, exactly equal to the dense gradient at the transformed point
    for _ in range(100):
        w = t((3, 5))
        mask = (rng.uniform(size=(3, 5)) > 0.5).astype(float)
        out = ste_apply(w, lambda v, m=mask: v * m)
        backward(sum_all(mul(out, out)))
        dense_w = Tensor(w.data * mask, requires_grad=True)
        backward(sum_all(mul(dense_w, dense_w)))
        assert np.array_equal(w.grad, dense_w.grad)

    _done("A4", t0, 30.0, "100 finite-difference trials per op (rel err <= 1e-4, h=1e-5); low-rank forward included; STE gradient exact")


def test_a5_mask_and_factor_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)

    for _ in range(200):  # layer-wise
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        w = rng.normal(size=(n, m))
        s = float(rng.uniform(0.0, 0.99))
        mask = prune_layerwise(w, s)
        assert int((mask == 0).sum()) == math.floor(s * n * m)
        kept, dropped = np.abs(w)[mask == 1], np.abs(w)[mask == 0]
        if kept.size and dropped.size:
            assert dropped.max() <= kept.min()

    for _ in range(200):  # global
        layers = [rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
                  for _ in range(int(rng.integers(1, 4)))]
        s = float(rng.uniform(0.0, 0.99))
        masks = prune_global(layers, s)
        total = sum(w.size for w in layers)
        assert sum(int((m == 0).sum()) for m in masks) == math.floor(s * total)
        kept = np.concatenate([np.abs(w)[m == 1] for w, m in zip(layers, masks)])
        dropped = np.concatenate([np.abs(w)[m == 0] for w, m in zip(layers, masks)])
        if kept.size and dropped.size:
            assert dropped.max() <= kept.min()

    for _ in range(200):  # N:M groups, including the ragged trailing group
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 33))
        group = int(rng.integers(1, 9))
        keep = int(rng.integers(1, group + 1))
        mask = prune_nm(rng.normal(size=(n, m)), keep=keep, group=group)
        for start in range(0, m, group):
            width = min(group, m - start)
            want = keep if width == group else -(-keep * width // group)
            assert np.all(mask[:, start : start + width].sum(axis=1) == want)

    for _ in range(200):  # structured rows
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        w = rng.normal(size=(n, m))
        s = float(rng.uniform(0.0, 0.99))
        mask = prune_structured(w, s)
        rows = mask.sum(axis=1)
        assert set(rows.tolist()) <= {0.0, float(m)}
        assert int((rows == 0).sum()) == math.floor(s * n)

    for _ in range(50):  # SVD against the eigendecomposition oracle
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        w = rng.normal(size=(n, m)) * float(rng.choice([0.01, 1.0, 100.0]))
        r = int(rng.integers(1, min(n, m) + 1))
        res = truncated_svd(w, r)
        sig = singular_values_oracle(w)
        assert np.max(np.abs(res.singular_values - sig[:r])) <= 1e-8
        approx = res.u @ np.diag(res.singular_values) @ res.v.T
        assert abs(np.linalg.norm(w - approx) ** 2 - float((sig[r:] ** 2).sum())) <= 1e-8

    _done("A5", t0, 30.0, "200 matrices per pruning variant meet exact count/group/row rules; 50 SVDs match the eigen-oracle <= 1e-8")


def test_a6_parameter_accounting():
    t0 = time.perf_counter()
    sizes = [64, 64, 64, 32]
    specs = (
        [PruneUnstructuredLayer(s) for s in (0.9, 0.95, 0.99)]
        + [PruneUnstructuredGlobal(s) for s in (0.9, 0.95, 0.99)]
        + [PruneNM(1, m) for m in (8, 16, 32)]
        + [LowRank(r) for r in (4, 8, 16)]
    )
    for spec in specs:
        net = init_params(sizes, seed=3)
        direct = compress_network(net, spec)
        blended = wrap_network(net, spec, BetaScheduler(q=1, t=1))
        done = finalize(blended)
        assert done.param_count() == direct.param_count(), spec
        if isinstance(spec, LowRank):
            for block in done.blocks:
                n, m = block.out_dim, block.in_dim
                assert block.param_count() - n == spec.rank * (n + m)
    _done("A6", t0, 10.0, "finalized == directly-compressed param_count for 12 specs; low-rank layers store exactly r(n+m) weights")


SPIRAL_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "spiral.json"


@pytest.fixture
def spiral_config(tmp_path):
    # the shipped A7 config (README), writing under tmp_path
    def make(**extra):
        cfg = {**json.loads(SPIRAL_CONFIG.read_text()), "output_dir": str(tmp_path / "out"), **extra}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    return make


def test_a7_desk_scale_comparison(spiral_config, tmp_path):
    t0 = time.perf_counter()
    config = spiral_config()
    assert main(["compare", "--config", str(config), "--quiet"]) == 0  # exit 0: no seed diverged

    comp = read_compare(tmp_path / "out" / "compare.json")
    ste_mean = comp["aggregate"]["baseline_test_accuracy"]["mean"]
    vcon_mean = comp["aggregate"]["vcon_test_accuracy"]["mean"]
    for row in comp["per_seed"]:
        assert math.isfinite(row["vcon_test_accuracy"])
        assert math.isfinite(row["baseline_test_accuracy"])
    assert vcon_mean >= ste_mean - 0.01, (
        f"vcon mean {vcon_mean:.4f} fell more than 1pp below ste mean {ste_mean:.4f}"
    )
    direction = "above" if vcon_mean >= ste_mean else "below"
    _done(
        "A7", t0, 300.0,
        f"5-seed spiral at 0.95 sparsity: vcon {vcon_mean:.4f} vs ste {ste_mean:.4f} "
        f"{comp['aggregate']['formatted_delta']}, within the 1pp bar (vcon {direction} ste; direction reported, not asserted)",
    )


def test_a8_q_sweep_deliverable(spiral_config, tmp_path):
    t0 = time.perf_counter()
    config = spiral_config(q_epochs=[2, 12, 25], output_dir=str(tmp_path / "sweep"))
    assert main(["sweep-q", "--config", str(config), "--quiet"]) == 0

    rows = read_sweep_csv(tmp_path / "sweep" / "sweep.csv")
    spe = steps_per_epoch(1050, 64)
    q_values = [2 * spe, 12 * spe, 25 * spe]
    assert len(rows) == 3 * 5 * 60  # |Q| x seeds x epochs
    assert sorted({q for q, *_ in rows}) == q_values

    for q in q_values:
        for seed in range(5):
            log = read_runlog(
                tmp_path / "sweep" / f"q{q}" / f"runlog_steps_seed{seed}.csv",
                tmp_path / "sweep" / f"q{q}" / f"runlog_epochs_seed{seed}.csv",
            )
            betas = [s[1] for s in log.steps]
            assert all(b == beta_at(i, q) for i, b in enumerate(betas))
            assert betas[q] == 0.0 and betas[q - 1] > 0.0  # reaches 0 exactly at its own Q
    _done("A8", t0, 600.0, f"swept Q={q_values} steps over 5 seeds: 900 merged rows, per-run beta columns exact")
