import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vconlab import cli, compression
from vconlab.compression import (
    FAMILIES,
    BinaryQuant,
    LowRank,
    PruneNM,
    PruneStructured,
    PruneUnstructuredGlobal,
    PruneUnstructuredLayer,
    compress_block,
    compress_network,
    prune_global,
    prune_layerwise,
    prune_nm,
    prune_structured,
    refresh_blocks,
    spec_from_dict,
    spec_to_dict,
    truncated_svd,
)
from vconlab.model import DenseBlock, init_params, stack_networks
from vconlab.tensor import Tensor, backward
from vconlab.training import OptimizerSpec, TrainConfig, make_synthetic, train

from engine_ops import sum_all
from oracles import (
    finite_difference,
    per_group_nm_mask_oracle,
    per_pair_jacobi_svd,
    rel_error,
    rerank_mask_oracle,
    singular_values_oracle,
    stable_sort_masks_oracle,
)


# --------------------------------------------------------------------------
# Layer-wise pruning


def test_prune_layerwise_frozen_example():
    w = np.array([[0.1, -2.0], [0.5, 0.05]])
    mask = prune_layerwise(w, 0.5)
    assert np.array_equal(mask, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(mask, rerank_mask_oracle(w, 0.5))


def test_prune_layerwise_tie_rule():
    # all magnitudes equal: the smallest flat indices go first
    mask = prune_layerwise(np.full((2, 2), 0.3), 0.5)
    assert np.array_equal(mask.ravel(), np.array([0.0, 0.0, 1.0, 1.0]))


def test_prune_layerwise_sparsity_zero_keeps_all():
    w = np.random.default_rng(0).normal(size=(5, 7))
    assert np.array_equal(prune_layerwise(w, 0.0), np.ones((5, 7)))


def test_prune_layerwise_rejects_sparsity_one():
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        prune_layerwise(np.ones((2, 2)), 1.0)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.99))
@settings(max_examples=60)
def test_prune_layerwise_invariants(seed, sparsity):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    # mix continuous values with duplicates so ties actually occur
    w = rng.choice([0.0, 0.25, -0.25, 1.5], size=(n, m)) + rng.integers(0, 2) * rng.normal(size=(n, m))
    mask = prune_layerwise(w, sparsity)
    zeros = int((mask == 0).sum())
    assert zeros == math.floor(sparsity * n * m)
    assert np.array_equal(mask, rerank_mask_oracle(w, sparsity))
    # kept entries dominate dropped ones
    kept_scores = np.abs(w)[mask == 1.0]
    dropped_scores = np.abs(w)[mask == 0.0]
    if kept_scores.size and dropped_scores.size:
        assert dropped_scores.max() <= kept_scores.min()


@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.99), st.floats(0.001, 1000.0))
@settings(max_examples=40)
def test_prune_layerwise_scale_invariance(seed, sparsity, c):
    w = np.random.default_rng(seed).normal(size=(6, 6))
    assert np.array_equal(prune_layerwise(w, sparsity), prune_layerwise(c * w, sparsity))


# --------------------------------------------------------------------------
# Global pruning


def test_prune_global_prefers_small_layer():
    masks = prune_global([np.array([[10.0, 10.0]]), np.array([[0.1, 0.1]])], 0.5)
    assert np.array_equal(masks[0], np.ones((1, 2)))
    assert np.array_equal(masks[1], np.zeros((1, 2)))


def test_prune_global_single_layer_equals_layerwise():
    w = np.random.default_rng(3).normal(size=(4, 6))
    assert np.array_equal(prune_global([w], 0.4)[0], prune_layerwise(w, 0.4))


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.99))
@settings(max_examples=60)
def test_prune_global_invariants(seed, sparsity):
    rng = np.random.default_rng(seed)
    layers = [rng.normal(size=(int(rng.integers(1, 8)), int(rng.integers(1, 8))))
              for _ in range(int(rng.integers(1, 4)))]
    masks = prune_global(layers, sparsity)
    total = sum(w.size for w in layers)
    zeros = sum(int((m == 0).sum()) for m in masks)
    assert zeros == math.floor(sparsity * total)
    kept = np.concatenate([np.abs(w)[m == 1.0] for w, m in zip(layers, masks)])
    dropped = np.concatenate([np.abs(w)[m == 0.0] for w, m in zip(layers, masks)])
    if kept.size and dropped.size:
        assert dropped.max() <= kept.min()


def test_prune_global_tie_rule_layer_order():
    # equal magnitudes everywhere: zeros fill earlier layers first
    masks = prune_global([np.full((1, 3), 2.0), np.full((1, 3), 2.0)], 0.5)
    assert np.array_equal(masks[0], np.zeros((1, 3)))
    assert np.array_equal(masks[1], np.array([[1.0, 1.0, 1.0]]))


# --------------------------------------------------------------------------
# N:M pruning


def test_prune_nm_frozen_example():
    mask = prune_nm(np.array([[0.3, -0.7, 0.2, 0.1]]), keep=1, group=4)
    assert np.array_equal(mask, np.array([[0.0, 1.0, 0.0, 0.0]]))


def test_prune_nm_trailing_group_keeps_ceil():
    # m=10, group=4 -> trailing width 2 keeps ceil(2*2/4) = 1
    w = np.arange(1.0, 11.0).reshape(1, 10)
    mask = prune_nm(w, keep=2, group=4)
    assert mask[:, :4].sum() == 2
    assert mask[:, 4:8].sum() == 2
    assert mask[:, 8:].sum() == 1
    assert np.array_equal(mask[0, 8:], np.array([0.0, 1.0]))  # larger |w| kept


def test_prune_nm_tie_rule():
    mask = prune_nm(np.full((1, 4), 0.5), keep=2, group=4)
    assert np.array_equal(mask, np.array([[0.0, 0.0, 1.0, 1.0]]))


def test_prune_nm_rejects_bad_ratio():
    with pytest.raises(ValueError, match="1 <= N <= M"):
        prune_nm(np.ones((2, 4)), keep=5, group=4)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_prune_nm_group_counts(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 20))
    group = int(rng.integers(1, 9))
    keep = int(rng.integers(1, group + 1))
    mask = prune_nm(rng.normal(size=(n, m)), keep=keep, group=group)
    for start in range(0, m, group):
        width = min(group, m - start)
        expected = keep if width == group else -(-keep * width // group)
        counts = mask[:, start : start + width].sum(axis=1)
        assert np.all(counts == expected)


# --------------------------------------------------------------------------
# Structured pruning


def test_prune_structured_frozen_example():
    mask = prune_structured(np.array([[3.0, 4.0], [0.1, 0.0]]), 0.5)
    assert np.array_equal(mask, np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_prune_structured_whole_rows_and_tie_rule():
    w = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    mask = prune_structured(w, 0.34)  # floor(0.34*3) = 1 row
    assert np.array_equal(mask, np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]))


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.99))
@settings(max_examples=60)
def test_prune_structured_invariants(seed, sparsity):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    mask = prune_structured(rng.normal(size=(n, m)), sparsity)
    row_sums = mask.sum(axis=1)
    assert set(row_sums.tolist()) <= {0.0, float(m)}
    assert int((row_sums == 0).sum()) == math.floor(sparsity * n)


# --------------------------------------------------------------------------
# Selection against the stable sort

# per-layer palettes: heavy ties among small integers and signed zeros, an
# all-zero layer, and continuous values; NaN sits in two of them
_PALETTES = [
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, math.nan]),
    st.sampled_from([0.0, -0.0]),
    st.one_of(st.floats(-4.0, 4.0, allow_nan=False), st.just(math.nan)),
]


@st.composite
def _layer(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = draw(st.lists(draw(st.sampled_from(_PALETTES)), min_size=n * m, max_size=n * m))
    return np.array(values, dtype=np.float64).reshape(n, m)


def _sparsity(draw, size):
    """0, any fraction, or the one that drops all but one of ``size``."""
    return draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.99)), (size - 0.5) / size]))


@given(st.data())
@settings(max_examples=300)
def test_masks_equal_the_stable_sort_bit_for_bit(data):
    layers = data.draw(st.lists(_layer(), min_size=1, max_size=3))
    s_global = _sparsity(data.draw, sum(w.size for w in layers))
    got = prune_global(layers, s_global)
    want = stable_sort_masks_oracle(layers, s_global, "global")
    for g, o in zip(got, want, strict=True):
        assert g.dtype == o.dtype and g.shape == o.shape and g.tobytes() == o.tobytes()
    w = layers[0]
    s_layer = _sparsity(data.draw, w.size)
    assert prune_layerwise(w, s_layer).tobytes() == stable_sort_masks_oracle([w], s_layer, "layer")[0].tobytes()
    s_rows = _sparsity(data.draw, w.shape[0])
    got, want = prune_structured(w, s_rows), stable_sort_masks_oracle([w], s_rows, "rows")[0]
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# a NaN whose payload is not the default one's must still tie with every NaN
_PAYLOAD_NAN = np.array(0x7FF8000000000123, dtype=np.int64).view(np.float64).item()
_INF_PALETTE = st.sampled_from([math.inf, -math.inf, 1.0, -1.0, 0.0, -0.0, math.nan, _PAYLOAD_NAN, -_PAYLOAD_NAN])


@given(st.data())
@settings(max_examples=400)
def test_nm_masks_equal_the_per_group_argsort_bit_for_bit(data):
    # groups of 1-12 columns, with trailing groups, groups wider than the
    # layer and keep == group; the rank dtype's width bound is tested below
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 30))
    palette = data.draw(st.sampled_from([*_PALETTES, _INF_PALETTE]))
    w = np.array(data.draw(st.lists(palette, min_size=n * m, max_size=n * m)), dtype=np.float64).reshape(n, m)
    group = data.draw(st.integers(1, 12))
    keep = data.draw(st.sampled_from([1, group, data.draw(st.integers(1, group))]))
    got, want = prune_nm(w, keep, group), per_group_nm_mask_oracle(w, keep, group)
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("group", [255, 256, 257, 300])
def test_wide_nm_groups_equal_the_per_group_argsort(group):
    # ranks are uint8 up to 256 columns and uint16 past it; each layer has two
    # full groups and a trailing one 30 columns short, which for 300 columns
    # is 270 wide, so a trailing group crosses the bound too
    rng = np.random.default_rng(group)
    m = 3 * group - 30
    ties = rng.choice([0.0, -0.0, 0.5, -0.5, 2.0, math.nan], size=(3, m))
    w = np.vstack([ties, rng.normal(size=(2, m)), np.zeros((1, m))])
    w[3, ::7] = math.nan
    for keep in (1, group // 2, group - 1, group):
        got, want = prune_nm(w, keep, group), per_group_nm_mask_oracle(w, keep, group)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_nan_scores_are_pruned_last_in_index_order():
    # threshold at NaN: every number goes first, then NaNs by flat index
    w = np.array([[math.nan, 1.0], [math.nan, 0.0]])
    assert np.array_equal(prune_layerwise(w, 0.75), np.array([[0.0, 0.0], [1.0, 0.0]]))
    masks = prune_global([np.array([[math.nan]]), np.array([[math.nan, 5.0]])], 0.7)
    assert np.array_equal(masks[0], np.zeros((1, 1))) and np.array_equal(masks[1], np.array([[1.0, 0.0]]))
    rows = prune_structured(np.array([[math.nan, 0.0], [1.0, 1.0], [0.0, math.nan]]), 0.9)
    assert np.array_equal(rows[:, 0], np.array([0.0, 0.0, 1.0]))


_RUN_COMPRESSION = {
    "prune_layer": {"kind": "prune_layer", "sparsity": 0.6},
    "prune_global": {"kind": "prune_global", "sparsity": 0.6},
    "prune_structured": {"kind": "prune_structured", "sparsity": 0.6},
    "prune_nm_2_4": {"kind": "prune_nm", "keep": 2, "group": 4},
    "prune_nm_3_8": {"kind": "prune_nm", "keep": 3, "group": 8},
    "prune_nm_3_12": {"kind": "prune_nm", "keep": 3, "group": 12},
}
# 3:12 gets hidden layers of 24 and 30 inputs: two full groups each, and a trailing 6 on the second
_RUN_SIZES = {"prune_nm_3_12": [2, 24, 30, 3]}


@pytest.mark.parametrize("kind", list(_RUN_COMPRESSION))
@pytest.mark.parametrize("mode", ["ste_standard", "vcon"])
def test_runs_match_stable_sort_masks(tmp_path, monkeypatch, kind, mode):
    # the same run with the masks built by the stable-sort oracles writes the
    # same step logs and the same checkpoint bytes; in one process, both seeds
    # train as one stack
    monkeypatch.setattr(cli, "_worker_count", lambda tasks: 1)
    cfg = {
        "model": {"layer_sizes": _RUN_SIZES.get(kind, [2, 8, 6, 3])},
        "dataset": {"kind": "spiral", "classes": 3, "samples_per_class": 30, "noise": 0.2, "seed": 0},
        "compression": _RUN_COMPRESSION[kind],
        "optimizer": {"kind": "adam", "lr": 0.05},
        "mode": mode, "q_steps": 5, "epochs": 3, "batch_size": 16, "seeds": [0, 1],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))

    def run(out):
        assert cli.main(["train", "--config", str(path), "--quiet", "--set", f"output_dir={out}"]) == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.name != "summary.json"}

    def per_member(oracle):
        # the oracles take lone weights; a run trains its seeds as one stack
        def masks(ws, *args):
            members = [w.reshape(-1, *w.shape[-2:]) for w in ws]
            per = [oracle([w[i] for w in members], *args) for i in range(len(members[0]))]
            return [np.stack(layer).reshape(w.shape) for w, layer in zip(ws, zip(*per))]
        return masks

    shipped = run(tmp_path / "shipped")
    monkeypatch.setattr(compression, "prune_global", per_member(lambda ws, s: stable_sort_masks_oracle(ws, s, "global")))
    for name, oracle in (("prune_layerwise", lambda ws, s: stable_sort_masks_oracle(ws, s, "layer")),
                         ("prune_structured", lambda ws, s: stable_sort_masks_oracle(ws, s, "rows")),
                         ("prune_nm", lambda ws, keep, group: [per_group_nm_mask_oracle(ws[0], keep, group)])):
        monkeypatch.setattr(compression, name, lambda w, *args, masks=per_member(oracle): masks([w], *args)[0])
    assert run(tmp_path / "oracle") == shipped
    assert any(name.startswith("checkpoint_seed") for name in shipped)
    assert any(name.startswith("runlog_steps_seed") for name in shipped)


# --------------------------------------------------------------------------
# Binarization


def _binarized(w):
    """A binary block's state (alpha, signs) for the weight ``w``."""
    block = DenseBlock(Tensor(np.asarray(w, dtype=np.float64)), Tensor(np.zeros(len(w))), "none")
    return compress_block(block, BinaryQuant()).state


def test_binarize_frozen_example():
    alpha, signs = _binarized([[3.0, -4.0]])
    assert abs(alpha - 5.0 / math.sqrt(2.0)) < 1e-12
    assert np.array_equal(signs, np.array([[1.0, -1.0]]))


def test_binarize_sign_of_zero_is_positive():
    assert np.array_equal(_binarized([[0.0, -0.0]])[1], np.array([[1.0, 1.0]]))


@pytest.mark.parametrize("w", [
    [[0.0, -0.0, np.inf, -np.inf], [np.nan, -np.nan, 5e-324, -5e-324], [2.2e-308, -2.2e-308, 1.0, -1.0]],
    -np.arange(1.0, 13.0).reshape(3, 4),
], ids=["special_values", "all_negative"])
def test_binarize_signs_follow_the_where_rule_byte_for_byte(w):
    # +1.0 where w >= 0 (either zero, +inf, positive subnormals), -1.0 elsewhere (NaN of either sign too)
    w = np.array(w)
    signs = _binarized(w)[1]
    want = np.where(w >= 0.0, 1.0, -1.0)
    assert signs.dtype == want.dtype and signs.shape == want.shape
    assert signs.tobytes() == want.tobytes()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_binarize_alpha_formula(seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
    alpha, signs = _binarized(w)
    assert alpha == float(np.linalg.norm(w) / math.sqrt(w.size))
    assert set(np.unique(signs).tolist()) <= {-1.0, 1.0}


# --------------------------------------------------------------------------
# Truncated SVD


def test_truncated_svd_diag_example():
    res = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(res.singular_values, [3.0, 2.0], atol=1e-10)
    approx = res.u @ np.diag(res.singular_values) @ res.v.T
    err = np.linalg.norm(np.diag([3.0, 2.0, 1.0]) - approx)
    assert abs(err - 1.0) < 1e-8  # dropped tail is exactly sigma_3 = 1


def test_truncated_svd_full_rank_reconstructs():
    rng = np.random.default_rng(31)
    w = rng.normal(size=(5, 4))
    res = truncated_svd(w, 4)
    approx = res.u @ np.diag(res.singular_values) @ res.v.T
    assert np.linalg.norm(w - approx) <= 1e-8


def test_truncated_svd_orthonormal_factors_and_ordering():
    rng = np.random.default_rng(37)
    for shape in [(6, 4), (4, 6), (8, 8), (3, 1)]:
        w = rng.normal(size=shape)
        r = min(shape)
        res = truncated_svd(w, r)
        assert np.allclose(res.u.T @ res.u, np.eye(r), atol=1e-8)
        assert np.allclose(res.v.T @ res.v, np.eye(r), atol=1e-8)
        sig = res.singular_values
        assert np.all(sig[:-1] >= sig[1:] - 1e-15)
        assert np.all(sig >= 0.0)


def test_truncated_svd_matches_eigen_oracle():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        w = rng.normal(size=(n, m)) * rng.choice([0.1, 1.0, 10.0])
        r = int(rng.integers(1, min(n, m) + 1))
        res = truncated_svd(w, r)
        expected = singular_values_oracle(w)
        assert np.max(np.abs(res.singular_values - expected[:r])) <= 1e-8


def test_truncated_svd_frobenius_error_identity():
    rng = np.random.default_rng(43)
    for _ in range(25):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        w = rng.normal(size=(n, m))
        r = int(rng.integers(1, min(n, m) + 1))
        res = truncated_svd(w, r)
        approx = res.u @ np.diag(res.singular_values) @ res.v.T
        err_sq = np.linalg.norm(w - approx) ** 2
        tail_sq = float((singular_values_oracle(w)[r:] ** 2).sum())
        assert abs(err_sq - tail_sq) <= 1e-8


def test_truncated_svd_error_nonincreasing_in_rank():
    w = np.random.default_rng(47).normal(size=(6, 6))
    errs = []
    for r in range(1, 7):
        res = truncated_svd(w, r)
        errs.append(np.linalg.norm(w - res.u @ np.diag(res.singular_values) @ res.v.T))
    assert all(a >= b - 1e-10 for a, b in zip(errs, errs[1:]))


def test_truncated_svd_rejects_bad_rank():
    with pytest.raises(ValueError, match="rank"):
        truncated_svd(np.ones((3, 4)), 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_truncated_svd_rejects_non_finite_entries(bad):
    w = np.ones((5, 4))
    w[2, 1] = bad
    with pytest.raises(ValueError, match="the 5x4 matrix has NaN or inf"):
        truncated_svd(w, 2)


@pytest.mark.parametrize(
    "w, shape",
    [
        # pp*qq overflows, the threshold is inf and no pair ever rotated: wrong singular values
        (np.array([[1e100, 2e100], [3e100, 1e100], [1.0, 5e99]]), "3x2"),
        # |x|^2 is inf, inf*0 is NaN and the rotation divided by a zero dot
        (np.array([[1e200, 0.0]] * 4), "4x2"),
    ],
)
def test_truncated_svd_rejects_sums_of_squares_past_the_bound(w, shape):
    for rank in (1, 2):
        with pytest.raises(ValueError, match=rf"the {shape} matrix's sum of squares is"):
            truncated_svd(w, rank)
        with pytest.raises(ValueError, match=rf"the {shape[::-1]} matrix's sum of squares is"):
            truncated_svd(w.T, rank)


# sqrt of the largest float: (w*w).sum() must stay below it for its square to be finite
_SQUARES_BOUND = math.sqrt(np.finfo(np.float64).max)


def test_truncated_svd_just_inside_the_bound_matches_the_per_pair_loop():
    w = np.random.default_rng(59).normal(size=(9, 6))
    w *= math.sqrt(_SQUARES_BOUND / float((w * w).sum())) * (1.0 - 1e-12)
    energy = float((w * w).sum())
    assert _SQUARES_BOUND * 0.999 < energy and math.isfinite(energy * energy)
    for m in (w, w.T):
        _assert_svd_matches_per_pair_loop(m, min(m.shape))
    with pytest.raises(ValueError, match="sum of squares"):
        truncated_svd(w * 1.001, 2)


def test_jacobi_waves_hold_each_pair_once_in_cyclic_order():
    for cols in range(1, 41):
        bounds = compression._jacobi_waves(cols)
        assert len(bounds) == max(0, 2 * cols - 3)
        waves = [[(i, w - i) for i in range(lo, hi)] for w, (lo, hi) in enumerate(bounds, start=1)]
        assert all(wave for wave in waves)
        cyclic = [(i, j) for i in range(cols - 1) for j in range(i + 1, cols)]
        assert sorted(pair for wave in waves for pair in wave) == cyclic
        for wave in waves:
            touched = [k for pair in wave for k in pair]
            assert len(set(touched)) == len(touched)
        wave_of = {pair: n for n, wave in enumerate(waves) for pair in wave}
        for k in range(cols):  # the pairs holding column k, in cyclic order, run in later and later waves
            holding = [wave_of[pair] for pair in cyclic if k in pair]
            assert holding == sorted(set(holding))


# the package's dots run over stride 2 (each column in the even lanes of
# its row of the work array), the oracle's over stride cols; the bytes
# agree only where the BLAS strided ddot adds in the same order for every
# stride, as OpenBLAS's does. The package takes a wave's dots with one
# stacked np.matmul, which numpy hands, product by product, to that same
# strided ddot (checked on numpy 2.4.6)
_STRIDE_NOTE = (
    "Jacobi factors differ from the per-pair loop's; if this BLAS is not OpenBLAS, "
    "its strided ddot may add in a different order for stride 2 than for stride cols; "
    "if this numpy's vector-vector matmul does not call the strided ddot, the stacked "
    "dots of a wave differ from the per-pair dots"
)

_MATMUL_NOTE = (
    "a stacked np.matmul of 1 x n stride-2 rows by n x 1 columns differs from each pair's "
    "ndarray.dot; the Jacobi sweep assumes numpy's vector-vector matmul path hands every "
    "product of the stack to the strided ddot that x.dot(y) calls"
)


# one row is left out: ndarray.dot takes two length-1 vectors as scalars,
# so 0 * -1 is -0.0 there and +0.0 through the ddot; the sweep takes no pair
# dot on one row, since rows >= cols leaves a single column
@pytest.mark.parametrize("rows", [2, 3, 7, 37, 128])
def test_jacobi_stacked_matmul_of_stride_two_rows_gives_each_pairs_dot_bytes(rows):
    cols = 12
    rng = np.random.default_rng(rows)
    # the sweep's layout for a stack of three: member s's column k is col[s, k], at stride 2
    col = np.zeros((3, cols, 2 * rows))[..., ::2]
    col[0] = rng.normal(size=(cols, rows))
    col[0, 3] = 0.0
    col[0, 8:] *= 1e-160  # dots among rows 8-11 are subnormal
    col[2] = rng.normal(size=(cols, rows))  # member 1 stays zero
    stacks = [(col[:, :k], col[:, cols - k :]) for k in range(1, cols + 1)]  # forward
    stacks += [(col[:, lo:hi], col[:, w - lo : w - hi : -1])  # reversed, as in a wave
               for w, (lo, hi) in enumerate(compression._jacobi_waves(cols), start=1)]
    stacks += [(col, col), (col[:, ::-1], col), (col[::-1], col)]
    assert any(0.0 < abs(float(x.dot(x))) < np.finfo(np.float64).tiny for x in col[0])
    for x, y in stacks:  # the whole stack, and its first member alone
        want = np.array([[x[s, k].dot(y[s, k]) for k in range(x.shape[1])] for s in range(len(x))])
        assert compression._strided_dots(x, y).tobytes() == want.tobytes(), _MATMUL_NOTE
        assert compression._strided_dots(x[0], y[0]).tobytes() == want[0].tobytes(), _MATMUL_NOTE


def _assert_svd_matches_per_pair_loop(w, rank):
    res = truncated_svd(w, rank)
    u, sig, v = per_pair_jacobi_svd(w, rank)
    assert res.u.tobytes() == u.tobytes() and res.u.shape == u.shape, _STRIDE_NOTE
    assert res.singular_values.tobytes() == sig.tobytes(), _STRIDE_NOTE
    assert res.v.tobytes() == v.tobytes() and res.v.shape == v.shape, _STRIDE_NOTE


def test_truncated_svd_bit_identical_to_per_pair_loop_when_products_of_norms_underflow(monkeypatch):
    # entries near 1e-150: every pp * qq underflows to 0, but the threshold
    # takes sqrt(pp) and sqrt(qq) apart, so it stays above 0 and the sweeps
    # stop long before SVD_MAX_SWEEPS
    w = np.random.default_rng(19).normal(size=(19, 13)) * 1e-150
    assert (w[:, 0] @ w[:, 0]) * (w[:, 1] @ w[:, 1]) == 0.0
    _assert_svd_matches_per_pair_loop(w, 13)
    full = truncated_svd(w, 13)
    monkeypatch.setattr(compression, "SVD_MAX_SWEEPS", 20)
    assert truncated_svd(w, 13).v.tobytes() == full.v.tobytes()  # done within 20 sweeps


@pytest.mark.parametrize("power", [-400, -100, 100, 200])
def test_truncated_svd_scaled_by_a_power_of_two_makes_the_same_rotations(power):
    # every dot scales by 4**power and the threshold with it, exactly, while
    # the squares stay normal floats: the same pairs turn by the same c and s
    w = np.random.default_rng(23).normal(size=(17, 11))
    scaled = w * 2.0**power
    assert np.isfinite((scaled * scaled).sum() ** 2) and (scaled * scaled)[scaled != 0].min() > np.finfo(float).tiny
    base, res = truncated_svd(w, 11), truncated_svd(scaled, 11)
    assert res.u.tobytes() == base.u.tobytes()
    assert res.v.tobytes() == base.v.tobytes()
    assert res.singular_values.tobytes() == (base.singular_values * 2.0**power).tobytes()
    _assert_svd_matches_per_pair_loop(scaled, 11)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_truncated_svd_bit_identical_to_per_pair_loop_on_init_layers(seed):
    # the low-rank benchmark's layers: 128x2, 128x128 and the wide 3x128
    for block in init_params([2, 128, 128, 3], seed).blocks:
        w = block.weight.data
        _assert_svd_matches_per_pair_loop(w, min(16, *w.shape))


def test_truncated_svd_bit_identical_to_per_pair_loop_after_adam():
    ds = make_synthetic("spiral", classes=3, samples_per_class=100, seed=0)
    cfg = TrainConfig(epochs=22, batch_size=16, seed=0, optimizer=OptimizerSpec(kind="adam", lr=1e-2))
    net, log = train(init_params([2, 32, 32, 3], 0), ds, cfg)
    assert len(log.steps) >= 300
    for block in net.blocks:
        w = block.weight.data
        _assert_svd_matches_per_pair_loop(w, min(w.shape))


@settings(max_examples=60)
@given(
    shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
    seed=st.integers(0, 2**32 - 1),
    lowest=st.integers(-160, 74),
    spread=st.integers(0, 20),
    sources=st.lists(st.integers(-1, 23), max_size=24),
    at_bound=st.booleans(),
)
def test_truncated_svd_bytes_equal_the_per_pair_loop(shape, seed, lowest, spread, sources, at_bound):
    rng = np.random.default_rng(seed)
    # entries of magnitude 1e-160 (their squares and dots subnormal) up to 1e75
    exponent = rng.integers(lowest, min(lowest + spread, 74), size=shape, endpoint=True)
    w = rng.uniform(1.0, 10.0, size=shape) * rng.choice([-1.0, 1.0], size=shape) * 10.0**exponent
    for k, src in enumerate(sources[: shape[1]]):  # -1: a zero column; an earlier index: a duplicate
        if src < 0:
            w[:, k] = 0.0
        elif src < k:
            w[:, k] = w[:, src]
    if at_bound and w.any():  # scale by powers of two to a sum of squares within 8x of the bound
        w = np.ldexp(w, -np.frexp(np.abs(w).max())[1])
        w = np.ldexp(w, math.floor(math.log2(_SQUARES_BOUND / float((w * w).sum())) / 2 - 0.5))
    energy = float((w * w).sum())
    assert math.isfinite(energy * energy)
    _assert_svd_matches_per_pair_loop(w, min(shape))


def test_truncated_svd_bit_identical_to_per_pair_loop_on_edge_shapes():
    rng = np.random.default_rng(53)
    zero_and_twin = rng.normal(size=(12, 6))
    zero_and_twin[:, 2] = 0.0
    zero_and_twin[:, 4] = zero_and_twin[:, 1]
    # |x|^2 = 3e152 and |y|^2 = 0 (underflow) with x.y = 2e-224: zeta = -|x|^2 / (2 x.y) is past the
    # largest float, -inf in the per-pair loop's Python floats, so t = -0.0 and the pair turns by c = 1
    overflow = np.array([[1e76, 1e-300], [1e76, 2e-300], [1e76, -1e-300]])
    cases = [
        zero_and_twin,
        zero_and_twin.T,  # a zero row and two identical rows on the transposed path
        rng.normal(size=(5, 9)),  # n < m
        rng.normal(size=(1, 7)),
        rng.normal(size=(7, 1)),
        rng.normal(size=(1, 1)),
        rng.normal(size=(9, 9)) * 1e-3,
        rng.normal(size=(9, 7)),  # odd column count: the last column has no lane partner
        rng.normal(size=(64, 64)),
        rng.normal(size=(70, 67)),  # odd, and waves of up to 33 pairs, past the hypothesis test's 24 columns
        overflow,
        overflow.T,
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        for w in cases:
            for rank in sorted({1, min(w.shape)}):
                _assert_svd_matches_per_pair_loop(w, rank)


# --------------------------------------------------------------------------
# Stacked SVD: one wave loop for every member

# kinds of member whose sweeps stop after different counts: a zero matrix and
# orthogonal columns rotate nothing, duplicate columns and the 1e-150 scale take
# their own course, and one member sits just inside the (w*w).sum()**2 bound
_SVD_MEMBER_KINDS = ("normal", "zero", "orthogonal", "duplicate", "tiny", "at_bound")


def _svd_stack_member(kind, rows, cols, rng):
    """A rows x cols member (rows >= cols) of the given kind."""
    w = rng.normal(size=(rows, cols))
    if kind == "zero":
        return np.zeros((rows, cols))
    if kind == "orthogonal":  # each column one nonzero entry, in its own row: every dot is exactly 0
        out = np.zeros((rows, cols))
        out[rng.permutation(rows)[:cols], np.arange(cols)] = w[0]
        return out
    if kind == "duplicate":
        w[:, 1::2] = w[:, :1]
        return w
    if kind == "tiny":
        return w * 1e-150
    if kind == "at_bound":
        w *= math.sqrt(_SQUARES_BOUND / float((w * w).sum())) * (1.0 - 1e-12)
        energy = float((w * w).sum())
        assert _SQUARES_BOUND * 0.999 < energy and math.isfinite(energy * energy)
    return w


def _assert_stacked_svd_gives_each_members_bytes(stack, rank):
    res = truncated_svd(stack, rank)
    for k, member in enumerate(stack):
        lone = truncated_svd(member, rank)
        u, sig, v = per_pair_jacobi_svd(member, rank)
        for got, alone, oracle in ((res.u[k], lone.u, u), (res.singular_values[k], lone.singular_values, sig),
                                   (res.v[k], lone.v, v)):
            assert got.shape == alone.shape == oracle.shape
            assert got.tobytes() == alone.tobytes(), f"stack member {k} differs from its lone SVD"
            assert got.tobytes() == oracle.tobytes(), _STRIDE_NOTE


@settings(max_examples=40, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(_SVD_MEMBER_KINDS), min_size=1, max_size=4),
    dims=st.tuples(st.integers(1, 16), st.integers(1, 16)),
    wide=st.booleans(),
    rank=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_svd_gives_each_member_its_lone_and_per_pair_bytes(kinds, dims, wide, rank, seed):
    rng = np.random.default_rng(seed)
    rows, cols = max(dims), min(dims)
    stack = np.stack([_svd_stack_member(kind, rows, cols, rng) for kind in kinds])
    if wide:
        stack = stack.swapaxes(-1, -2)
    _assert_stacked_svd_gives_each_members_bytes(stack, min(rank, cols))


def test_stacked_svd_members_stop_after_their_own_sweeps(monkeypatch):
    rng = np.random.default_rng(67)
    stack = np.stack([_svd_stack_member(kind, 19, 13, rng) for kind in _SVD_MEMBER_KINDS])
    for w in (stack, stack.swapaxes(-1, -2)):
        _assert_stacked_svd_gives_each_members_bytes(w, 13)
    full = truncated_svd(stack, 13)
    monkeypatch.setattr(compression, "SVD_MAX_SWEEPS", 1)
    one = truncated_svd(stack, 13)
    # the zero and orthogonal members are done after one sweep, the others are not
    done = [one.v[k].tobytes() == full.v[k].tobytes() for k in range(len(stack))]
    assert done == [kind in ("zero", "orthogonal") for kind in _SVD_MEMBER_KINDS]


def test_low_rank_compress_of_a_stack_takes_one_svd_per_layer(monkeypatch):
    calls = []
    real = compression.truncated_svd

    def counting(w, rank):
        calls.append(w.shape)
        return real(w, rank)

    monkeypatch.setattr(compression, "truncated_svd", counting)
    compress_network(stack_networks([init_params([2, 16, 16, 3], seed) for seed in range(5)]), LowRank(4))
    assert calls == [(5, 16, 2), (5, 16, 16), (5, 3, 16)]


@pytest.mark.parametrize("at", [0, 2])
@pytest.mark.parametrize("bad", ["nan", "past_bound"])
def test_stacked_svd_raises_a_bad_members_own_message(bad, at):
    stack = np.random.default_rng(71).normal(size=(3, 5, 4))
    if bad == "nan":
        stack[at, 2, 1] = np.nan
    else:
        stack[at, :, 0] = 1e200
    for w in (stack, stack.swapaxes(-1, -2)):
        with pytest.raises(ValueError) as alone:
            truncated_svd(w[at], 2)
        with pytest.raises(ValueError) as stacked:
            truncated_svd(w, 2)
        assert str(stacked.value) == f"{alone.value} (stack member {at})"


# --------------------------------------------------------------------------
# Factorized layers


def _dense(n, m, seed=0, activation="none"):
    rng = np.random.default_rng(seed)
    return DenseBlock(
        Tensor(rng.normal(size=(n, m)), requires_grad=True),
        Tensor(rng.normal(size=n), requires_grad=True),
        activation,
    )


def _factors(block, rank):
    fac = compress_block(block, LowRank(rank))
    return fac, fac.params["a"].data, fac.params["b"].data


def test_factorize_identity_recovers_exactly():
    block = DenseBlock(Tensor(np.eye(3)), Tensor(np.zeros(3)), "none")
    _, a, b = _factors(block, 3)
    assert np.linalg.norm(a @ b - np.eye(3)) <= 1e-8


def test_factorize_diag_rank_one():
    block = DenseBlock(Tensor(np.diag([3.0, 2.0, 1.0])), Tensor(np.zeros(3)), "none")
    _, a, b = _factors(block, 1)
    assert np.allclose(a @ b, np.diag([3.0, 0.0, 0.0]), atol=1e-10)


def test_factorize_param_count_100x100_r16():
    fac, a, b = _factors(_dense(100, 100, seed=1), 16)
    assert a.size + b.size == 3200
    assert fac.param_count() == 3200 + 100


def test_factorize_clamps_oversized_rank():
    fac, a, b = _factors(_dense(16, 2, seed=2), 4)
    assert a.shape == (16, 2)
    assert b.shape == (2, 2)
    assert fac.spec == LowRank(2)
    assert LowRank(4).shape_warnings(16, 2) == [
        "rank 4 clamped to 2 for a 16x2 layer",
        "rank 2 on a 16x2 layer stores 36 values vs 32 dense; no size benefit",
    ]


def test_low_rank_shape_warnings_name_no_size_benefit():
    # r(n+m) >= nm: rank 3 on a 4x4 layer stores 24 >= 16 values
    assert LowRank(3).shape_warnings(4, 4) == ["rank 3 on a 4x4 layer stores 24 values vs 16 dense; no size benefit"]
    assert LowRank(16).shape_warnings(100, 100) == []


# --------------------------------------------------------------------------
# Compressed blocks end to end


def test_all_ones_mask_forward_is_bit_equal_to_dense():
    block = _dense(4, 3, seed=5, activation="relu")
    comp = compress_block(block, PruneUnstructuredLayer(0.0))
    x = np.random.default_rng(6).uniform(-2, 2, size=(7, 3))
    assert np.array_equal(comp.forward(Tensor(x)).data, block.forward(Tensor(x)).data)


def test_binary_on_constant_magnitude_matrix_is_exact():
    w = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    block = DenseBlock(Tensor(w), Tensor(np.zeros(2)), "none")
    comp = compress_block(block, BinaryQuant())
    assert comp.state[0] == 0.5
    x = np.random.default_rng(7).uniform(-2, 2, size=(5, 2))
    assert np.array_equal(comp.forward(Tensor(x)).data, block.forward(Tensor(x)).data)


def test_low_rank_full_rank_forward_close_to_dense():
    block = _dense(4, 4, seed=8, activation="relu")
    comp = compress_block(block, LowRank(4))
    x = np.random.default_rng(9).uniform(-2, 2, size=(6, 4))
    assert np.max(np.abs(comp.forward(Tensor(x)).data - block.forward(Tensor(x)).data)) <= 1e-6


def test_ste_gradient_equals_dense_gradient_at_transformed_point():
    # loss(T(W)) grad via STE == dense grad evaluated at weight T(W), exactly
    block = _dense(4, 3, seed=10, activation="relu")
    comp = compress_block(block, PruneUnstructuredLayer(0.5))
    x = np.random.default_rng(11).uniform(-2, 2, size=(5, 3))
    backward(sum_all(comp.forward(Tensor(x))))

    surrogate = DenseBlock(
        Tensor(comp.params["weight"].data * comp.state, requires_grad=True),
        Tensor(comp.bias.data.copy(), requires_grad=True),
        "relu",
    )
    backward(sum_all(surrogate.forward(Tensor(x))))
    assert np.array_equal(comp.params["weight"].grad, surrogate.weight.grad)
    assert np.array_equal(comp.bias.grad, surrogate.bias.grad)


def test_low_rank_gradients_match_finite_differences():
    block = _dense(4, 3, seed=12, activation="relu")
    comp = compress_block(block, LowRank(2))
    x = np.random.default_rng(13).uniform(-2, 2, size=(5, 3))
    backward(sum_all(comp.forward(Tensor(x))))
    for name, p in comp.named_parameters():
        saved = p.data.copy()

        def f(values, p=p):
            p.data[...] = values
            out = float(sum_all(comp.forward(Tensor(x))).data)
            p.data[...] = saved
            return out

        assert rel_error(p.grad, finite_difference(f, saved.copy())) <= 1e-4, name


def test_refresh_swaps_mask_after_rerank():
    block = _dense(2, 2, seed=14)
    block.weight.data[...] = np.array([[1.0, 0.1], [2.0, 3.0]])
    comp = compress_block(block, PruneUnstructuredLayer(0.25))
    assert comp.state[0, 1] == 0.0
    # boost the pruned weight, kill a kept one, re-rank
    comp.params["weight"].data[0, 1] = 5.0
    comp.params["weight"].data[0, 0] = 0.0
    refresh_blocks([comp])
    assert comp.state[0, 1] == 1.0
    assert comp.state[0, 0] == 0.0


def test_refresh_blocks_shares_global_threshold():
    b1 = _dense(1, 2, seed=15)
    b2 = _dense(1, 2, seed=16)
    b1.weight.data[...] = [[10.0, 10.0]]
    b2.weight.data[...] = [[0.1, 0.1]]
    c1 = compress_block(b1, PruneUnstructuredGlobal(0.5))
    c2 = compress_block(b2, PruneUnstructuredGlobal(0.5))
    refresh_blocks([c1, c2])
    assert np.array_equal(c1.state, np.ones((1, 2)))
    assert np.array_equal(c2.state, np.zeros((1, 2)))


def test_freeze_mask_blocks_mask_refresh_but_not_alpha():
    pruned = compress_block(_dense(2, 2, seed=17), PruneUnstructuredLayer(0.5))
    binary = compress_block(_dense(2, 2, seed=18), BinaryQuant())
    old_mask = pruned.state.copy()
    old_alpha = binary.state[0]
    pruned.params["weight"].data *= -3.0  # reorders nothing, but flips values
    pruned.params["weight"].data[0, 0] = 100.0
    binary.params["weight"].data *= 2.0
    refresh_blocks([pruned, binary], refresh_masks=False)
    assert np.array_equal(pruned.state, old_mask)
    assert binary.state[0] == 2.0 * old_alpha


def test_binary_forward_uses_the_signs_of_the_last_refresh():
    # like a pruning mask, the signs change only when the block is refreshed
    block = compress_block(_dense(3, 4, seed=20), BinaryQuant())
    x = Tensor(np.random.default_rng(21).uniform(-2, 2, size=(5, 4)))
    alpha, signs = block.state
    weight = block.params["weight"].data
    weight[...] = -weight
    assert np.array_equal(block.forward(x).data, x.data @ (alpha * signs).T + block.bias.data)
    refresh_blocks([block])
    assert np.array_equal(block.state[1], -signs)
    assert np.array_equal(block.forward(x).data, x.data @ (alpha * -signs).T + block.bias.data)


# --------------------------------------------------------------------------
# Size accounting


def test_spec_param_count_frozen_values():
    assert PruneUnstructuredLayer(0.95).stored(64, 64) == 205
    assert PruneNM(1, 16).stored(64, 64) == 256
    assert LowRank(8).stored(64, 64) == 1024
    assert BinaryQuant().stored(64, 64) == 4096


def test_spec_param_count_structured_and_trailing_nm():
    assert PruneStructured(0.5).stored(10, 8) == 5 * 8
    # m=10, 2:4 groups -> 2+2+ceil(2*2/4)=5 per row
    assert PruneNM(2, 4).stored(3, 10) == 3 * 5


def test_bit_footprint_binary():
    assert BinaryQuant().bits(64, 64) == 4096 + 64
    assert PruneUnstructuredLayer(0.95).bits(64, 64) == 205 * 64


def test_block_param_count_matches_masks():
    net = init_params([2, 64, 64, 3], seed=20)
    comp = compress_network(net, PruneNM(1, 16))
    # 64x2 layer: trailing group of 2 keeps ceil(1*2/16)=1 per row
    assert comp.blocks[0].param_count() == 64 * 1 + 64
    assert comp.blocks[1].param_count() == 256 + 64
    assert comp.blocks[2].param_count() == 3 * 4 + 3


def test_spec_roundtrip_through_dicts():
    specs = [
        PruneUnstructuredLayer(0.9),
        PruneUnstructuredGlobal(0.5),
        PruneNM(2, 8),
        PruneStructured(0.25),
        BinaryQuant(),
        LowRank(4),
        None,
    ]
    assert {spec.kind for spec in specs if spec is not None} == set(FAMILIES)
    for spec in specs:
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_sparsity_validation_in_specs():
    with pytest.raises(ValueError):
        PruneUnstructuredLayer(-0.1)
    with pytest.raises(ValueError):
        PruneStructured(1.0)
    with pytest.raises(ValueError):
        LowRank(0)
