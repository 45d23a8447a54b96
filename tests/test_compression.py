import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vconlab.compression import (
    FAMILIES,
    BinaryQuant,
    LowRank,
    PruneNM,
    PruneStructured,
    PruneUnstructuredGlobal,
    PruneUnstructuredLayer,
    binarize_scaled,
    bit_footprint,
    compress_block,
    compress_network,
    factorize_layer,
    prune_global,
    prune_layerwise,
    prune_nm,
    prune_structured,
    refresh_blocks,
    spec_from_dict,
    spec_param_count,
    spec_to_dict,
    truncated_svd,
)
from vconlab.model import DenseBlock, init_params
from vconlab.tensor import Tensor, backward, sum_all

from oracles import finite_difference, rel_error, rerank_mask_oracle, singular_values_oracle


# --------------------------------------------------------------------------
# Scores


def test_magnitude_scores_examples():
    from vconlab.compression import magnitude_scores

    assert np.array_equal(magnitude_scores(np.array([[-2.0, 0.5]])), np.array([[2.0, 0.5]]))
    assert np.array_equal(magnitude_scores(np.zeros((3, 4))), np.zeros((3, 4)))
    w = np.random.default_rng(1).normal(size=(4, 5))
    assert np.array_equal(magnitude_scores(w), magnitude_scores(-w))


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
# Binarization


def test_binarize_frozen_example():
    ss = binarize_scaled(np.array([[3.0, -4.0]]))
    assert abs(ss.alpha - 5.0 / math.sqrt(2.0)) < 1e-12
    assert np.array_equal(ss.signs, np.array([[1.0, -1.0]]))


def test_binarize_sign_of_zero_is_positive():
    assert np.array_equal(binarize_scaled(np.array([[0.0, -0.0]])).signs, np.array([[1.0, 1.0]]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_binarize_alpha_formula(seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
    ss = binarize_scaled(w)
    assert ss.alpha == float(np.linalg.norm(w) / math.sqrt(w.size))
    assert set(np.unique(ss.signs).tolist()) <= {-1.0, 1.0}


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


# --------------------------------------------------------------------------
# Factorized layers


def _dense(n, m, seed=0, activation="none"):
    rng = np.random.default_rng(seed)
    return DenseBlock(
        Tensor(rng.normal(size=(n, m)), requires_grad=True),
        Tensor(rng.normal(size=n), requires_grad=True),
        activation,
    )


def test_factorize_identity_recovers_exactly():
    block = DenseBlock(Tensor(np.eye(3)), Tensor(np.zeros(3)), "none")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fac = factorize_layer(block, 3)
    assert np.linalg.norm(fac.a.data @ fac.b.data - np.eye(3)) <= 1e-8


def test_factorize_diag_rank_one():
    block = DenseBlock(Tensor(np.diag([3.0, 2.0, 1.0])), Tensor(np.zeros(3)), "none")
    fac = factorize_layer(block, 1)
    assert np.allclose(fac.a.data @ fac.b.data, np.diag([3.0, 0.0, 0.0]), atol=1e-10)


def test_factorize_param_count_100x100_r16():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        block = _dense(100, 100, seed=1)
        fac = factorize_layer(block, 16)
    assert fac.a.data.size + fac.b.data.size == 3200
    assert fac.param_count() == 3200 + 100


@pytest.mark.filterwarnings("ignore:.*no size benefit.*")
def test_factorize_clamps_oversized_rank():
    with pytest.warns(UserWarning, match="clamped"):
        fac = factorize_layer(_dense(16, 2, seed=2), 4)
    assert fac.a.data.shape == (16, 2)
    assert fac.b.data.shape == (2, 2)


def test_factorize_warns_when_no_size_benefit():
    # r(n+m) >= nm: rank 3 on a 4x4 layer stores 24 >= 16 values
    with pytest.warns(UserWarning, match="no size benefit"):
        factorize_layer(_dense(4, 4, seed=3), 3)


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
    assert comp.alpha == 0.5
    x = np.random.default_rng(7).uniform(-2, 2, size=(5, 2))
    assert np.array_equal(comp.forward(Tensor(x)).data, block.forward(Tensor(x)).data)


def test_low_rank_full_rank_forward_close_to_dense():
    block = _dense(4, 4, seed=8, activation="relu")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
        Tensor(comp.weight.data * comp.mask, requires_grad=True),
        Tensor(comp.bias.data.copy(), requires_grad=True),
        "relu",
    )
    backward(sum_all(surrogate.forward(Tensor(x))))
    assert np.array_equal(comp.weight.grad, surrogate.weight.grad)
    assert np.array_equal(comp.bias.grad, surrogate.bias.grad)


def test_low_rank_gradients_match_finite_differences():
    block = _dense(4, 3, seed=12, activation="relu")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
    assert comp.mask[0, 1] == 0.0
    # boost the pruned weight, kill a kept one, re-rank
    comp.weight.data[0, 1] = 5.0
    comp.weight.data[0, 0] = 0.0
    comp.refresh()
    assert comp.mask[0, 1] == 1.0
    assert comp.mask[0, 0] == 0.0


def test_refresh_blocks_shares_global_threshold():
    b1 = _dense(1, 2, seed=15)
    b2 = _dense(1, 2, seed=16)
    b1.weight.data[...] = [[10.0, 10.0]]
    b2.weight.data[...] = [[0.1, 0.1]]
    c1 = compress_block(b1, PruneUnstructuredGlobal(0.5))
    c2 = compress_block(b2, PruneUnstructuredGlobal(0.5))
    refresh_blocks([c1, c2])
    assert np.array_equal(c1.mask, np.ones((1, 2)))
    assert np.array_equal(c2.mask, np.zeros((1, 2)))


def test_freeze_mask_blocks_mask_refresh_but_not_alpha():
    pruned = compress_block(_dense(2, 2, seed=17), PruneUnstructuredLayer(0.5))
    binary = compress_block(_dense(2, 2, seed=18), BinaryQuant())
    old_mask = pruned.mask.copy()
    old_alpha = binary.alpha
    pruned.weight.data *= -3.0  # reorders nothing, but flips values
    pruned.weight.data[0, 0] = 100.0
    binary.weight.data *= 2.0
    refresh_blocks([pruned, binary], refresh_masks=False)
    assert np.array_equal(pruned.mask, old_mask)
    assert binary.alpha == 2.0 * old_alpha


def test_compressed_forward_requires_refresh():
    block = compress_block(_dense(2, 2, seed=19), PruneUnstructuredLayer(0.5))
    block.mask = None
    with pytest.raises(RuntimeError, match="refresh"):
        block.forward(Tensor(np.zeros((1, 2))))


# --------------------------------------------------------------------------
# Size accounting


def test_spec_param_count_frozen_values():
    assert spec_param_count(PruneUnstructuredLayer(0.95), 64, 64) == 205
    assert spec_param_count(PruneNM(1, 16), 64, 64) == 256
    assert spec_param_count(LowRank(8), 64, 64) == 1024
    assert spec_param_count(None, 64, 64) == 4096
    assert spec_param_count(BinaryQuant(), 64, 64) == 4096


def test_spec_param_count_structured_and_trailing_nm():
    assert spec_param_count(PruneStructured(0.5), 10, 8) == 5 * 8
    # m=10, 2:4 groups -> 2+2+ceil(2*2/4)=5 per row
    assert spec_param_count(PruneNM(2, 4), 3, 10) == 3 * 5


def test_bit_footprint_binary():
    assert bit_footprint(BinaryQuant(), 64, 64) == 4096 + 64
    assert bit_footprint(PruneUnstructuredLayer(0.95), 64, 64) == 205 * 64


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
