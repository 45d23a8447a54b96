import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vconlab.compression import (
    BinaryQuant,
    LowRank,
    PruneUnstructuredLayer,
    compress_network,
)
from vconlab.model import Network, ShapeError, init_params
from vconlab.tensor import Tensor, backward, softmax_cross_entropy
from vconlab.vcon import (
    BetaScheduler,
    VconBlock,
    beta_at,
    compressed_blocks,
    finalize,
    wrap_network,
)

from engine_ops import sum_all
from oracles import finite_difference, rel_error

VARIANTS = [PruneUnstructuredLayer(0.5), BinaryQuant(), LowRank(2)]


# --------------------------------------------------------------------------
# Schedule


def test_beta_exact_fractions():
    assert beta_at(0, 4) == 1.0
    assert beta_at(1, 4) == 0.75
    assert beta_at(2, 4) == 0.5
    assert beta_at(3, 4) == 0.25
    assert beta_at(4, 4) == 0.0
    assert beta_at(9, 4) == 0.0


def test_beta_q_zero_always_zero():
    assert beta_at(0, 0) == 0.0
    assert beta_at(100, 0) == 0.0


def test_beta_rejects_negative_arguments():
    with pytest.raises(ValueError):
        beta_at(-1, 4)
    with pytest.raises(ValueError):
        beta_at(0, -1)


@given(st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=100)
def test_beta_bounds_and_monotonicity(t, q):
    b = beta_at(t, q)
    assert 0.0 <= b <= 1.0
    assert beta_at(t + 1, q) <= b


def test_scheduler_walks_then_converges():
    sch = BetaScheduler(q=3)
    seen = []
    for _ in range(5):
        seen.append((sch.beta(), sch.phase))
        sch.step()
    assert seen == [
        (1.0, "transition"),
        (1.0 - 1 / 3, "transition"),
        (1.0 - 2 / 3, "transition"),
        (0.0, "converged"),
        (0.0, "converged"),
    ]


def test_scheduler_q_zero_starts_converged():
    sch = BetaScheduler(q=0)
    assert sch.beta() == 0.0
    assert sch.phase == "converged"


# --------------------------------------------------------------------------
# Blended forward


def _wrapped(spec, q, seed=0, sizes=(3, 4, 2)):
    net = init_params(list(sizes), seed=seed)
    sch = BetaScheduler(q=q)
    return net, wrap_network(net, spec, sch), sch


@pytest.mark.parametrize("spec", VARIANTS, ids=["prune", "binary", "lowrank"])
def test_endpoints_bit_equal(spec):
    dense, blended, sch = _wrapped(spec, q=10, seed=1)
    x = Tensor(np.random.default_rng(2).uniform(-2, 2, size=(6, 3)))

    # beta == 1: output is bit-equal to the untouched dense network
    assert np.array_equal(blended.forward(x).data, dense.forward(x).data)

    # beta == 0: bit-equal to evaluating the branches alone
    sch.t = sch.q
    assert np.array_equal(blended.forward(x).data, Network(compressed_blocks(blended)).forward(x).data)


def test_compressed_blocks_are_the_branches_and_the_plain_blocks():
    net = init_params([3, 4, 2], seed=3)
    blended = wrap_network(net, BinaryQuant(), BetaScheduler(q=4, t=1))
    assert all(c is b.branch for c, b in zip(compressed_blocks(blended), blended.blocks))
    assert compressed_blocks(net) == net.blocks


@pytest.mark.parametrize("spec", VARIANTS, ids=["prune", "binary", "lowrank"])
def test_halfway_blend_is_affine_per_block(spec):
    # affinity in beta holds for each wrapped block at a fixed input (the
    # whole net nests blends through nonlinearities, see next test)
    _, blended, sch = _wrapped(spec, q=2, seed=3)
    rng = np.random.default_rng(4)
    for vb in blended.blocks:
        x = Tensor(rng.uniform(-2, 2, size=(5, vb.in_dim)))
        sch.t = 2
        lo = vb.forward(x).data
        sch.t = 0
        hi = vb.forward(x).data
        sch.t = 1  # beta = 0.5
        mid = vb.forward(x).data
        assert np.max(np.abs(mid - 0.5 * (hi + lo))) <= 1e-12


def test_blend_is_per_block_not_global():
    # with two blocks the blend nests: the second block blends activations
    # already produced by the first blend, so the whole net is NOT an affine
    # mix of the two endpoint networks in general
    net = init_params([2, 4, 2], seed=5)
    sch = BetaScheduler(q=2, t=1)
    blended = wrap_network(net, PruneUnstructuredLayer(0.5), sch)
    x = Tensor(np.random.default_rng(6).uniform(-2, 2, size=(4, 2)))

    compressed = compress_network(net, PruneUnstructuredLayer(0.5))
    naive = 0.5 * (net.forward(x).data + compressed.forward(x).data)
    # nesting through the relu makes these differ for generic weights
    assert not np.allclose(blended.forward(x).data, naive, atol=1e-9)


def test_branch_starts_from_original_weights():
    net = init_params([3, 5, 2], seed=7)
    blended = wrap_network(net, PruneUnstructuredLayer(0.0), BetaScheduler(q=4))
    for orig, vb in zip(net.blocks, blended.blocks):
        assert np.array_equal(vb.branch.params["weight"].data, orig.weight.data)
        assert vb.branch.params["weight"] is not orig.weight  # deep copy, no aliasing


def test_wrap_does_not_mutate_source_network():
    net = init_params([3, 4, 2], seed=8)
    before = [p.data.copy() for _, p in net.named_parameters()]
    wrap_network(net, BinaryQuant(), BetaScheduler(q=3))
    for (name, p), snap in zip(net.named_parameters(), before):
        assert np.array_equal(p.data, snap), name


def test_dim_mismatch_rejected():
    a = init_params([2, 3], seed=9).blocks[0]
    b = init_params([2, 4], seed=9).blocks[0]
    from vconlab.compression import compress_block

    with pytest.raises(ShapeError, match="do not match"):
        VconBlock(a, compress_block(b, PruneUnstructuredLayer(0.5)), BetaScheduler(q=1))


# --------------------------------------------------------------------------
# Gradients through the blend


def test_gradient_splits_by_beta():
    net, blended, sch = _wrapped(PruneUnstructuredLayer(0.5), q=4, seed=10, sizes=(3, 4))
    sch.t = 1  # beta = 0.75
    x = Tensor(np.random.default_rng(11).uniform(-2, 2, size=(5, 3)))
    backward(sum_all(blended.forward(x)))
    vb = blended.blocks[0]

    # original branch alone
    from vconlab.model import DenseBlock

    act = vb.original.activation
    g_orig = Tensor(vb.original.weight.data.copy(), requires_grad=True)
    solo = DenseBlock(g_orig, Tensor(vb.original.bias.data.copy(), requires_grad=True), act)
    backward(sum_all(solo.forward(x)))
    assert np.max(np.abs(vb.original.weight.grad - 0.75 * g_orig.grad)) <= 1e-12

    # compressed branch gets the 1 - beta share (STE passes it through)
    masked = vb.branch.params["weight"].data * vb.branch.state
    solo_b = DenseBlock(
        Tensor(masked, requires_grad=True),
        Tensor(vb.branch.bias.data.copy(), requires_grad=True),
        act,
    )
    backward(sum_all(solo_b.forward(x)))
    assert np.max(np.abs(vb.branch.params["weight"].grad - 0.25 * solo_b.weight.grad)) <= 1e-12


def test_converged_blend_leaves_original_grad_none():
    _, blended, sch = _wrapped(PruneUnstructuredLayer(0.5), q=2, seed=12)
    sch.t = 2
    x = Tensor(np.random.default_rng(13).uniform(-1, 1, size=(4, 3)))
    grads = backward(sum_all(blended.forward(x)))
    for block in blended.blocks:
        assert block.original.weight.grad is None
        assert block.original.weight not in grads
        assert block.branch.params["weight"].grad is not None


def test_graph_has_one_node_per_affine_layer():
    # [2, 16, 3] under a cross-entropy loss: the loss, and per layer its
    # parameters, one linear node and the hidden relu; pruning adds one STE
    # node per layer, low rank a second linear node, and the blend both
    # branches plus two scales and an add. The input batch needs no
    # gradient, so it is not a gradient node
    x = Tensor(np.random.default_rng(14).uniform(-1, 1, size=(5, 2)))

    def nodes(net):
        return len(backward(softmax_cross_entropy(net.forward(x), [0, 1, 2, 0, 1])))

    assert nodes(init_params([2, 16, 3], seed=0)) == 8
    assert nodes(compress_network(init_params([2, 16, 3], seed=0), PruneUnstructuredLayer(0.5))) == 10
    assert nodes(compress_network(init_params([2, 16, 3], seed=0), LowRank(2))) == 12
    sch = BetaScheduler(q=4, t=2)
    assert nodes(wrap_network(init_params([2, 16, 3], seed=0), PruneUnstructuredLayer(0.5), sch)) == 23


def test_blended_lowrank_gradients_match_finite_differences():
    net = init_params([3, 3], seed=14)
    blended = wrap_network(net, LowRank(2), BetaScheduler(q=4, t=1))
    x = Tensor(np.random.default_rng(15).uniform(-2, 2, size=(5, 3)))
    backward(sum_all(blended.forward(x)))
    for name, p in blended.named_parameters():
        saved = p.data.copy()

        def f(values, p=p):
            p.data[...] = values
            out = float(sum_all(blended.forward(x)).data)
            p.data[...] = saved
            return out

        fd = finite_difference(f, saved.copy())
        assert rel_error(p.grad, fd) <= 1e-4, name


def test_frozen_originals_get_no_gradient():
    net = init_params([3, 4, 2], seed=16)
    blended = wrap_network(net, BinaryQuant(), BetaScheduler(q=3, t=1), train_original=False)
    x = Tensor(np.random.default_rng(16).uniform(-1, 1, size=(5, 3)))
    grads = backward(softmax_cross_entropy(blended.forward(x), [0, 1, 1, 0, 1]))
    params = blended.named_parameters()
    originals = [p for n, p in params if ".original." in n]
    branches = [p for n, p in params if ".branch." in n]
    assert len(originals) == 4 and len(branches) == 4  # still stored, just frozen
    assert all(p not in grads and p.grad is None for p in originals)
    assert all(p in grads for p in branches)


# --------------------------------------------------------------------------
# Finalize


def test_finalize_mid_transition_raises():
    _, blended, sch = _wrapped(PruneUnstructuredLayer(0.5), q=5, seed=17)
    sch.t = 4
    with pytest.raises(ValueError, match=r"mid-transition \(t=4 < q=5\)"):
        finalize(blended)


@pytest.mark.parametrize("spec", VARIANTS, ids=["prune", "binary", "lowrank"])
def test_finalize_matches_direct_compression_counts(spec):
    net = init_params([4, 8, 8, 3], seed=18)
    blended = wrap_network(net, spec, BetaScheduler(q=3, t=3))
    direct = compress_network(net, spec)
    done = finalize(blended)
    assert done.param_count() == direct.param_count()
    # and the finalized net really dropped the originals
    assert blended.param_count() > done.param_count()

    x = Tensor(np.random.default_rng(19).uniform(-1, 1, size=(6, 4)))
    assert np.array_equal(done.forward(x).data, Network(compressed_blocks(blended)).forward(x).data)


def test_finalize_q_zero_immediately_allowed():
    _, blended, _ = _wrapped(PruneUnstructuredLayer(0.9), q=0, seed=20)
    done = finalize(blended)
    x = Tensor(np.random.default_rng(21).uniform(-1, 1, size=(3, 3)))
    assert np.array_equal(done.forward(x).data, blended.forward(x).data)
