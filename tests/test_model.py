import numpy as np
import pytest

from vconlab.model import DenseBlock, Network, ShapeError, init_params
from vconlab.tensor import Tensor, backward, softmax_cross_entropy

from oracles import finite_difference, mlp_forward, rel_error


def test_single_block_affine_values():
    block = DenseBlock(Tensor([[1.0, 1.0]]), Tensor([1.0]), activation="none")
    out = block.forward(Tensor([[2.0, 3.0]]))
    assert np.array_equal(out.data, np.array([[6.0]]))


def test_forward_matches_naive_oracle():
    net = init_params([2, 4, 2], seed=3, activation="relu")
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, size=(10, 2))
    expected = mlp_forward(x, [(b.weight.data, b.bias.data) for b in net.blocks], "relu")
    got = net.forward(Tensor(x)).data
    assert np.allclose(got, expected, atol=1e-12)


def test_gelu_network_matches_naive_oracle():
    net = init_params([3, 5, 2], seed=9, activation="gelu")
    x = np.random.default_rng(1).uniform(-2, 2, size=(6, 3))
    expected = mlp_forward(x, [(b.weight.data, b.bias.data) for b in net.blocks], "gelu")
    assert np.allclose(net.forward(Tensor(x)).data, expected, atol=1e-12)


def test_batch_rows_match_single_rows():
    net = init_params([2, 8, 3], seed=11)
    x = np.random.default_rng(2).uniform(-2, 2, size=(15, 2))
    batch = net.forward(Tensor(x)).data
    rows = np.vstack([net.forward(Tensor(x[i : i + 1])).data for i in range(len(x))])
    assert np.max(np.abs(batch - rows)) <= 1e-12


def test_init_params_is_seeded_and_bounded():
    a = init_params([2, 8, 2], seed=42)
    b = init_params([2, 8, 2], seed=42)
    c = init_params([2, 8, 2], seed=43)
    for ba, bb in zip(a.blocks, b.blocks):
        assert np.array_equal(ba.weight.data, bb.weight.data)
    assert any(
        not np.array_equal(ba.weight.data, bc.weight.data)
        for ba, bc in zip(a.blocks, c.blocks)
    )
    for block in a.blocks:
        n_out, n_in = block.weight.data.shape
        bound = np.sqrt(6.0 / (n_in + n_out))
        assert np.abs(block.weight.data).max() <= bound
        assert np.array_equal(block.bias.data, np.zeros(n_out))


def test_param_counts():
    assert init_params([2, 8, 2], seed=0).param_count() == 42
    assert init_params([2, 64, 64, 3], seed=0).param_count() == 4547


def test_network_gradient_against_finite_differences():
    net = init_params([2, 8, 2], seed=7)
    rng = np.random.default_rng(8)
    x = rng.uniform(-2, 2, size=(6, 2))
    y = rng.integers(0, 2, size=6)
    loss = softmax_cross_entropy(net.forward(Tensor(x)), y)
    backward(loss)
    for name, p in net.named_parameters():
        saved = p.data.copy()

        def f(values, p=p):
            p.data[...] = values
            out = float(softmax_cross_entropy(net.forward(Tensor(x)), y).data)
            p.data[...] = saved
            return out

        numeric = finite_difference(f, saved.copy())
        assert rel_error(p.grad, numeric) <= 1e-4, name


def test_forward_rejects_wrong_width():
    net = init_params([2, 4, 2], seed=0)
    with pytest.raises(ShapeError, match=r"\(batch, 2\)"):
        net.forward(Tensor(np.zeros((3, 5))))


def test_mismatched_chain_rejected():
    b1 = DenseBlock(Tensor(np.zeros((4, 2))), Tensor(np.zeros(4)), "relu")
    b2 = DenseBlock(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)), "none")
    with pytest.raises(ShapeError, match="chain mismatch"):
        Network([b1, b2])


def test_named_parameters_are_ordered_and_complete():
    net = init_params([2, 4, 2], seed=0)
    names = [n for n, _ in net.named_parameters()]
    assert names == ["blocks.0.weight", "blocks.0.bias", "blocks.1.weight", "blocks.1.bias"]
