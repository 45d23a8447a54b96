import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vconlab.tensor import (
    ShapeError,
    Tensor,
    add,
    backward,
    gelu,
    linear,
    no_graph,
    relu,
    scale,
    softmax_cross_entropy,
    ste_apply,
)

from engine_ops import mul, sub, sum_all
from oracles import FD_STEP, finite_difference, rel_error


def _fd_check(build_loss, arrays, tol=1e-6, rng=None):
    """Compare backward() grads with central differences for each input."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    backward(loss)
    for k, t in enumerate(tensors):
        def scalar_f(x, k=k):
            probes = [Tensor(a) for a in arrays]
            probes[k] = Tensor(x)
            return float(build_loss(*probes).data)

        numeric = finite_difference(scalar_f, arrays[k].copy())
        assert rel_error(t.grad, numeric) <= tol, f"input {k}: analytic vs numeric gradient"


def test_linear_values_and_gradient():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=(3, 4))
        w = rng.uniform(-2, 2, size=(2, 4))
        b = rng.uniform(-2, 2, size=2)
        assert np.allclose(linear(Tensor(x), Tensor(w)).data, x @ w.T)
        assert np.allclose(linear(Tensor(x), Tensor(w), Tensor(b)).data, x @ w.T + b)
        _fd_check(lambda tx, tw: sum_all(linear(tx, tw)), [x, w], tol=1e-6)
        _fd_check(lambda tx, tw, tb: sum_all(mul(z := linear(tx, tw, tb), z)), [x, w, b], tol=1e-6)


def test_linear_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 4\).*\(2, 3\)"):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
    with pytest.raises(ShapeError, match=r"\(3,\).*\(2, 3\)"):
        linear(Tensor(np.zeros((5, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


def test_elementwise_gradients():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.uniform(-2, 2, size=(4, 3))
        b = rng.uniform(-2, 2, size=(4, 3))
        _fd_check(lambda ta, tb: sum_all(mul(ta, tb)), [a, b], tol=1e-6)
        _fd_check(lambda ta, tb: sum_all(add(ta, tb)), [a, b], tol=1e-6)
        _fd_check(lambda ta, tb: sum_all(sub(ta, tb)), [a, b], tol=1e-6)


def test_mul_gradient_is_other_operand():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    backward(sum_all(mul(ta, tb)))
    assert np.array_equal(ta.grad, b)
    assert np.array_equal(tb.grad, a)


def test_relu_gelu_scale_gradients():
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=(5, 3))
        x[np.abs(x) < 1e-3] = 0.5  # keep relu probes away from the kink
        _fd_check(lambda t: sum_all(relu(t)), [x], tol=1e-6)
        _fd_check(lambda t: sum_all(gelu(t)), [x], tol=1e-6)
        _fd_check(lambda t: sum_all(scale(t, -1.7)), [x], tol=1e-6)


def test_linear_bias_grad_sums_over_batch():
    rng = np.random.default_rng(17)
    x = rng.uniform(-1, 1, size=(6, 4))
    w = rng.uniform(-1, 1, size=(4, 4))
    b = rng.uniform(-1, 1, size=4)
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
    backward(sum_all(linear(tx, tw, tb)))
    assert np.array_equal(tb.grad, np.full(4, 6.0))
    _fd_check(lambda a, v, c: sum_all(linear(a, v, c)), [x, w, b], tol=1e-6)


def test_linear_gradients_keep_operand_layout():
    # d sum(x @ w.T) / dw has w's (n, m) layout: every row is x's column sums
    x = np.arange(6.0).reshape(2, 3)
    w = np.arange(12.0).reshape(4, 3)
    tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    backward(sum_all(linear(tx, tw)))
    assert np.array_equal(tw.grad, np.tile(x.sum(axis=0), (4, 1)))
    assert np.array_equal(tx.grad, np.tile(w.sum(axis=0), (2, 1)))
    # C order, so the optimizer's gather is a contiguous copy
    assert tw.grad.flags.c_contiguous and tx.grad.flags.c_contiguous


def test_fanout_accumulates():
    # y = x*x + x  ->  dy/dx = 2x + 1, with x feeding two ops
    x = Tensor(np.array([[3.0]]), requires_grad=True)
    backward(sum_all(add(mul(x, x), x)))
    assert np.array_equal(x.grad, np.array([[7.0]]))


def test_softmax_cross_entropy_reference_value():
    # two equal logits, one sample: loss is ln 2
    loss = softmax_cross_entropy(Tensor(np.zeros((1, 2))), [0])
    assert abs(float(loss.data) - math.log(2.0)) < 1e-12


def test_softmax_cross_entropy_stability_and_gradient():
    logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    loss = softmax_cross_entropy(Tensor(logits), [0, 1])
    assert np.isfinite(float(loss.data))

    rng = np.random.default_rng(19)
    for _ in range(20):
        z = rng.uniform(-3, 3, size=(5, 4))
        y = rng.integers(0, 4, size=5)
        _fd_check(lambda t: softmax_cross_entropy(t, y), [z], tol=1e-5)


def test_softmax_cross_entropy_rejects_bad_labels():
    with pytest.raises(IndexError, match="out of range"):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


def test_ste_identity_backward_for_sign():
    # d/dx sum(sign(x)) is 0 almost everywhere; the STE reports 1 instead
    x = Tensor(np.array([[0.3, -2.0]]), requires_grad=True)
    out = ste_apply(x, np.sign)
    assert np.array_equal(out.data, np.array([[1.0, -1.0]]))
    backward(sum_all(out))
    assert np.array_equal(x.grad, np.ones((1, 2)))


def test_ste_mask_backward_vs_true_masked_gradient():
    mask = np.array([[1.0, 0.0]])
    x = Tensor(np.array([[0.5, 0.7]]), requires_grad=True)
    backward(sum_all(ste_apply(x, lambda w: w * mask)))
    assert np.array_equal(x.grad, np.ones((1, 2)))  # identity Jacobian

    x2 = Tensor(np.array([[0.5, 0.7]]), requires_grad=True)
    backward(sum_all(mul(x2, Tensor(mask))))  # true gradient of masking
    assert np.array_equal(x2.grad, mask)


def test_ste_rejects_shape_changing_transform():
    with pytest.raises(ShapeError, match="changed shape"):
        ste_apply(Tensor(np.zeros((2, 2))), lambda w: w.ravel())


def test_backward_requires_scalar_loss():
    t = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        backward(add(t, t))


def test_backward_returns_gradient_map_and_resets():
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    loss = sum_all(mul(x, x))
    grads = backward(loss)
    assert np.array_equal(grads[x], np.array([[2.0, 4.0]]))
    # running the same graph again must not double-accumulate
    backward(loss)
    assert np.array_equal(x.grad, np.array([[2.0, 4.0]]))


def test_data_gets_no_gradient():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-1, 1, size=(4, 3)))  # the input batch
    mask = Tensor((rng.uniform(size=(2, 3)) > 0.5).astype(np.float64))
    w = Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    grads = backward(sum_all(relu(linear(x, mul(w, mask), b))))
    assert x.grad is None and mask.grad is None
    assert x not in grads and mask not in grads
    assert w in grads and b in grads
    assert all(g is not None for g in grads.values())
    # a result computed from data alone is data: no graph, no gradient
    assert backward(sum_all(mul(x, x))) == {}
    assert x.grad is None


def _record_handoffs(loss):
    """Wrap every closure under ``loss`` to keep each gradient it is handed
    together with a copy taken at hand-off time."""
    handed, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        if node._backward is not None:
            def spy(g, inner=node._backward):
                handed.append((g, g.copy()))
                inner(g)

            node._backward = spy
    return handed


def _assert_contract(loss):
    # no gradient array changes after it was handed to a node, and a second
    # backward on the same graph gives the same gradients, bit for bit
    handed = _record_handoffs(loss)
    first = backward(loss)
    kept = {t: g.copy() for t, g in first.items()}
    assert handed and all(g.tobytes() == copy.tobytes() for g, copy in handed)
    second = backward(loss)
    assert second.keys() == first.keys()
    for t, g in first.items():
        assert g.tobytes() == kept[t].tobytes() == second[t].tobytes()
    return first


def test_shared_gradient_is_never_written_in_place():
    # add hands one array to both inputs; a's second contribution must not
    # write into it, or b (and the inner add) would see it change
    a = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    b = Tensor(np.array([[3.0, 0.5]]), requires_grad=True)
    inner = add(a, b)
    grads = _assert_contract(sum_all(add(inner, a)))
    assert np.array_equal(grads[a], np.full((1, 2), 2.0))
    assert np.array_equal(grads[b], np.ones((1, 2)))
    assert np.array_equal(grads[inner], np.ones((1, 2)))


def test_blended_block_input_feeding_both_branches_keeps_its_gradients():
    from vconlab.compression import PruneUnstructuredLayer
    from vconlab.model import init_params
    from vconlab.vcon import BetaScheduler, wrap_network

    # block 1's input is block 0's output, and it feeds both of block 1's branches
    net = wrap_network(init_params([3, 5, 4, 2], seed=4), PruneUnstructuredLayer(0.5), BetaScheduler(q=4, t=1))
    x = Tensor(np.random.default_rng(5).uniform(-1, 1, size=(6, 3)))
    grads = _assert_contract(softmax_cross_entropy(net.forward(x), [0, 1, 1, 0, 1, 0]))
    assert x not in grads
    assert all(p in grads for _, p in net.named_parameters())


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(23)
    a = rng.uniform(-1, 1, size=(8, 8))
    b = rng.uniform(-1, 1, size=(8, 8))
    c = rng.uniform(-1, 1, size=8)
    first = linear(Tensor(a), Tensor(b), Tensor(c)).data
    second = linear(Tensor(a.copy()), Tensor(b.copy()), Tensor(c.copy())).data
    assert np.array_equal(first, second)


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(29)
    x = rng.uniform(-700, 700, size=(4, 5))
    for op in (relu, gelu, lambda t: scale(t, 3.0)):
        assert np.all(np.isfinite(op(Tensor(x)).data))
    loss = softmax_cross_entropy(Tensor(x), rng.integers(0, 5, size=4))
    assert np.isfinite(float(loss.data))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_ste_forward_matches_transform_exactly(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, size=(3, 5))
    mask = (rng.uniform(size=(3, 5)) > 0.5).astype(np.float64)
    out = ste_apply(Tensor(x), lambda w: w * mask)
    assert np.array_equal(out.data, x * mask)


def _every_op(rng):
    """Each op once on inputs that need a gradient: (name, result) pairs."""
    x = Tensor(rng.uniform(-1, 1, size=(4, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, size=2), requires_grad=True)
    z = linear(x, w, b)
    return [
        ("linear", z),
        ("relu", relu(z)),
        ("gelu", gelu(z)),
        ("add", add(z, z)),
        ("scale", scale(z, 0.25)),
        ("ste_apply", ste_apply(w, lambda a: a * (a > 0.0))),
        ("softmax_cross_entropy", softmax_cross_entropy(z, [0, 1, 1, 0])),
    ]


def _no_graph_built(t):
    return not t.requires_grad and t._parents == () and t._backward is None


def test_no_graph_ops_return_data_with_the_same_bytes():
    recorded = _every_op(np.random.default_rng(31))
    with no_graph():
        free = _every_op(np.random.default_rng(31))
    for (name, r), (_, f) in zip(recorded, free):
        assert r.requires_grad and r._parents and r._backward is not None, name
        assert _no_graph_built(f), name
        assert f.data.tobytes() == r.data.tobytes(), name
    # a graph-free result is data: backward gives it no gradient
    assert backward(free[-1][1]) == {}


def test_no_graph_restores_the_previous_state_after_nesting_and_errors():
    x = Tensor(np.ones((1, 2)), requires_grad=True)
    with no_graph():
        with no_graph():
            assert _no_graph_built(relu(x))
        assert _no_graph_built(relu(x))
    assert relu(x).requires_grad
    with pytest.raises(ShapeError):
        with no_graph():
            add(x, Tensor(np.ones((2, 2))))
    assert relu(x)._parents == (x,)
