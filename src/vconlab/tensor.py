"""Reverse-mode automatic differentiation over dense float64 arrays.

Minimal define-by-run engine: every op computes its result eagerly and,
when an input needs a gradient, attaches a closure that routes the
result's gradient, passed in by ``backward``, to the inputs that need
one. ``backward`` walks the graph once in reverse topological order. A
gradient is a sum of contributions (fan-out sums): a tensor keeps its
first contribution as the very array it was handed, and later ones are
added out of place, so no array handed out is ever written to again.
Tensors with ``requires_grad=False`` (data, such as the input batch, or a
fixed mask) take no gradient and no closure computes one for them.
Each forward pass builds a new graph; no closure holds its own result, so
a graph has no reference cycles and is freed once its output is dropped.
Inside ``no_graph()`` ops link no graph at all, so a forward that nothing
differentiates keeps only the arrays its caller still holds.

Everything is float64. Forward results on finite inputs stay finite: the
only exp/log live in ``softmax_cross_entropy``, which subtracts the row
max before exponentiating.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

Array = np.ndarray

_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class Tensor:
    """Dense float64 array plus a gradient slot and graph linkage.

    ``data`` is written once by its producing op and never mutated by the
    engine; optimizers may update leaf tensors in place between passes.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_recording = True  # False inside no_graph()


@contextmanager
def no_graph() -> Iterator[None]:
    """Ops inside attach no parents and no closure: every result is data,
    whatever its inputs need. The same arrays as outside; the previous
    state comes back on exit, also through an exception or a nested use."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _result(data: Array, parents: tuple[Tensor, ...], bw: Callable[[Array], None]) -> Tensor:
    # a result of data alone is data itself: no graph links, no closure
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = bw
    return out


def _give(t: Tensor, g: Array) -> None:
    """Add one gradient contribution to ``t``; the first is kept as is."""
    t.grad = g if t.grad is None else t.grad + g


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: operand shapes {a.data.shape} and {b.data.shape} differ")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map x @ w.T (+ b): a (batch, m) input through an (n, m) weight
    and an optional length-n bias row, each with an optional leading stack
    axis of S members, member s using slice s of each. An input without the
    axis is shared by every member; it takes no gradient. The engine's one
    product op; the bias is added into the fresh product in place, and the
    bias gradient sums over the batch axis. The weight gradient is
    ``g.T @ x`` per member, C-ordered. Its bytes equal ``(x.T @ g).T``'s on
    the golden digests' platform, not on every BLAS kernel (README,
    Determinism). numpy hands each member of a stacked product to the same
    BLAS call as its own 2-D product, so a member's bytes do not depend on
    the stack it is in (README, Determinism)."""
    if not (2 <= x.data.ndim <= 3 and 2 <= w.data.ndim <= 3) or x.data.shape[-1] != w.data.shape[-1]:
        raise ShapeError(f"linear: cannot apply weight {w.data.shape} to input {x.data.shape}")
    if b is not None and b.data.shape != w.data.shape[:-1]:
        raise ShapeError(f"linear: bias {b.data.shape} does not match weight {w.data.shape}")
    z = x.data @ w.data.swapaxes(-1, -2)

    def _bw(g: Array) -> None:
        if x.requires_grad:
            _give(x, g @ w.data)
        if w.requires_grad:
            _give(w, g.swapaxes(-1, -2) @ x.data)
        if b is not None and b.requires_grad:
            _give(b, g.sum(axis=-2))

    if b is None:
        return _result(z, (x, w), _bw)
    return _result(np.add(z, b.data[..., None, :], out=z), (x, w, b), _bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")

    def _bw(g: Array) -> None:
        if a.requires_grad:
            _give(a, g)
        if b.requires_grad:
            _give(b, g)

    return _result(a.data + b.data, (a, b), _bw)


def scale(t: Tensor, c: float) -> Tensor:
    """Multiply by a plain Python float (no gradient flows into c)."""
    c = float(c)

    def _bw(g: Array) -> None:
        _give(t, g * c)

    return _result(t.data * c, (t,), _bw)


def relu(t: Tensor) -> Tensor:
    def _bw(g: Array) -> None:
        _give(t, g * (t.data > 0.0))

    return _result(np.maximum(t.data, 0.0), (t,), _bw)


def gelu(t: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    x = t.data
    inner = _GELU_K * (x + _GELU_C * x**3)
    th = np.tanh(inner)

    def _bw(g: Array) -> None:
        d_inner = _GELU_K * (1.0 + 3.0 * _GELU_C * x**2)
        local = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * d_inner
        _give(t, g * local)

    return _result(0.5 * x * (1.0 + th), (t,), _bw)


def softmax_cross_entropy(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean cross-entropy between row-softmax of logits and integer labels:
    (batch, classes) logits and batch labels give one loss, a stack of S
    gives one per member, and each member's loss and gradient are those of
    its slice alone.

    Stabilized by subtracting the per-row max before exponentiating, so
    finite logits can never produce NaN/Inf.
    """
    if not 2 <= logits.data.ndim <= 3:
        raise ShapeError(f"softmax_cross_entropy: expected (batch, classes) logits, got {logits.data.shape}")
    y = np.asarray(labels, dtype=np.intp)
    if y.shape != logits.data.shape[:-1]:
        raise ShapeError(
            f"softmax_cross_entropy: {logits.data.shape[:-1]} logit rows vs {y.shape} labels"
        )
    n, classes = logits.data.shape[-2:]
    if y.size and (y.min() < 0 or y.max() >= classes):
        bad = int(y[(y < 0) | (y >= classes)][0])
        raise IndexError(f"label {bad} out of range for {classes} classes")

    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    shifted = z - zmax
    ez = np.exp(shifted)
    sum_ez = ez.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(sum_ez)
    rows = np.arange(y.size)  # every (member, row) pair, flat

    def _bw(g: Array) -> None:
        probs = ez / sum_ez
        probs.reshape(-1, classes)[rows, y.ravel()] -= 1.0
        _give(logits, g[..., None, None] * probs / n)

    picked = log_probs.reshape(-1, classes)[rows, y.ravel()].reshape(y.shape)
    return _result(-picked.mean(axis=-1), (logits,), _bw)


def ste_apply(x: Tensor, transform: Callable[[Array], Array]) -> Tensor:
    """Apply a shape-preserving array map with a straight-through backward.

    Forward returns transform(x); backward routes the incoming gradient to
    x unchanged (identity Jacobian), so full-precision values keep getting
    updates even where the transform zeroed or quantized them.
    """
    data = np.asarray(transform(x.data), dtype=np.float64)
    if data.shape != x.data.shape:
        raise ShapeError(f"ste_apply: transform changed shape {x.data.shape} -> {data.shape}")

    def _bw(g: Array) -> None:
        _give(x, g)

    return _result(data, (x,), _bw)


def backward(loss: Tensor) -> dict[Tensor, Array]:
    """Run reverse-mode accumulation from a scalar loss, or from a stack's
    losses, one per member: each is seeded with 1, and as no op mixes
    members, each member's gradients are those of its own loss.

    Every tensor that needs a gradient and is reachable from ``loss`` has
    its ``grad`` reset to None, then receives the sum of its contributions:
    the first as the array it was handed (arrays may be shared between
    tensors, such as both inputs of an ``add``), later ones added out of
    place. No gradient array is written in place once handed out. Tensors
    with ``requires_grad=False`` get no gradient. Returns a map from each
    tensor that received a gradient to its gradient array; a loss that
    needs no gradient gives an empty map. A second call on the same graph
    starts again from None and gives the same gradients.
    """
    if loss.data.ndim > 1:
        raise ShapeError(f"backward: loss must be a scalar or one per member, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return {}

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad:
                stack.append((parent, False))

    for node in topo:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
    return {node: node.grad for node in topo}
