"""Reverse-mode automatic differentiation over dense float64 arrays.

Minimal define-by-run engine: every op computes its result eagerly and
attaches a closure that routes the result's gradient, passed in by
``backward``, to its inputs. ``backward`` walks the graph once in reverse
topological order, accumulating gradients additively (fan-out sums).
Each forward pass builds a new graph; no closure holds its own result, so
a graph has no reference cycles and is freed once its output is dropped.

Everything is float64. Forward results on finite inputs stay finite: the
only exp/log live in ``softmax_cross_entropy``, which subtracts the row
max before exponentiating.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

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


def _result(data: Array, parents: tuple[Tensor, ...]) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    out._parents = parents
    return out


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: operand shapes {a.data.shape} and {b.data.shape} differ")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map x @ w.T (+ b): a (batch, m) input through an (n, m) weight
    and an optional length-n bias row. The engine's one product op; the bias
    gradient sums over the batch axis."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"linear: cannot apply weight {w.data.shape} to input {x.data.shape}")
    if b is not None and b.data.shape != (w.data.shape[0],):
        raise ShapeError(f"linear: bias {b.data.shape} does not match weight {w.data.shape}")
    z = x.data @ w.data.T
    out = _result(z, (x, w)) if b is None else _result(z + b.data, (x, w, b))

    def _bw(g: Array) -> None:
        x.grad += g @ w.data
        w.grad += (x.data.T @ g).T
        if b is not None:
            b.grad += g.sum(axis=0)

    out._backward = _bw
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = _result(a.data + b.data, (a, b))

    def _bw(g: Array) -> None:
        a.grad += g
        b.grad += g

    out._backward = _bw
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = _result(a.data - b.data, (a, b))

    def _bw(g: Array) -> None:
        a.grad += g
        b.grad -= g

    out._backward = _bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; both operands must share a shape exactly."""
    _same_shape(a, b, "mul")
    out = _result(a.data * b.data, (a, b))

    def _bw(g: Array) -> None:
        a.grad += g * b.data
        b.grad += g * a.data

    out._backward = _bw
    return out


def scale(t: Tensor, c: float) -> Tensor:
    """Multiply by a plain Python float (no gradient flows into c)."""
    c = float(c)
    out = _result(t.data * c, (t,))

    def _bw(g: Array) -> None:
        t.grad += g * c

    out._backward = _bw
    return out


def relu(t: Tensor) -> Tensor:
    out = _result(np.maximum(t.data, 0.0), (t,))

    def _bw(g: Array) -> None:
        t.grad += g * (t.data > 0.0)

    out._backward = _bw
    return out


def gelu(t: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    x = t.data
    inner = _GELU_K * (x + _GELU_C * x**3)
    th = np.tanh(inner)
    out = _result(0.5 * x * (1.0 + th), (t,))

    def _bw(g: Array) -> None:
        d_inner = _GELU_K * (1.0 + 3.0 * _GELU_C * x**2)
        local = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * d_inner
        t.grad += g * local

    out._backward = _bw
    return out


def sum_all(t: Tensor) -> Tensor:
    """Sum of all entries, as a 0-d tensor."""
    out = _result(np.asarray(t.data.sum()), (t,))

    def _bw(g: Array) -> None:
        t.grad += g

    out._backward = _bw
    return out


def softmax_cross_entropy(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean cross-entropy between row-softmax of logits and integer labels.

    Stabilized by subtracting the per-row max before exponentiating, so
    finite logits can never produce NaN/Inf.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: expected (batch, classes) logits, got {logits.data.shape}")
    y = np.asarray(labels, dtype=np.intp)
    if y.ndim != 1 or y.shape[0] != logits.data.shape[0]:
        raise ShapeError(
            f"softmax_cross_entropy: {logits.data.shape[0]} logit rows vs {y.shape} labels"
        )
    n, classes = logits.data.shape
    if y.size and (y.min() < 0 or y.max() >= classes):
        bad = int(y[(y < 0) | (y >= classes)][0])
        raise IndexError(f"label {bad} out of range for {classes} classes")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    ez = np.exp(shifted)
    sum_ez = ez.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(sum_ez)
    rows = np.arange(n)
    out = _result(np.asarray(-log_probs[rows, y].mean()), (logits,))

    def _bw(g: Array) -> None:
        probs = ez / sum_ez
        probs[rows, y] -= 1.0
        logits.grad += g * probs / n

    out._backward = _bw
    return out


def ste_apply(x: Tensor, transform: Callable[[Array], Array]) -> Tensor:
    """Apply a shape-preserving array map with a straight-through backward.

    Forward returns transform(x); backward routes the incoming gradient to
    x unchanged (identity Jacobian), so full-precision values keep getting
    updates even where the transform zeroed or quantized them.
    """
    data = np.asarray(transform(x.data), dtype=np.float64)
    if data.shape != x.data.shape:
        raise ShapeError(f"ste_apply: transform changed shape {x.data.shape} -> {data.shape}")
    out = _result(data, (x,))

    def _bw(g: Array) -> None:
        x.grad += g

    out._backward = _bw
    return out


def backward(loss: Tensor) -> dict[Tensor, Array]:
    """Run reverse-mode accumulation from a scalar loss.

    Grads of every tensor reachable from ``loss`` are (re)set to zero and
    then accumulated; returns a map from tensor to its gradient array.
    One call per graph: a second call on the same graph starts from
    zeroed grads again.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be a scalar, got shape {loss.data.shape}")

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
            stack.append((parent, False))

    for node in topo:
        node.grad = np.zeros_like(node.data)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
    return {node: node.grad for node in topo}
