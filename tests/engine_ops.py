"""Engine ops that only the tests use: a difference, an elementwise
product and a scalar sum, built on ``vconlab.tensor``'s graph helpers the
same way as the ops the package itself uses (``sum_all`` turns an output
into a scalar loss for gradient checks)."""

import numpy as np

from vconlab.tensor import Array, Tensor, _give, _result, _same_shape


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")

    def _bw(g: Array) -> None:
        if a.requires_grad:
            _give(a, g)
        if b.requires_grad:
            _give(b, -g)

    return _result(a.data - b.data, (a, b), _bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; both operands must share a shape exactly."""
    _same_shape(a, b, "mul")

    def _bw(g: Array) -> None:
        if a.requires_grad:
            _give(a, g * b.data)
        if b.requires_grad:
            _give(b, g * a.data)

    return _result(a.data * b.data, (a, b), _bw)


def sum_all(t: Tensor) -> Tensor:
    """Sum of all entries, as a 0-d tensor."""

    def _bw(g: Array) -> None:
        _give(t, np.full_like(t.data, g))

    return _result(np.asarray(t.data.sum()), (t,), _bw)
