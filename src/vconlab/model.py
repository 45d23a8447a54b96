"""Dense feed-forward networks with enumerable, seedable parameters."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .tensor import ShapeError, Tensor, gelu, linear, relu

ACTIVATIONS = ("relu", "gelu", "none")


def apply_activation(z: Tensor, activation: str) -> Tensor:
    if activation == "relu":
        return relu(z)
    if activation == "gelu":
        return gelu(z)
    if activation == "none":
        return z
    raise ValueError(f"unknown activation {activation!r}, expected one of {ACTIVATIONS}")


class DenseBlock:
    """One affine layer: weight (n_out, n_in), bias (n_out,), activation."""

    def __init__(self, weight: Tensor, bias: Tensor, activation: str = "none"):
        if weight.data.ndim != 2:
            raise ShapeError(f"weight must be 2-D, got shape {weight.data.shape}")
        if bias.data.ndim != 1 or bias.data.shape[0] != weight.data.shape[0]:
            raise ShapeError(
                f"bias shape {bias.data.shape} does not match weight shape {weight.data.shape}"
            )
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}, expected one of {ACTIVATIONS}")
        self.weight = weight
        self.bias = bias
        self.activation = activation

    @property
    def in_dim(self) -> int:
        return self.weight.data.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.data.shape[0]

    def forward(self, x: Tensor) -> Tensor:
        return apply_activation(linear(x, self.weight, self.bias), self.activation)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight), ("bias", self.bias)]

    def param_count(self) -> int:
        return self.weight.data.size + self.bias.data.size


class Network:
    """An ordered chain of blocks; anything with forward/named_parameters fits."""

    def __init__(self, blocks: Iterable, name: str = "net"):
        self.blocks = list(blocks)
        self.name = name
        if not self.blocks:
            raise ValueError("a network needs at least one block")
        for prev, nxt in zip(self.blocks, self.blocks[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ShapeError(
                    f"block chain mismatch: {prev.out_dim} outputs feeding {nxt.in_dim} inputs"
                )

    @property
    def input_dim(self) -> int:
        return self.blocks[0].in_dim

    def forward(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[1] != self.input_dim:
            raise ShapeError(
                f"forward: expected input shape (batch, {self.input_dim}), got {x.data.shape}"
            )
        for block in self.blocks:
            x = block.forward(x)
        return x

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"blocks.{i}.{n}", p) for i, b in enumerate(self.blocks) for n, p in b.named_parameters()]

    def param_count(self) -> int:
        return sum(block.param_count() for block in self.blocks)


def init_params(layer_sizes: Sequence[int], seed: int, activation: str = "relu") -> Network:
    """Glorot-uniform MLP: hidden layers use ``activation``, output is linear.

    Weights ~ U(-s, s) with s = sqrt(6 / (n_in + n_out)); biases zero.
    Fully determined by the seed.
    """
    sizes = list(layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"layer_sizes needs at least two positive entries, got {sizes}")
    rng = np.random.default_rng(seed)
    blocks = []
    last = len(sizes) - 2
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        s = math.sqrt(6.0 / (n_in + n_out))
        weight = Tensor(rng.uniform(-s, s, size=(n_out, n_in)), requires_grad=True)
        bias = Tensor(np.zeros(n_out), requires_grad=True)
        blocks.append(DenseBlock(weight, bias, activation if i < last else "none"))
    return Network(blocks)
