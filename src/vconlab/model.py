"""Dense feed-forward networks with enumerable, seedable parameters.

A network is a lone one, or a stack of S networks of the same shape: every
tensor then has a leading stack axis, member s is slice s of each, and one
forward pass runs every member on its own slice (``stack_networks``,
``Network.select``).
"""

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


def select(t: Tensor, index) -> Tensor:
    """The members ``index`` of a stacked tensor (an int drops the stack axis),
    with its ``requires_grad``."""
    return Tensor(t.data[index], requires_grad=t.requires_grad)


class DenseBlock:
    """One affine layer: weight (n_out, n_in), bias (n_out,), activation;
    each with the leading axis of a stack, or neither."""

    def __init__(self, weight: Tensor, bias: Tensor, activation: str = "none"):
        if not 2 <= weight.data.ndim <= 3:
            raise ShapeError(f"weight must be 2-D, or 3-D for a stack, got shape {weight.data.shape}")
        if bias.data.shape != weight.data.shape[:-1]:
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
        return self.weight.data.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weight.data.shape[-2]

    @property
    def stack(self) -> tuple[int, ...]:
        return self.bias.data.shape[:-1]

    def forward(self, x: Tensor) -> Tensor:
        return apply_activation(linear(x, self.weight, self.bias), self.activation)

    def select(self, index) -> DenseBlock:
        return DenseBlock(select(self.weight, index), select(self.bias, index), self.activation)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight), ("bias", self.bias)]

    def param_count(self) -> int:
        return self.weight.data.size + self.bias.data.size


class Network:
    """An ordered chain of blocks; anything with forward/named_parameters,
    the dims, ``stack`` and ``select`` fits. ``scheduler`` is the one blend
    schedule that every blended block must read beta from; only a network
    without blended blocks may have none."""

    def __init__(self, blocks: Iterable, name: str = "net", scheduler=None):
        self.blocks = list(blocks)
        self.name = name
        self.scheduler = scheduler
        if not self.blocks:
            raise ValueError("a network needs at least one block")
        for prev, nxt in zip(self.blocks, self.blocks[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ShapeError(
                    f"block chain mismatch: {prev.out_dim} outputs feeding {nxt.in_dim} inputs"
                )
        if any(hasattr(b, "scheduler") and (scheduler is None or b.scheduler is not scheduler) for b in self.blocks):
            raise ValueError("a blended block must read its network's scheduler")

    @property
    def input_dim(self) -> int:
        return self.blocks[0].in_dim

    @property
    def stack(self) -> tuple[int, ...]:
        """``(S,)`` for a stack of S members, ``()`` for a lone network."""
        return self.blocks[0].stack

    def forward(self, x: Tensor) -> Tensor:
        """A (batch, in) input, shared by every member, or one per member."""
        if x.data.ndim not in (2, 2 + len(self.stack)) or x.data.shape[-1] != self.input_dim:
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

    def select(self, index) -> Network:
        """Member ``index`` of a stack as a lone network (an int), or the members
        of an index array or mask as a smaller stack. Tensors are new; their
        arrays may be views of this network's. The scheduler is this network's."""
        return Network([block.select(index) for block in self.blocks], name=self.name, scheduler=self.scheduler)


def stack_networks(nets: Sequence[Network]) -> Network:
    """One stack of the given lone dense networks, member i being ``nets[i]``."""
    def stacked(tensors):
        return Tensor(np.stack([t.data for t in tensors]), requires_grad=True)

    layers = zip(*(net.blocks for net in nets))
    return Network([DenseBlock(stacked([b.weight for b in blocks]), stacked([b.bias for b in blocks]),
                               blocks[0].activation) for blocks in layers], name=nets[0].name)


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
