"""Scheduled blending of a dense block with its compressed twin.

Instead of compressing in one shot, each wrapped block computes
beta * original(x) + (1 - beta) * compressed(x) while beta walks linearly
from 1 to 0 over q optimizer steps. Once beta reaches 0 the original
branch is never evaluated again, and ``finalize`` strips it out, leaving a
structurally ordinary compressed network.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compression import CompressedBlock, CompressionSpec, compress_block, refresh_blocks
from .model import DenseBlock, Network, ShapeError
from .tensor import Tensor, add, scale


def beta_at(t: int, q: int) -> float:
    """Blend weight after t scheduler steps: max(1 - t/q, 0); q=0 gives 0."""
    if t < 0 or q < 0:
        raise ValueError(f"t and q must be non-negative, got t={t}, q={q}")
    if q == 0:
        return 0.0
    return max(1.0 - t / q, 0.0)


@dataclass
class BetaScheduler:
    """Counts optimizer steps: the network's scheduler, which each of its
    blended blocks reads beta from."""

    q: int
    t: int = 0

    def __post_init__(self):
        if self.q < 0 or self.t < 0:
            raise ValueError(f"q and t must be non-negative, got q={self.q}, t={self.t}")

    def beta(self) -> float:
        return beta_at(self.t, self.q)

    def step(self) -> None:
        self.t += 1

    @property
    def phase(self) -> str:
        return "transition" if self.t < self.q else "converged"


class VconBlock:
    """A dense block and its compressed branch evaluated in parallel.

    While beta > 0 both branches run and the outputs are blended; their
    parameters see gradients scaled by beta and (1 - beta) respectively.
    At beta == 0 only the branch runs, so the original costs nothing.
    """

    def __init__(self, original: DenseBlock, branch: CompressedBlock, scheduler: BetaScheduler):
        if (original.in_dim, original.out_dim) != (branch.in_dim, branch.out_dim):
            raise ShapeError(
                f"branch dims ({branch.out_dim}, {branch.in_dim}) do not match "
                f"original ({original.out_dim}, {original.in_dim})"
            )
        self.original = original
        self.branch = branch
        self.scheduler = scheduler

    @property
    def in_dim(self) -> int:
        return self.original.in_dim

    @property
    def out_dim(self) -> int:
        return self.original.out_dim

    @property
    def stack(self) -> tuple[int, ...]:
        return self.original.stack

    def select(self, index) -> VconBlock:
        """The members ``index`` of a stacked block, on the same scheduler."""
        return VconBlock(self.original.select(index), self.branch.select(index), self.scheduler)

    def forward(self, x: Tensor) -> Tensor:
        beta = self.scheduler.beta()
        if beta == 0.0:
            return self.branch.forward(x)
        return add(scale(self.original.forward(x), beta), scale(self.branch.forward(x), 1.0 - beta))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [(f"original.{n}", p) for n, p in self.original.named_parameters()]
        out.extend((f"branch.{n}", p) for n, p in self.branch.named_parameters())
        return out

    def param_count(self) -> int:
        # both branches are stored while the transition is live
        return self.original.param_count() + self.branch.param_count()


def wrap_network(
    net: Network,
    spec: CompressionSpec,
    scheduler: BetaScheduler,
    train_original: bool = True,
) -> Network:
    """Wrap every dense block of a network; ``scheduler`` becomes the
    returned network's scheduler, which every blended block reads.

    Each branch starts from its block's current parameters (deep copy). With
    ``train_original=False`` the caller's blocks become the frozen originals:
    their weight and bias tensors are set to ``requires_grad = False``, so
    ``backward`` gives them no gradient and the optimizer leaves them as they
    are. Otherwise the blocks are not modified.
    """
    blocks = [VconBlock(b, compress_block(b, spec), scheduler) for b in net.blocks]
    refresh_blocks([b.branch for b in blocks])
    if not train_original:
        for block in net.blocks:
            block.weight.requires_grad = block.bias.requires_grad = False
    return Network(blocks, name=net.name, scheduler=scheduler)


def compressed_blocks(net: Network) -> list:
    """The network's blocks without their originals, whatever the current
    beta: each wrapped block's branch, and every other block as it is."""
    return [b.branch if isinstance(b, VconBlock) else b for b in net.blocks]


def finalize(net: Network) -> Network:
    """Strip original branches, keeping only the compressed blocks.

    Allowed only once the network's scheduler has run its course (t >= q);
    finalizing mid-transition would silently change the model.
    """
    sch = net.scheduler
    if sch is not None and sch.t < sch.q:
        raise ValueError(f"cannot finalize: the network is mid-transition (t={sch.t} < q={sch.q})")
    return Network(compressed_blocks(net), name=net.name)
