"""Compression families for dense layers and the blocks that apply them.

Four magnitude-pruning granularities (per-layer, global, N-of-M groups,
whole rows), sign binarization with a single Frobenius-derived scale, and
truncated-SVD factorization. Pruning and binarization keep a trainable
full-precision weight and push gradients through the transform with a
straight-through estimator; low-rank blocks train the two factors
directly.

Each family is one spec class (see ``CompressionSpec``), the single home
of its rule, size accounting, file payload and report; ``FAMILIES`` maps
each config/header ``kind`` to its class.

Tie rule used everywhere: when magnitudes tie at the pruning threshold,
the smaller flat index is pruned first (global pruning orders by layer
index, then flat index). Masks are therefore a deterministic function of
the weights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import ClassVar, Sequence, get_type_hints

import numpy as np

from .model import DenseBlock, Network, apply_activation
from .tensor import ShapeError, Tensor, add_bias, matmul, ste_apply, transpose

Array = np.ndarray


# --------------------------------------------------------------------------
# Families


class CompressionSpec:
    """One compression family; each subclass is a frozen dataclass.

    A family derives block state from the weights (``refresh``, called once
    per group of blocks with equal specs), gives the block's effective
    weight (``effective_weight``; low rank instead overrides ``linear``
    with its factor product), counts the stored entries and bits of an
    n x m layer (``stored``, ``bits``), writes and reads its ``.vcnet``
    payload through checkpoint.py's writer and reader (``floats``, ``bits``,
    ``fail``), and names its ``inspect`` fields (``describe``).
    """

    kind: ClassVar[str]
    factored: ClassVar[bool] = False  # blocks train factors a, b instead of a weight

    def compress(self, block: DenseBlock) -> CompressedBlock:
        weight = Tensor(block.weight.data.copy(), requires_grad=True)
        out = CompressedBlock(self, Tensor(block.bias.data.copy(), requires_grad=True), block.activation, weight)
        out.refresh()
        return out

    def refresh(self, blocks: Sequence[CompressedBlock], refresh_masks: bool = True) -> None:
        pass

    def linear(self, block: CompressedBlock, x: Tensor) -> Tensor:
        return matmul(x, transpose(self.effective_weight(block)))

    def bits(self, n: int, m: int) -> int:
        return 64 * self.stored(n, m)

    def count(self, block: CompressedBlock) -> int:
        return self.stored(block.out_dim, block.in_dim)

    def write(self, block: CompressedBlock, w) -> None:
        w.floats(block.weight.data)
        w.floats(block.bias.data)

    def read(self, r, n: int, m: int, activation: str, label: str) -> CompressedBlock:
        weight = Tensor(r.floats((n, m), f"{label} weight"), requires_grad=True)
        bias = Tensor(r.floats((n,), f"{label} bias"), requires_grad=True)
        return CompressedBlock(self, bias, activation, weight)

    def describe(self, block: CompressedBlock) -> dict:
        return {}


class _MaskSpec(CompressionSpec):
    """Pruning: a 0/1 mask applied through the STE. Subclasses give the
    rule ``masks``, which maps a list of weights to their masks."""

    network_wide: ClassVar[bool] = False  # the kept count holds per network, not per layer

    def refresh(self, blocks, refresh_masks=True):
        if refresh_masks:
            for blk, mask in zip(blocks, self.masks([blk.weight.data for blk in blocks])):
                blk.mask = mask

    def effective_weight(self, block):
        if block.mask is None:
            raise RuntimeError("pruned block used before refresh()")
        mask = block.mask
        return ste_apply(block.weight, lambda w: w * mask)

    def count(self, block):
        return super().count(block) if block.mask is None else int(block.mask.sum())

    def write(self, block, w):
        if block.mask is None:
            w.fail("pruned block has no mask; call refresh() first")
        super().write(block, w)
        w.bits(block.mask)

    def read(self, r, n, m, activation, label):
        block = super().read(r, n, m, activation, label)
        block.mask = r.bits(n, m, f"{label} mask")
        if not self.network_wide and self.count(block) != self.stored(n, m):
            r.fail(f"{label} mask keeps {self.count(block)} weights, {self.kind} keeps {self.stored(n, m)}")
        return block

    def describe(self, block):
        if block.mask is None:
            return {}
        return {"kept_weights": self.count(block), "density": float(block.mask.sum() / block.mask.size)}


@dataclass(frozen=True)
class _SparsityMask(_MaskSpec):
    """Pruning rules that drop a fraction of the entries (or rows)."""

    sparsity: float

    def __post_init__(self):
        _check_sparsity(self.sparsity)

    def stored(self, n, m):
        return n * m - int(math.floor(self.sparsity * (n * m)))


@dataclass(frozen=True)
class PruneUnstructuredLayer(_SparsityMask):
    """Zero the smallest-|w| entries of each layer independently."""

    kind = "prune_layer"

    def masks(self, weights):
        return [prune_layerwise(w, self.sparsity) for w in weights]


@dataclass(frozen=True)
class PruneUnstructuredGlobal(_SparsityMask):
    """One magnitude threshold shared by every governed layer."""

    kind = "prune_global"
    network_wide = True

    def masks(self, weights):
        return prune_global(weights, self.sparsity)


@dataclass(frozen=True)
class PruneNM(_MaskSpec):
    """Keep ``keep`` entries in every group of ``group`` along the input axis."""

    kind = "prune_nm"
    keep: int
    group: int

    def __post_init__(self):
        if not (1 <= self.keep <= self.group):
            raise ValueError(f"N:M pruning needs 1 <= N <= M, got {self.keep}:{self.group}")

    def masks(self, weights):
        return [prune_nm(w, self.keep, self.group) for w in weights]

    def stored(self, n, m):
        full, rem = divmod(m, self.group)
        per_row = full * self.keep
        if rem:
            per_row += -(-self.keep * rem // self.group)
        return n * per_row


@dataclass(frozen=True)
class PruneStructured(_SparsityMask):
    """Zero whole rows (output units) with the smallest l2 norms."""

    kind = "prune_structured"

    def masks(self, weights):
        return [prune_structured(w, self.sparsity) for w in weights]

    def stored(self, n, m):
        return (n - int(math.floor(self.sparsity * n))) * m


@dataclass(frozen=True)
class BinaryQuant(CompressionSpec):
    """Replace the weight by alpha * sign(w), alpha = ||W||_F / sqrt(n*m)."""

    kind = "binary"

    def refresh(self, blocks, refresh_masks=True):
        for blk in blocks:
            ss = binarize_scaled(blk.weight.data)
            blk.alpha = ss.alpha
            blk.signs = ss.signs

    def effective_weight(self, block):
        if block.alpha is None:
            raise RuntimeError("binary block used before refresh()")
        alpha = block.alpha
        return ste_apply(block.weight, lambda w: alpha * np.where(w >= 0.0, 1.0, -1.0))

    def stored(self, n, m):
        return n * m  # every entry stays, shrunk to one bit

    def bits(self, n, m):
        return n * m + 64

    def write(self, block, w):
        if block.alpha is None or block.signs is None:
            w.fail("binary block has no derived state; call refresh() first")
        super().write(block, w)
        w.floats(np.float64(block.alpha))
        w.bits(block.signs > 0.0)

    def read(self, r, n, m, activation, label):
        block = super().read(r, n, m, activation, label)
        block.alpha = float(r.floats((), f"{label} alpha"))
        block.signs = r.bits(n, m, f"{label} signs") * 2.0 - 1.0
        return block

    def describe(self, block):
        return {} if block.alpha is None else {"alpha": block.alpha}


@dataclass(frozen=True)
class LowRank(CompressionSpec):
    """Replace the weight by a rank-r product A @ B from a truncated SVD."""

    kind = "low_rank"
    factored = True
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")

    def compress(self, block):
        return factorize_layer(block, self.rank)

    def linear(self, block, x):
        return matmul(matmul(x, transpose(block.b)), transpose(block.a))

    def stored(self, n, m):
        return min(self.rank, n, m) * (n + m)

    def count(self, block):
        return block.a.data.size + block.b.data.size

    def write(self, block, w):
        for t in (block.a, block.b, block.bias):
            w.floats(t.data)

    def read(self, r, n, m, activation, label):
        if self.rank > min(n, m):
            r.fail(f"{label} has rank {self.rank} above min({n}, {m})")
        a = Tensor(r.floats((n, self.rank), f"{label} factor a"), requires_grad=True)
        b = Tensor(r.floats((self.rank, m), f"{label} factor b"), requires_grad=True)
        bias = Tensor(r.floats((n,), f"{label} bias"), requires_grad=True)
        return CompressedBlock(self, bias, activation, factors=(a, b))

    def describe(self, block):
        return {"rank": block.a.data.shape[1]}


FAMILIES: dict[str, type[CompressionSpec]] = {
    cls.kind: cls
    for cls in (PruneUnstructuredLayer, PruneUnstructuredGlobal, PruneNM, PruneStructured, BinaryQuant, LowRank)
}


def _check_sparsity(s: float) -> None:
    if not (0.0 <= s < 1.0):
        raise ValueError(f"sparsity must be in [0, 1), got {s}")


def spec_to_dict(spec: CompressionSpec | None) -> dict:
    if spec is None:
        return {"kind": "none"}
    return {"kind": spec.kind, **{f.name: getattr(spec, f.name) for f in fields(spec)}}


def spec_from_dict(d: dict) -> CompressionSpec | None:
    kind = d.get("kind")
    if kind == "none":
        return None
    cls = FAMILIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown compression kind {kind!r}")
    types = get_type_hints(cls)  # coerce each field to its declared type
    return cls(*(types[f.name](d[f.name]) for f in fields(cls)))


# --------------------------------------------------------------------------
# Mask construction


def magnitude_scores(w: Array) -> Array:
    return np.abs(np.asarray(w, dtype=np.float64))


def prune_layerwise(w: Array, sparsity: float) -> Array:
    """0/1 mask zeroing the floor(sparsity * size) smallest |w| entries."""
    return prune_global([w], sparsity)[0]


def prune_global(layers: Sequence[Array], sparsity: float) -> list[Array]:
    """Masks for several layers under one shared magnitude threshold.

    Total zeros = floor(sparsity * total size); ties resolved by
    (layer index, flat index), smallest pruned first. A single layer
    degenerates to prune_layerwise.
    """
    _check_sparsity(sparsity)
    if not layers:
        raise ValueError("prune_global needs at least one layer")
    arrs = [np.asarray(w, dtype=np.float64) for w in layers]
    flat = np.concatenate([magnitude_scores(a).ravel() for a in arrs])
    drop = int(math.floor(sparsity * flat.size))
    mask_flat = np.ones(flat.size)
    if drop:
        # stable sort keeps ties in (layer, flat index) order, so smaller indices go first
        mask_flat[np.argsort(flat, kind="stable")[:drop]] = 0.0
    masks = []
    offset = 0
    for a in arrs:
        masks.append(mask_flat[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    return masks


def prune_nm(w: Array, keep: int, group: int) -> Array:
    """N:M mask: ``keep`` largest-|w| entries survive per ``group`` columns.

    Groups run along the input (column) axis. A trailing group of width
    l < group keeps ceil(keep * l / group) entries.
    """
    if not (1 <= keep <= group):
        raise ValueError(f"N:M pruning needs 1 <= N <= M, got {keep}:{group}")
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"prune_nm expects a 2-D weight, got shape {w.shape}")
    n, m = w.shape
    scores = magnitude_scores(w)
    mask = np.zeros_like(w)
    rows = np.arange(n)[:, None]
    for start in range(0, m, group):
        stop = min(start + group, m)
        width = stop - start
        kept = keep if width == group else -(-keep * width // group)
        order = np.argsort(scores[:, start:stop], axis=1, kind="stable")
        mask[rows, start + order[:, width - kept :]] = 1.0
    return mask


def prune_structured(w: Array, sparsity: float) -> Array:
    """Mask zeroing the floor(sparsity * n_rows) rows with smallest l2 norm."""
    _check_sparsity(sparsity)
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"prune_structured expects a 2-D weight, got shape {w.shape}")
    norms = np.sqrt((w * w).sum(axis=1))
    drop = int(math.floor(sparsity * w.shape[0]))
    mask = np.ones_like(w)
    if drop:
        mask[np.argsort(norms, kind="stable")[:drop], :] = 0.0
    return mask


# --------------------------------------------------------------------------
# Binarization


@dataclass(frozen=True)
class ScaledSign:
    """Sign pattern plus one shared magnitude."""

    alpha: float
    signs: Array  # entries in {-1.0, +1.0}; sign(0) = +1


def binarize_scaled(w: Array) -> ScaledSign:
    w = np.asarray(w, dtype=np.float64)
    signs = np.where(w >= 0.0, 1.0, -1.0)
    alpha = float(np.linalg.norm(w) / math.sqrt(w.size))
    return ScaledSign(alpha=alpha, signs=signs)


# --------------------------------------------------------------------------
# Truncated SVD (one-sided Jacobi; no library decompositions)

SVD_TOL = 1e-12
SVD_MAX_SWEEPS = 100


@dataclass(frozen=True)
class SvdResult:
    u: Array  # (n, r), orthonormal columns
    singular_values: Array  # (r,), non-increasing, >= 0
    v: Array  # (m, r), orthonormal columns


def _one_sided_jacobi(a: Array) -> tuple[Array, Array, Array]:
    # Hestenes rotations on column pairs until all pairs are orthogonal.
    # Caller guarantees rows >= cols.
    u = a.astype(np.float64).copy()
    cols = u.shape[1]
    v = np.eye(cols)
    for _ in range(SVD_MAX_SWEEPS):
        rotated = False
        for i in range(cols - 1):
            for j in range(i + 1, cols):
                x = u[:, i]
                y = u[:, j]
                pp = float(x @ x)
                qq = float(y @ y)
                pq = float(x @ y)
                if abs(pq) <= SVD_TOL * math.sqrt(pp * qq):
                    continue
                rotated = True
                zeta = (qq - pp) / (2.0 * pq)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                u[:, i], u[:, j] = c * x - s * y, s * x + c * y
                vi = v[:, i].copy()
                vj = v[:, j].copy()
                v[:, i] = c * vi - s * vj
                v[:, j] = s * vi + c * vj
        if not rotated:
            break
    sig = np.sqrt((u * u).sum(axis=0))
    order = np.argsort(-sig, kind="stable")
    sig = sig[order]
    u = u[:, order]
    v = v[:, order]
    nonzero = sig > 0.0
    u[:, nonzero] = u[:, nonzero] / sig[nonzero]
    return u, sig, v


def truncated_svd(w: Array, rank: int) -> SvdResult:
    """Best rank-r approximation factors of a 2-D matrix.

    Computed with one-sided Jacobi rotations (threshold 1e-12, at most 100
    sweeps); singular values come back sorted non-increasing.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"truncated_svd expects a 2-D matrix, got shape {w.shape}")
    n, m = w.shape
    if not (1 <= rank <= min(n, m)):
        raise ValueError(f"rank must be in [1, {min(n, m)}] for a {n}x{m} matrix, got {rank}")
    if n >= m:
        u, sig, v = _one_sided_jacobi(w)
    else:
        v, sig, u = _one_sided_jacobi(w.T)
    return SvdResult(
        u=u[:, :rank].copy(),
        singular_values=sig[:rank].copy(),
        v=v[:, :rank].copy(),
    )


# --------------------------------------------------------------------------
# Compressed blocks


class CompressedBlock:
    """A layer whose forward pass uses only its compressed representation.

    Pruning and binarization keep the trainable full-precision ``weight``
    and route gradients to it through the STE, so zeroed weights keep
    learning and can re-enter the mask at the next refresh. Low-rank
    blocks train the factors ``a`` (n, r) and ``b`` (r, m) directly, no STE.
    """

    def __init__(
        self,
        spec: CompressionSpec,
        bias: Tensor,
        activation: str,
        weight: Tensor | None = None,
        factors: tuple[Tensor, Tensor] | None = None,
    ):
        if (factors is not None, weight is not None) != (spec.factored, not spec.factored):
            takes = "factors, not a weight" if spec.factored else "a weight, not factors"
            raise ValueError(f"{spec.kind} blocks take {takes}")
        self.spec = spec
        self.bias = bias
        self.activation = activation
        self.weight = weight
        self.a, self.b = factors if factors is not None else (None, None)
        self.mask: Array | None = None
        self.alpha: float | None = None
        self.signs: Array | None = None

    @property
    def in_dim(self) -> int:
        return self.b.data.shape[1] if self.weight is None else self.weight.data.shape[1]

    @property
    def out_dim(self) -> int:
        return self.a.data.shape[0] if self.weight is None else self.weight.data.shape[0]

    def refresh(self) -> None:
        """Recompute derived state (mask / scale) from the current weight.

        Global pruning refreshed through this method sees only this block;
        use ``refresh_blocks`` to share the threshold across layers.
        """
        self.spec.refresh([self])

    def forward(self, x: Tensor) -> Tensor:
        z = add_bias(self.spec.linear(self, x), self.bias)
        return apply_activation(z, self.activation)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        if self.weight is None:
            return [("a", self.a), ("b", self.b), ("bias", self.bias)]
        return [("weight", self.weight), ("bias", self.bias)]

    trainable_parameters = named_parameters

    def param_count(self) -> int:
        """Stored parameters after discarding what the transform drops.

        Pruning counts surviving mask entries, binarization keeps the full
        count (entries shrink to one bit, see bit_footprint), low rank
        counts both factors. Biases are never compressed and always count.
        """
        return self.spec.count(self) + self.bias.data.size


def compress_block(block: DenseBlock, spec: CompressionSpec) -> CompressedBlock:
    """Build a compressed twin of a dense block (the block is left alone)."""
    return spec.compress(block)


def factorize_layer(block: DenseBlock, rank: int) -> CompressedBlock:
    """Split a dense layer into factors A = U, B = diag(s) V^T.

    The rank is clamped to min(n, m) when the layer is too skinny; a
    warning also fires when r(n+m) >= nm, where the factors store no
    fewer values than the dense weight.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    n, m = block.weight.data.shape
    r = min(rank, n, m)
    if r < rank:
        warnings.warn(f"rank {rank} clamped to {r} for a {n}x{m} layer", stacklevel=2)
    if r * (n + m) >= n * m:
        warnings.warn(
            f"rank {r} on a {n}x{m} layer stores {r * (n + m)} values vs {n * m} dense;"
            " no size benefit",
            stacklevel=2,
        )
    res = truncated_svd(block.weight.data, r)
    a = res.u
    b = res.singular_values[:, None] * res.v.T
    return CompressedBlock(
        spec=LowRank(r),
        bias=Tensor(block.bias.data.copy(), requires_grad=True),
        activation=block.activation,
        factors=(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)),
    )


def refresh_blocks(blocks: Sequence[CompressedBlock], refresh_masks: bool = True) -> None:
    """Refresh derived state; blocks under global pruning share a threshold.

    Blocks are refreshed in groups of equal specs, so a global threshold
    covers its group. ``refresh_masks=False`` freezes pruning masks
    (binary scales still track the weights).
    """
    groups: dict[CompressionSpec, list[CompressedBlock]] = {}
    for blk in blocks:
        groups.setdefault(blk.spec, []).append(blk)
    for spec, group in groups.items():
        spec.refresh(group, refresh_masks)


def compress_network(net, spec: CompressionSpec):
    """Compress every block of a dense network with one shared spec."""
    blocks = [compress_block(b, spec) for b in net.blocks]
    refresh_blocks(blocks)
    return Network(blocks, name=net.name)


# --------------------------------------------------------------------------
# Size accounting


def spec_param_count(spec: CompressionSpec | None, n: int, m: int) -> int:
    """Stored weight-entry count for an n x m layer under a spec.

    Bias entries are not included here; block/network counts add them.
    """
    return n * m if spec is None else spec.stored(n, m)


def bit_footprint(spec: CompressionSpec | None, n: int, m: int) -> int:
    """Bits needed for the weight payload: 64 per stored float, except
    binarization, which stores one bit per entry plus 64 for alpha."""
    return 64 * n * m if spec is None else spec.bits(n, m)
