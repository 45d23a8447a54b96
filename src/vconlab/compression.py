"""Compression families for dense layers and the blocks that apply them.

Four magnitude-pruning granularities (per-layer, global, N-of-M groups,
whole rows), sign binarization with a single Frobenius-derived scale, and
truncated-SVD factorization. Pruning and binarization keep a trainable
full-precision weight and push gradients through the transform with a
straight-through estimator; low-rank blocks train the two factors
directly.

Each family is one spec class (see ``CompressionSpec``), the single home
of its rule, its tensors, its derived state, size accounting, what its
file stores beyond the tensors, and report; ``FAMILIES`` maps each
config/header ``kind`` to its class. ``CompressedBlock`` holds whatever
the family names and knows no family.

Tie rule used everywhere: when magnitudes tie at the pruning threshold,
the smaller flat index is pruned first (global pruning orders by layer
index, then flat index), and NaN ranks above every number. Masks are
therefore a deterministic function of the weights.

Every rule, family and block also takes a stack of networks (model.py):
weights with a leading stack axis get each member's mask, scale or factors
as that member alone would, in one pass where numpy can do it row by row
(the Jacobi SVD runs one wave loop for the whole stack) and in a loop over
the members where it cannot (the tie and NaN fallback of
``drop_smallest``, binary's norm).
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar, Sequence, get_args, get_type_hints

import numpy as np

from .model import DenseBlock, Network, apply_activation, select
from .tensor import ShapeError, Tensor, linear, ste_apply

Array = np.ndarray


# --------------------------------------------------------------------------
# Families


class CompressionSpec:
    """One compression family; each subclass is a frozen dataclass.

    A family names the trainable tensors of an n x m layer and their shapes
    (``shapes``, in payload order; the base has one ``weight``), builds a
    block from a dense one (``compress``), and derives the block's
    ``state`` from those tensors (``refresh``, called once per group of
    blocks with equal specs; the base derives nothing). It gives the
    block's effective weight (``effective_weight``; low rank instead
    overrides ``linear``, the block's pre-activation with its bias, with
    its factor product), counts the entries and bits a block holds in
    its ``params`` (``count``, ``bit_footprint``), names its ``inspect``
    fields (``describe``) and prints them for an n x m block (``render``).
    checkpoint.py stores a block's named tensors and its bias; a family
    whose file holds more (its state, or a check on what was read) writes
    it from a block through ``write_state`` and reads it back for an n x m
    block through ``read_state``, which returns the state, with
    checkpoint.py's writer (``floats``, ``bits``) and reader (those and
    ``fail``).
    """

    kind: ClassVar[str]

    def shapes(self, n: int, m: int) -> dict[str, tuple[int, ...]]:
        return {"weight": (n, m)}

    def compress(self, block: DenseBlock) -> CompressedBlock:
        weight = Tensor(block.weight.data.copy(), requires_grad=True)
        return CompressedBlock(self, {"weight": weight}, Tensor(block.bias.data.copy(), requires_grad=True),
                               block.activation)

    def refresh(self, blocks: Sequence[CompressedBlock], refresh_masks: bool = True) -> None:
        pass

    def linear(self, block: CompressedBlock, x: Tensor) -> Tensor:
        return linear(x, self.effective_weight(block), block.bias)

    def count(self, block: CompressedBlock) -> int:
        return sum(t.data.size for t in block.params.values())

    def bit_footprint(self, block: CompressedBlock) -> int:
        return 64 * self.count(block)

    def write_state(self, block: CompressedBlock, w) -> None:
        pass

    def read_state(self, r, n: int, m: int, label: str):
        return None

    def shape_warnings(self, n: int, m: int) -> list[str]:
        """What compressing an n x m layer warns about; the CLI prints it once per command."""
        return []


class _MaskSpec(CompressionSpec):
    """Pruning: a 0/1 mask, the block's state, applied through the STE,
    and a block counts what its mask keeps. Subclasses give the rule's
    ``masks``, which maps a list of weights to their masks, and ``stored``,
    what it keeps of an n x m weight: the loader checks a file's mask
    against it before any block exists."""

    network_wide: ClassVar[bool] = False  # the kept count holds per network, not per layer

    def refresh(self, blocks, refresh_masks=True):
        if refresh_masks:
            for blk, mask in zip(blocks, self.masks([blk.params["weight"].data for blk in blocks])):
                blk.state = mask

    def effective_weight(self, block):
        mask = block.state
        return ste_apply(block.params["weight"], lambda w: w * mask)

    def count(self, block):
        return int(block.state.sum())

    def write_state(self, block, w):
        w.bits(block.state)

    def read_state(self, r, n, m, label):
        mask = r.bits(n, m, f"{label} mask")
        kept = int(mask.sum())
        if not self.network_wide and kept != self.stored(n, m):
            r.fail(f"{label} mask keeps {kept} weights, {self.kind} keeps {self.stored(n, m)}")
        return mask

    def describe(self, block):
        return {"kept_weights": self.count(block), "density": float(block.state.sum() / block.state.size)}

    def render(self, fields, n, m):
        return f", density {fields['kept_weights']}/{n * m} ({fields['density']:.4f})"


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
            raise ValueError(f"keep must be in [1, group] for N:M pruning, got {self.keep}:{self.group}")

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
    """Replace the weight by alpha * sign(w), alpha = ||W||_F / sqrt(n*m).

    The block's state is ``(alpha, signs)``, signs in {-1.0, +1.0}: +1.0
    where w >= 0 (either signed zero included), -1.0 elsewhere (NaN too);
    alpha is an array of one value per member (0-d for a lone block)."""

    kind = "binary"

    def refresh(self, blocks, refresh_masks=True):
        for blk in blocks:
            w = blk.params["weight"].data
            n, m = w.shape[-2:]
            norms = np.array([np.linalg.norm(member) for member in w.reshape(-1, n, m)])
            blk.state = ((norms / math.sqrt(n * m)).reshape(w.shape[:-2]), (w >= 0.0) * 2.0 - 1.0)

    def effective_weight(self, block):
        alpha, signs = block.state
        weight = alpha[..., None, None] * signs
        return ste_apply(block.params["weight"], lambda w: weight)

    def bit_footprint(self, block):
        return self.count(block) + 64 * block.state[0].size  # one bit per entry, 64 per member's alpha

    def write_state(self, block, w):
        alpha, signs = block.state
        w.floats(np.float64(alpha))
        w.bits(signs > 0.0)

    def read_state(self, r, n, m, label):
        alpha = r.floats((), f"{label} alpha")
        return alpha, r.bits(n, m, f"{label} signs") * 2.0 - 1.0

    def describe(self, block):
        return {"alpha": float(block.state[0])}

    def render(self, fields, n, m):
        return f", alpha {fields['alpha']:.6g}"


@dataclass(frozen=True)
class LowRank(CompressionSpec):
    """Replace the weight by a rank-r product A @ B from a truncated SVD."""

    kind = "low_rank"
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")

    def shapes(self, n, m):
        return {"a": (n, self.rank), "b": (self.rank, m)}

    def compress(self, block):
        """Split a dense layer into factors A = U, B = diag(s) V^T.

        A stacked layer takes one ``truncated_svd`` call for all its
        members: they share its wave loop and its sweep stop, and each
        member's factors are the bytes of its own SVD alone.

        The rank is clamped to min(n, m) when the layer is too skinny, and
        the block's spec carries the clamped rank (``shape_warnings`` names
        that case, and the one where the factors store no fewer values than
        the dense weight).
        """
        w = block.weight.data
        n, m = w.shape[-2:]
        r = min(self.rank, n, m)
        res = truncated_svd(w, r)
        b = res.singular_values[..., :, None] * res.v.swapaxes(-1, -2)
        params = {"a": Tensor(res.u, requires_grad=True), "b": Tensor(b, requires_grad=True)}
        return CompressedBlock(LowRank(r), params, Tensor(block.bias.data.copy(), requires_grad=True),
                               block.activation)

    def linear(self, block, x):
        return linear(linear(x, block.params["b"]), block.params["a"], block.bias)

    def read_state(self, r, n, m, label):
        if self.rank > min(n, m):
            r.fail(f"{label} has rank {self.rank} above min({n}, {m})")
        return None

    def describe(self, block):
        return {"rank": self.rank}

    def render(self, fields, n, m):
        return f", rank {fields['rank']}"

    def shape_warnings(self, n, m):
        r = min(self.rank, n, m)
        out = [f"rank {self.rank} clamped to {r} for a {n}x{m} layer"] if r < self.rank else []
        if r * (n + m) >= n * m:
            out.append(f"rank {r} on a {n}x{m} layer stores {r * (n + m)} values vs {n * m} dense; no size benefit")
        return out


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
    """Read a compression section: ``kind`` plus the chosen family's fields,
    and no other key."""
    d = config_value(d, dict, "compression")
    cls = config_kind(d, {"none": None, **FAMILIES}, "compression.")
    if cls is None:
        reject_unknown(d, {"kind"}, "compression.")
        return None
    return config_fields(cls, d, "compression.")


# --------------------------------------------------------------------------
# Typed JSON values (experiment configs and checkpoint specs)


class ConfigError(ValueError):
    """Invalid or unknown configuration."""


_JSON_TYPES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string",
               list: "a list", dict: "an object"}


def config_value(value, kind, key: str):
    """Return ``value`` if it already has the JSON type ``kind`` (a key of
    ``_JSON_TYPES``, or ``T | None``), else raise a ``ConfigError`` naming the
    dotted ``key``. A bool is not an integer, a float is finite, and the one
    conversion is that a float also takes an integer (returned as a float)."""
    if value is None and type(None) in get_args(kind):
        return None
    kind = next((t for t in get_args(kind) if t is not type(None)), kind)
    if isinstance(value, bool) == (kind is bool):
        if kind is float and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
            return float(value)
        if kind is not float and isinstance(value, kind):
            return value
    raise ConfigError(f"{key} must be {_JSON_TYPES[kind]}, got {value!r}")


def reject_unknown(section: dict, allowed, prefix: str) -> None:
    """Raise a ``ConfigError`` naming the first key of ``section`` not in ``allowed``."""
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {prefix}{key}")


def config_kind(section: dict, kinds: dict, prefix: str):
    """The value ``kinds`` maps the section's ``kind`` to; any other kind is
    a ``ConfigError`` listing the ones there are."""
    kind = config_value(section.get("kind"), str, prefix + "kind")
    if kind not in kinds:
        raise ConfigError(f"{prefix}kind must be one of {', '.join(kinds)}, got {kind!r}")
    return kinds[kind]


@functools.cache
def _field_types(cls) -> dict:
    """Each field's declared type, resolved once per class: with postponed
    annotations, ``get_type_hints`` compiles every annotation string anew."""
    return get_type_hints(cls)


def config_fields(cls, section: dict, prefix: str, **given):
    """Build the dataclass ``cls`` from a JSON object: each field present in
    ``section`` goes through ``config_value`` with its declared type, an absent
    one takes its default, and ``given`` fields are passed as they are. A key
    that is neither a field nor ``kind`` is a ``ConfigError``, and so is a
    ``ValueError`` from the class, under the prefix, so each class's message
    starts with the name of the field it rejects."""
    reject_unknown(section, {"kind", *(f.name for f in fields(cls))}, prefix)
    types = _field_types(cls)
    values = dict(given)
    for f in fields(cls):
        if f.name in section and f.name not in given:
            values[f.name] = config_value(section[f.name], types[f.name], prefix + f.name)
        elif f.name not in values and f.default is MISSING:
            raise ConfigError(f"{prefix}{f.name} is required")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


# --------------------------------------------------------------------------
# Mask construction


def drop_smallest(scores: Array, drop: int) -> Array:
    """0/1 mask over each row of ``scores`` (1-D, or a stack of rows)
    zeroing that row's ``drop`` smallest.

    The mask a stable sort would give (ties go by the smaller index, NaN
    ranks above every number), found in linear time: ``np.partition``
    gives each row's drop-th smallest score as its threshold. In a row
    where it is a number and exactly ``drop`` scores are <= it, those are
    the ones to go, and one comparison over all rows builds the mask. Each
    other row (a tie at the threshold, or NaN) is redone alone: everything
    below the threshold goes, then the entries tied at it in index order
    until ``drop`` are gone. ``tests/oracles.py`` keeps the stable-sort
    masks this must match.
    """
    if not drop:
        return np.ones(scores.shape)
    thr = np.partition(scores, drop - 1, axis=-1)[..., drop - 1 : drop].copy()  # the partition can go
    dropped = scores <= thr  # false everywhere in a row whose threshold is NaN
    mask = 1.0 - dropped
    width = scores.shape[-1]
    # a row with a number for its threshold drops at least ``drop``: if no row's is
    # NaN, a total of drop per row means exactly drop in every row
    if np.count_nonzero(dropped) == drop * (scores.size // width) and not np.isnan(thr).any():
        return mask
    rows, row_thr, row_mask = scores.reshape(-1, width), thr.reshape(-1), mask.reshape(-1, width)
    for i in np.flatnonzero(np.count_nonzero(dropped.reshape(-1, width), axis=1) != drop):
        row_mask[i] = _drop_with_ties(rows[i], row_thr[i], drop)
    return mask


def _drop_with_ties(scores: Array, thr: float, drop: int) -> Array:
    """``drop_smallest`` of one row whose threshold ``thr`` is tied or NaN."""
    if np.isnan(thr):  # NaN compares false with everything: it ties only with NaN
        below, tied = ~np.isnan(scores), np.isnan(scores)
    else:
        below, tied = scores < thr, scores == thr
    mask = np.logical_not(below).astype(np.float64)
    mask[np.flatnonzero(tied)[: drop - np.count_nonzero(below)]] = 0.0
    return mask


def _flat(w: Array) -> Array:
    """Each (n, m) weight of ``w`` as one row; a lone one as a 1-D array."""
    return w.reshape(*w.shape[:-2], -1)


def prune_layerwise(w: Array, sparsity: float) -> Array:
    """0/1 mask zeroing the floor(sparsity * n * m) smallest |w| entries of
    an n x m weight, or of each member's weight in a stack."""
    _check_sparsity(sparsity)
    w = np.asarray(w, dtype=np.float64)
    n, m = w.shape[-2:]
    return drop_smallest(_flat(np.abs(w)), int(math.floor(sparsity * (n * m)))).reshape(w.shape)


def prune_global(layers: Sequence[Array], sparsity: float) -> list[Array]:
    """Masks for several layers under one shared magnitude threshold, one
    per member when the layers are stacked.

    Total zeros = floor(sparsity * total size); ties resolved by
    (layer index, flat index), smallest pruned first. A single layer
    degenerates to prune_layerwise.
    """
    _check_sparsity(sparsity)
    if not layers:
        raise ValueError("prune_global needs at least one layer")
    arrs = [np.asarray(w, dtype=np.float64) for w in layers]
    flat = np.concatenate([_flat(np.abs(a)) for a in arrs], axis=-1)
    mask_flat = drop_smallest(flat, int(math.floor(sparsity * flat.shape[-1])))
    ends = np.cumsum([math.prod(a.shape[-2:]) for a in arrs]).tolist()
    return [part.reshape(a.shape) for a, part in zip(arrs, np.split(mask_flat, ends[:-1], axis=-1))]


_NAN_KEY = int(np.array(np.inf).view(np.int64)) + 1


def prune_nm(w: Array, keep: int, group: int) -> Array:
    """N:M mask: ``keep`` largest-|w| entries survive per ``group`` columns.

    Groups run along the input (column) axis. A trailing group of width
    l < group keeps ceil(keep * l / group) entries.

    All groups are ranked at once. Each entry's key is its magnitude's
    float64 bit pattern as an int64: non-negative floats order like their
    bits, and every NaN gets one key above +inf's. An entry's rank is
    counted from pairwise comparisons (entry i sorts before a later entry j
    exactly when key_i <= key_j), the ``keep`` highest ranks survive, and
    the bool mask is built whole and converted to float once. This gives
    the mask of the per-group stable-sort loop kept in
    ``tests/oracles.py``, bit for bit. The passes grow with the group width
    squared, so wide groups on few-row layers cost more than that loop
    (from 32 columns up, several times more on 3x256 and 64x64 layers),
    while a 256x256 layer is faster at every width up to 64; CHANGES.md
    has the timings.
    """
    if not (1 <= keep <= group):
        raise ValueError(f"N:M pruning needs 1 <= N <= M, got {keep}:{group}")
    w = np.asarray(w, dtype=np.float64)
    if not 2 <= w.ndim <= 3:
        raise ShapeError(f"prune_nm expects a 2-D weight, or 3-D for a stack, got shape {w.shape}")
    m = w.shape[-1]
    rows = w.reshape(-1, m)  # the members' rows one after another: groups never span two
    n = len(rows)
    top = np.empty((n, m), dtype=bool)
    full = m - m % group
    if full:
        top[:, :full] = _top_ranked(rows[:, :full].reshape(n, full // group, group), keep).reshape(n, full)
    if full < m:  # a trailing group of width l keeps ceil(keep * l / group)
        top[:, full:] = _top_ranked(rows[:, full:].reshape(n, 1, m - full), -(-keep * (m - full) // group))[:, 0]
    return top.astype(np.float64).reshape(w.shape)


def _magnitude_keys(w: Array) -> Array:
    """int64 keys of |w|, C-contiguous in ``w``'s index order: the float64
    bit patterns, which order like the non-negative floats, with every NaN
    on one key just above +inf's."""
    keys = np.abs(w, out=np.empty(w.shape)).view(np.int64)
    return np.minimum(keys, _NAN_KEY, out=keys)


def _top_ranked(w: Array, kept: int) -> Array:
    """Bool mask over ``w`` (rows, groups, width) marking in each group the
    ``kept`` entries a stable ascending sort of the magnitudes puts last.

    Entry i's rank is the number of entries sorted before it: it starts at
    i, as if every earlier entry came first, and moves by one for each
    later entry j with key_j < key_i, which comes first instead. Ranks stay
    in [0, width), so they take the smallest unsigned dtype that holds
    width - 1: uint8 up to 256 columns.
    """
    width = w.shape[-1]
    dtype = np.min_scalar_type(width - 1)
    keys = _magnitude_keys(w.transpose(2, 0, 1))  # one contiguous slice per position in the group
    rank = np.repeat(np.arange(width, dtype=dtype), keys[0].size).reshape(keys.shape)
    for i in range(width - 1):
        later_first = (keys[i + 1 :] < keys[i]).view(np.uint8)
        rank[i] += later_first.sum(axis=0, dtype=dtype)
        rank[i + 1 :] -= later_first
    return (rank >= width - kept).transpose(1, 2, 0)


def prune_structured(w: Array, sparsity: float) -> Array:
    """Mask zeroing the floor(sparsity * n_rows) rows with smallest l2 norm,
    in each member's weight of a stack."""
    _check_sparsity(sparsity)
    w = np.asarray(w, dtype=np.float64)
    if not 2 <= w.ndim <= 3:
        raise ShapeError(f"prune_structured expects a 2-D weight, or 3-D for a stack, got shape {w.shape}")
    norms = np.sqrt((w * w).sum(axis=-1))
    rows = drop_smallest(norms, int(math.floor(sparsity * w.shape[-2])))
    return np.repeat(rows[..., None], w.shape[-1], axis=-1)


# --------------------------------------------------------------------------
# Truncated SVD (one-sided Jacobi; no library decompositions)

SVD_TOL = 1e-12
SVD_MAX_SWEEPS = 100


@dataclass(frozen=True)
class SvdResult:
    """The factors of a matrix, or of each member of a stack (a leading axis)."""

    u: Array  # (..., n, r), orthonormal columns
    singular_values: Array  # (..., r), non-increasing, >= 0
    v: Array  # (..., m, r), orthonormal columns


def _one_sided_jacobi(a: Array) -> tuple[Array, Array, Array]:
    """Hestenes rotations on column pairs until all pairs are orthogonal, for
    a matrix or for each member of a stack (a leading axis).

    Caller guarantees rows >= cols and that ``truncated_svd``'s bound holds.
    A pair (i, j), i < j, rotates when |x.y| exceeds SVD_TOL * |x| * |y|,
    each norm the square root of its squared norm, and the sweeps stop
    after one in which no member rotated (at most SVD_MAX_SWEEPS). Taking
    the two roots apart keeps the threshold from underflowing where
    |x|^2 |y|^2 would (entries below about 1e-80), and scaling a matrix by a
    power of two, its squares still normal floats, leaves every decision as
    it is. A member that has converged sees only sweeps in which none of its
    pairs rotates, so its columns, and its factors, are those it gets alone.

    Each sweep runs the pairs in waves (``_jacobi_waves``) shared by every
    member: the pairs of a wave share no column, each (member, pair) is
    tested on its own, and those that rotate turn together, with c and s per
    pair. Pairs that share a column keep the cyclic row order, so every pair
    sees the same columns, makes the same decision and gets the same c and s
    as in the row-by-row sweep. The test and c, s are elementwise array ops
    over the wave, with ``math.hypot`` (``_hypot1``).

    The result is fixed bit for bit, not only to rounding: every dot is a
    BLAS ddot over a non-unit stride, whose kernel adds in the same order
    for any such stride, and each rotation is ``c*x - s*y``, ``s*x + c*y``
    per element. A wave's dots, for every member, are one stacked
    ``np.matmul`` (``_strided_dots``), which numpy hands, 1 x n by n x 1
    product by product, to that strided ddot, as it does ``x.dot(y)``
    (checked on numpy 2.4.6; the oracle tests guard other versions). Each
    column's squared norm is cached and, after a wave rotates, recomputed
    with that same dot for the wave's columns ``lo .. w - lo``; a column
    that did not rotate gets back its cached value, so every cache equals
    what a fresh dot would give.

    The columns live in ``_rotated_columns``'s work array: column k of
    ``u`` in the even lanes of row k, so each is a stride-2 view, and column
    k of ``v`` in its odd lanes. A wave's i and j columns are then a slice
    and a reversed slice of whole rows. A wave in which every pair of every
    member rotates turns those slices through preallocated buffers, with no
    gather or scatter; any other wave gathers its rotating rows, turns them
    and scatters them back. ``u`` goes back into C order before the column
    sums, whose bits depend on that layout. ``tests/oracles.py`` keeps the
    plain per-pair loop that this must match.
    """
    cols = a.shape[-1]
    work = _rotated_columns(a)
    u = np.ascontiguousarray(work[..., ::2].swapaxes(-1, -2))
    v = np.ascontiguousarray(work[..., 1 : 2 * cols : 2].swapaxes(-1, -2))
    sig = np.sqrt((u * u).sum(axis=-2))
    order = np.argsort(-sig, axis=-1, kind="stable")
    sig = np.take_along_axis(sig, order, axis=-1)
    u = np.take_along_axis(u, order[..., None, :], axis=-1)
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    np.divide(u, sig[..., None, :], out=u, where=sig[..., None, :] > 0.0)
    return u, sig, v


def _jacobi_waves(cols: int) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of one cyclic sweep, as waves: wave ``w``,
    for ``w`` in 1 .. 2 * cols - 3, holds the pairs ``(i, w - i)`` with
    ``lo <= i < hi``, and comes back as its bounds ``(lo, hi)``.

    No two pairs of a wave share a column, and two pairs that share a
    column come in the order the row-by-row sweep visits them, so running
    the waves in order shows every pair the columns it sees in that sweep."""
    return [(max(0, w - cols + 1), (w + 1) // 2) for w in range(1, 2 * cols - 2)]


def _strided_dots(x: Array, y: Array) -> Array:
    """``x[..., k, :].dot(y[..., k, :])`` for every row k (of every member of
    a stack), as one stacked ``np.matmul`` of 1 x n rows by n x 1 columns;
    numpy hands each such product to the same strided BLAS ddot that
    ``x[k].dot(y[k])`` calls."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _hypot1(x: Array) -> Array:
    """``math.hypot(1.0, v)`` for every entry v; ``np.hypot`` differs from
    it in the last bit on some inputs."""
    values = map(math.hypot, itertools.repeat(1.0), x.ravel().tolist())
    return np.fromiter(values, np.float64, x.size).reshape(x.shape)


def _rotated_columns(a: Array) -> Array:
    """The Jacobi loop of ``_one_sided_jacobi`` on ``a`` (rows >= cols), or
    on each member of a stack of them: every column pair rotated until
    orthogonal, the rotations also applied to the identity.

    Returns a ``(..., cols, 2 * rows)`` work array whose row k holds column
    k of the rotated ``a`` in its even lanes and column k of the rotated
    identity in its odd lanes ``1 .. 2 * cols - 1``; the odd lanes past
    those stay zero."""
    *stack, rows, cols = a.shape
    work = np.zeros((*stack, cols, 2 * rows))
    col = work[..., ::2]  # column k is col[..., k, :], a stride-2 view
    col[...] = a.swapaxes(-1, -2)
    work[..., range(cols), range(1, 2 * cols, 2)] = 1.0
    sq = _strided_dots(col, col)
    waves = _jacobi_waves(cols)
    # a whole wave turns its slices through these, the largest wave's size
    sx_buf, sy_buf = np.empty((2, *stack, cols // 2, 2 * rows))
    # a zeta past the largest float is inf, as in Python float arithmetic, and gives t = 0
    with np.errstate(over="ignore"):
        for _ in range(SVD_MAX_SWEEPS):
            rotated = False
            for w, (lo, hi) in enumerate(waves, start=1):
                # wave w pairs i = lo .. hi-1 with j = w-lo down to w-hi+1
                i, j = slice(lo, hi), slice(w - lo, w - hi, -1)
                pq = _strided_dots(col[..., i, :], col[..., j, :])
                pp, qq = sq[..., i], sq[..., j]
                turn = np.abs(pq) > SVD_TOL * np.sqrt(pp) * np.sqrt(qq)
                turned = np.count_nonzero(turn)
                if not turned:
                    continue
                rotated = True
                whole = turned == turn.size
                if not whole:
                    pq, pp, qq = pq[turn], pp[turn], qq[turn]
                zeta = (qq - pp) / (2.0 * pq)
                t = np.copysign(1.0, zeta) / (np.abs(zeta) + _hypot1(zeta))
                c = 1.0 / _hypot1(t)
                s = c * t
                c, s = c[..., None], s[..., None]
                if whole:
                    # j's rows are written through a forward slice, in the order of reversed c and s:
                    # numpy writes a reversed view several times slower
                    x, y, y_up = work[..., i, :], work[..., j, :], work[..., w - hi + 1 : w - lo + 1, :]
                    sx = np.multiply(x, s, out=sx_buf[..., : hi - lo, :])
                    sy = np.multiply(y, s, out=sy_buf[..., : hi - lo, :])
                    np.multiply(x, c, out=x)
                    np.subtract(x, sy, out=x)
                    np.multiply(y_up, c[..., ::-1, :], out=y_up)
                    np.add(y_up, sx[..., ::-1, :], out=y_up)
                else:
                    *member, pair = np.nonzero(turn)
                    turned_i = (*member, pair + lo)
                    turned_j = (*member, w - lo - pair)
                    x, y = work[turned_i], work[turned_j]  # copies, turned in place
                    sx, sy = x * s, y * s
                    x *= c
                    x -= sy
                    y *= c
                    y += sx
                    work[turned_i], work[turned_j] = x, y
                # columns lo .. w-lo: those that turned, plus the ones whose fresh dot equals their cache
                span = slice(lo, w - lo + 1)
                sq[..., span] = _strided_dots(col[..., span, :], col[..., span, :])
            if not rotated:
                break
    return work


def truncated_svd(w: Array, rank: int) -> SvdResult:
    """Best rank-r approximation factors of a 2-D matrix, or of each member
    of a stack of them (a leading axis), each member's bytes those it gets
    alone.

    Computed with one-sided Jacobi rotations (threshold 1e-12, at most 100
    sweeps) on ``w``, or on each member's transpose when ``w`` is wider than
    tall; singular values come back sorted non-increasing. A stack runs one
    wave loop for all its members, and its sweeps stop after one in which no
    member rotated (see ``_one_sided_jacobi``). The factors are bit-for-bit
    those of the plain per-pair Jacobi loop in ``tests/oracles.py`` (same
    pair order, same strided dots, same rotation arithmetic; only the
    columns' layout in memory differs, and a wave's dots go through one
    stacked ``np.matmul`` that numpy hands to the same strided ddot), which
    the tests check.

    A matrix with a NaN or infinite entry is a ValueError, and so is one
    whose ``(w*w).sum()**2`` is not finite (a sum of squares above about
    1.34e154, the square root of the largest float). In a stack the first
    such member raises its own message, with its index. The bound dates
    from a rotation test that took the product of two squared norms;
    relaxing it needs a per-pair oracle test at the new bound.
    """
    w = np.asarray(w, dtype=np.float64)
    if not 2 <= w.ndim <= 3:
        raise ShapeError(f"truncated_svd expects a 2-D matrix, or 3-D for a stack, got shape {w.shape}")
    n, m = w.shape[-2:]
    if not (1 <= rank <= min(n, m)):
        raise ValueError(f"rank must be in [1, {min(n, m)}] for a {n}x{m} matrix, got {rank}")
    finite = np.isfinite(w).all(axis=(-2, -1))
    with np.errstate(over="ignore"):
        energy = (w * w).sum(axis=(-2, -1))
        bad = np.flatnonzero(~(finite & np.isfinite(energy * energy)))
    if bad.size:
        k = bad[0]
        where = f" (stack member {k})" if w.ndim == 3 else ""
        if not finite.reshape(-1)[k]:
            raise ValueError(f"truncated_svd needs finite entries; the {n}x{m} matrix has NaN or inf{where}")
        raise ValueError(
            f"truncated_svd needs (w*w).sum()**2 finite (a sum of squares below about 1.34e154); "
            f"the {n}x{m} matrix's sum of squares is {float(energy.reshape(-1)[k]):.4g}{where}"
        )
    if n >= m:
        u, sig, v = _one_sided_jacobi(w)
    else:
        v, sig, u = _one_sided_jacobi(w.swapaxes(-1, -2))
    return SvdResult(
        u=u[..., :rank].copy(),
        singular_values=sig[..., :rank].copy(),
        v=v[..., :rank].copy(),
    )


# --------------------------------------------------------------------------
# Compressed blocks


class CompressedBlock:
    """A layer whose forward pass uses only its compressed representation.

    ``params`` holds the family's trainable tensors by name, in the order
    of ``spec.shapes``; ``state`` is what ``spec.refresh`` derives from
    them (None for a family that derives nothing). The constructor makes
    every param C-contiguous, whatever layout the family built it in, so a
    block's products and its ``.vcnet`` reload (always C order) run on the
    same layout and give the same bytes. A caller that holds the block's
    state already (a file's, or a stack member's slice) passes it; otherwise
    the constructor derives it. Either way every block can run, and the
    state changes only at the next refresh.
    """

    def __init__(self, spec: CompressionSpec, params: dict[str, Tensor], bias: Tensor, activation: str,
                 state=MISSING):
        self.spec = spec
        for t in params.values():
            t.data = np.ascontiguousarray(t.data)
        self.params = params
        self.bias = bias
        self.activation = activation
        if state is MISSING:
            self.state = None
            spec.refresh([self])
        else:
            self.state = state

    @property
    def in_dim(self) -> int:
        return next(reversed(self.params.values())).data.shape[-1]

    @property
    def out_dim(self) -> int:
        return next(iter(self.params.values())).data.shape[-2]

    @property
    def stack(self) -> tuple[int, ...]:
        return self.bias.data.shape[:-1]

    def forward(self, x: Tensor) -> Tensor:
        return apply_activation(self.spec.linear(self, x), self.activation)

    def select(self, index) -> CompressedBlock:
        """The members ``index`` of a stacked block (see ``Network.select``).
        Each keeps its slice of the state: one derived for the member alone
        could differ (a global mask, or a frozen one, depends on more than
        the block)."""
        return CompressedBlock(self.spec, {name: select(t, index) for name, t in self.params.items()},
                               select(self.bias, index), self.activation, _select_state(self.state, index))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [*self.params.items(), ("bias", self.bias)]

    def param_count(self) -> int:
        """Stored weight entries (``spec.count``) plus the bias, which is never compressed."""
        return self.spec.count(self) + self.bias.data.size


def _select_state(state, index):
    if state is None:
        return None
    if isinstance(state, tuple):
        return tuple(_select_state(part, index) for part in state)
    return state[index]


def compress_block(block: DenseBlock, spec: CompressionSpec) -> CompressedBlock:
    """Build a compressed twin of a dense block (the block is left alone)."""
    return spec.compress(block)


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
    return Network(blocks)
