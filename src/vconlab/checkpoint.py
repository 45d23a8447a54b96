"""Flat binary network files: one JSON header line, then raw float64 data.

Layout (documented in the README and kept stable):

    magic   b"VCNET1\\n"
    header  one UTF-8 JSON line ending in "\\n"
    payload concatenated arrays, little-endian float64, row-major

Per-block payload: the block's ``named_parameters()`` in order (dense:
weight, bias; compressed: the family's tensors in ``spec.shapes`` order,
then bias; blended: its original's, then its branch's), then the state
its compressed part's family writes through ``write_state`` with the
float and bit-row helpers below (bit rows are padded with zeros to a
byte). This module alone reads and writes the tensors. The header
carries the name "net" (in every file), layer sizes, activation tags,
specs, and the network's scheduler state (q, t) when it has one; a file
loads only if its header is exactly the one its network saves as. A
stack of networks is not saved.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .compression import CompressedBlock, spec_from_dict, spec_to_dict
from .model import ACTIVATIONS, DenseBlock, Network
from .tensor import Tensor
from .vcon import BetaScheduler, VconBlock

MAGIC = b"VCNET1\n"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable or inconsistent network file."""


class _Writer:
    def __init__(self, fh):
        self.fh = fh

    def floats(self, array) -> None:
        self.fh.write(np.asarray(array).astype("<f8").tobytes())

    def bits(self, rows: np.ndarray) -> None:
        # one padded bit-row per matrix row keeps rows byte-aligned
        self.fh.write(np.packbits(rows.astype(np.uint8), axis=1).tobytes())


class _Reader:
    def __init__(self, blob: bytes, offset: int, path=""):
        self.blob = blob
        self.pos = offset
        self.path = path

    def fail(self, message: str):
        raise CheckpointError(f"{self.path}: {message}")

    def take(self, count: int, what: str) -> bytes:
        end = self.pos + count
        if end > len(self.blob):
            self.fail(
                f"truncated payload: needed {count} bytes for {what} at byte "
                f"offset {self.pos}, file ends at {len(self.blob)}"
            )
        chunk = self.blob[self.pos : end]
        self.pos = end
        return chunk

    def floats(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        raw = self.take(8 * math.prod(shape), what)
        return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()

    def bits(self, n: int, m: int, what: str) -> np.ndarray:
        raw = self.take(n * ((m + 7) // 8), what)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(n, -1), axis=1)
        if bits[:, m:].any():
            self.fail(f"{what} has non-zero padding bits before byte offset {self.pos}")
        return bits[:, :m].astype(np.float64)


def _block_header(block) -> dict:
    if isinstance(block, VconBlock):
        return {**_block_header(block.branch), "kind": "vcon", "activation": block.original.activation}
    if not isinstance(block, (DenseBlock, CompressedBlock)):
        raise TypeError(f"cannot serialize block of type {type(block).__name__}")
    hdr = {
        "kind": "dense" if isinstance(block, DenseBlock) else "compressed",
        "out_dim": block.out_dim,
        "in_dim": block.in_dim,
        "activation": block.activation,
    }
    if isinstance(block, CompressedBlock):
        hdr["spec"] = spec_to_dict(block.spec)
    return hdr


def _header(net: Network) -> dict:
    sch = net.scheduler
    return {
        "format": FORMAT_VERSION,
        "name": "net",
        "blocks": [_block_header(b) for b in net.blocks],
        "scheduler": None if sch is None else {"q": sch.q, "t": sch.t},
    }


def _write_block(w: _Writer, block) -> None:
    for _, t in block.named_parameters():
        w.floats(t.data)
    compressed = block.branch if isinstance(block, VconBlock) else block
    if isinstance(compressed, CompressedBlock):
        compressed.spec.write_state(compressed, w)


def save_network(net: Network, path, scheduler: BetaScheduler | None = None) -> None:
    """Write the network and its scheduler's state to one flat file.
    ``scheduler`` may only be None or the network's own. Any other, a stack,
    or a header the loader would refuse is refused before the file is opened."""
    if net.stack:
        raise CheckpointError(f"cannot save a stack of {net.stack[0]} networks to {path}; select a member first")
    if scheduler is not None and scheduler is not net.scheduler:
        raise CheckpointError(f"cannot save {path} with a scheduler other than its network's")
    header = _header(net)
    _check_header(header, path)
    with open(path, "wb") as fh:
        fh.write(MAGIC + json.dumps(header).encode("utf-8") + b"\n")
        w = _Writer(fh)
        for block in net.blocks:
            _write_block(w, block)


def _is_count(value, low: int = 0) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _check_header(header, path) -> None:
    """Reject every structural fault a header can carry before any payload is read."""

    def malformed(detail: str):
        raise CheckpointError(f"{path}: malformed header near byte offset {len(MAGIC)}: {detail}")

    if not isinstance(header, dict):
        malformed("the header is not a JSON object")
    if header.get("format") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format {header.get('format')!r}")
    sched = header.get("scheduler")
    if sched is not None and not (isinstance(sched, dict) and _is_count(sched.get("q")) and _is_count(sched.get("t"))):
        malformed(f"scheduler must be null or hold non-negative integers q and t, got {sched!r}")
    blocks = header.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        malformed("blocks must be a non-empty list")
    for i, hdr in enumerate(blocks):
        kind = hdr.get("kind") if isinstance(hdr, dict) else None
        if kind not in ("dense", "compressed", "vcon"):
            raise CheckpointError(f"{path}: unknown block kind {kind!r}")
        if not (_is_count(hdr.get("out_dim"), 1) and _is_count(hdr.get("in_dim"), 1)):
            malformed(f"block {i} needs positive integers out_dim and in_dim")
        if hdr.get("activation") not in ACTIVATIONS:
            raise CheckpointError(f"{path}: block {i} has unknown activation {hdr.get('activation')!r}")
        if kind != "dense" and not isinstance(hdr.get("spec"), dict):
            malformed(f"block {i} needs a spec object")
        if kind == "vcon" and sched is None:
            raise CheckpointError(f"{path}: blended block without scheduler state")


def _read_block(r: _Reader, hdr: dict, label: str, scheduler: BetaScheduler | None):
    """The block of one header entry: each tensor of its layout, its bias,
    then its family's state, which the block is built with (nothing is
    derived). A blended block reads its original as a dense
    block, then its branch as a compressed one."""
    if hdr["kind"] == "vcon":
        original = _read_block(r, {**hdr, "kind": "dense"}, f"{label} original", None)
        branch = _read_block(r, {**hdr, "kind": "compressed"}, f"{label} branch", None)
        return VconBlock(original, branch, scheduler)
    n, m = hdr["out_dim"], hdr["in_dim"]
    spec = None
    if hdr["kind"] == "compressed":
        spec = spec_from_dict(hdr["spec"])
        if spec is None:
            r.fail(f"{label}: compressed block with spec 'none'")
    layout = {"weight": (n, m)} if spec is None else spec.shapes(n, m)
    params = {name: Tensor(r.floats(shape, f"{label} {name}"), requires_grad=True) for name, shape in layout.items()}
    bias = Tensor(r.floats((n,), f"{label} bias"), requires_grad=True)
    if spec is None:
        return DenseBlock(params["weight"], bias, hdr["activation"])
    return CompressedBlock(spec, params, bias, hdr["activation"], spec.read_state(r, n, m, label))


def load_network(path) -> tuple[Network, BetaScheduler | None]:
    """Read a network file back; values round-trip bit-exactly."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic at byte offset 0, not a network file")
    newline = blob.find(b"\n", len(MAGIC))
    if newline < 0:
        raise CheckpointError(f"{path}: unterminated header starting at byte offset {len(MAGIC)}")
    try:
        text = blob[len(MAGIC) : newline].decode("utf-8")
        header = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, over-long integers, deep nesting
        raise CheckpointError(f"{path}: unreadable header at byte offset {len(MAGIC)}: {exc}") from None
    _check_header(header, path)
    sched = header.get("scheduler")
    scheduler = None if sched is None else BetaScheduler(q=sched["q"], t=sched["t"])
    r = _Reader(blob, newline + 1, path=str(path))
    try:
        blocks = [_read_block(r, hdr, f"block {i}", scheduler) for i, hdr in enumerate(header["blocks"])]
        net = Network(blocks, scheduler=scheduler)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"{path}: malformed header near byte offset {r.pos}: {exc}") from None
    if r.pos != len(blob):
        raise CheckpointError(
            f"{path}: {len(blob) - r.pos} unexpected trailing bytes at byte offset {r.pos}"
        )
    if json.dumps(_header(net)) != text:
        raise CheckpointError(
            f"{path}: header at byte offset {len(MAGIC)} is not the one its network saves as"
            " (unknown key, key order, or number form)"
        )
    return net, net.scheduler
