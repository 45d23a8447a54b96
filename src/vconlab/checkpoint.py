"""Flat binary network files: one JSON header line, then raw float64 data.

Layout (documented in the README and kept stable):

    magic   b"VCNET1\\n"
    header  one UTF-8 JSON line ending in "\\n"
    payload concatenated arrays, little-endian float64, row-major

Per-block payload order -- dense: weight, bias. Compressed: whatever the
family's class in compression.py writes through the float and bit-row
helpers below (bit rows are padded with zeros to a byte). A blended block
stores its original's payload followed by its branch's. The header
carries layer sizes, activation tags, specs, and the shared scheduler
state (q, t) when present; a file loads only if its header is exactly the
one its network saves as.
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

    def fail(self, message: str):
        raise CheckpointError(message)


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


def _header(net: Network, scheduler: BetaScheduler | None) -> dict:
    return {
        "format": FORMAT_VERSION,
        "name": net.name,
        "blocks": [_block_header(b) for b in net.blocks],
        "scheduler": None if scheduler is None else {"q": scheduler.q, "t": scheduler.t},
    }


def _write_block(w: _Writer, block) -> None:
    if isinstance(block, VconBlock):
        _write_block(w, block.original)
        _write_block(w, block.branch)
    elif isinstance(block, CompressedBlock):
        block.spec.write(block, w)
    else:
        w.floats(block.weight.data)
        w.floats(block.bias.data)


def save_network(net: Network, path, scheduler: BetaScheduler | None = None) -> None:
    """Write the network (and optional scheduler state) to one flat file."""
    if scheduler is None:
        found = [b.scheduler for b in net.blocks if isinstance(b, VconBlock)]
        scheduler = found[0] if found else None
    header = _header(net, scheduler)
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


def _read_dense(r: _Reader, hdr: dict, label: str) -> DenseBlock:
    n, m = hdr["out_dim"], hdr["in_dim"]
    weight = Tensor(r.floats((n, m), f"{label} weight"), requires_grad=True)
    bias = Tensor(r.floats((n,), f"{label} bias"), requires_grad=True)
    return DenseBlock(weight, bias, hdr["activation"])


def _read_compressed(r: _Reader, hdr: dict, label: str) -> CompressedBlock:
    spec = spec_from_dict(hdr["spec"])
    if spec is None:
        r.fail(f"{label}: compressed block with spec 'none'")
    return spec.read(r, hdr["out_dim"], hdr["in_dim"], hdr["activation"], label)


def _read_block(r: _Reader, hdr: dict, label: str, scheduler: BetaScheduler | None):
    if hdr["kind"] == "dense":
        return _read_dense(r, hdr, label)
    if hdr["kind"] == "compressed":
        return _read_compressed(r, hdr, label)
    original = _read_dense(r, hdr, f"{label} original")
    return VconBlock(original, _read_compressed(r, hdr, f"{label} branch"), scheduler)


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
        net = Network(blocks, name=header.get("name", "net"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"{path}: malformed header near byte offset {r.pos}: {exc}") from None
    if r.pos != len(blob):
        raise CheckpointError(
            f"{path}: {len(blob) - r.pos} unexpected trailing bytes at byte offset {r.pos}"
        )
    if json.dumps(_header(net, scheduler)) != text:
        raise CheckpointError(
            f"{path}: header at byte offset {len(MAGIC)} is not the one its network saves as"
            " (unknown key, key order, or number form)"
        )
    return net, scheduler
