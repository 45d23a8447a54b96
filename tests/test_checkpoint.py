import collections
import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vconlab import compression
from vconlab.checkpoint import MAGIC, CheckpointError, load_network, save_network
from vconlab.compression import (
    FAMILIES,
    BinaryQuant,
    CompressedBlock,
    LowRank,
    PruneNM,
    PruneStructured,
    PruneUnstructuredGlobal,
    PruneUnstructuredLayer,
    ConfigError,
    compress_network,
    refresh_blocks,
    spec_from_dict,
)
from vconlab.model import DenseBlock, Network, init_params, stack_networks
from vconlab.tensor import Tensor
from vconlab.training import OptimizerSpec, TrainConfig, make_synthetic, train
from vconlab.vcon import BetaScheduler, VconBlock, finalize, wrap_network

from test_families import SAMPLES, SIZES, same_state

SPECS = list(SAMPLES.values())


def _assert_params_equal(a, b):
    pa, pb = a.named_parameters(), b.named_parameters()
    assert [n for n, _ in pa] == [n for n, _ in pb]
    for (name, ta), (_, tb) in zip(pa, pb):
        assert np.array_equal(ta.data, tb.data), name


def _assert_forward_equal(a, b, dim, seed=0):
    x = Tensor(np.random.default_rng(seed).uniform(-2, 2, size=(5, dim)))
    assert np.array_equal(a.forward(x).data, b.forward(x).data)


def test_dense_roundtrip(tmp_path):
    net = init_params([3, 8, 4, 2], seed=0)
    p = tmp_path / "net.vcnet"
    save_network(net, p)
    back, sched = load_network(p)
    assert sched is None
    _assert_params_equal(net, back)
    _assert_forward_equal(net, back, 3)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
def test_compressed_roundtrip(tmp_path, spec):
    net = compress_network(init_params([5, 6, 3], seed=1), spec)
    p = tmp_path / "net.vcnet"
    save_network(net, p)
    back, _ = load_network(p)
    _assert_params_equal(net, back)
    for orig, rest in zip(net.blocks, back.blocks):
        assert rest.spec == orig.spec
        assert same_state(rest.state, orig.state)
    _assert_forward_equal(net, back, 5, seed=2)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
def test_blended_roundtrip_with_scheduler(tmp_path, spec):
    sched = BetaScheduler(q=120, t=37)
    net = wrap_network(init_params([4, 6, 2], seed=3), spec, sched)
    p = tmp_path / "net.vcnet"
    save_network(net, p)
    back, back_sched = load_network(p)
    assert (back_sched.q, back_sched.t) == (120, 37)
    _assert_params_equal(net, back)
    # the network's one scheduler is the one every restored block reads
    assert back.scheduler is back_sched
    assert all(b.scheduler is back_sched for b in back.blocks)
    _assert_forward_equal(net, back, 4, seed=4)  # same beta on both sides


def _three_steps(net):
    # three Adam steps, each on one batch of every training point: from the
    # q=4, t=2 file at beta 0.5 and 0.25, then past t = q at beta 0
    ds = make_synthetic("spiral", classes=3, samples_per_class=10, seed=9)
    _, log = train(net, ds, TrainConfig(epochs=3, batch_size=64, seed=3, optimizer=OptimizerSpec(lr=0.01)))
    return log.steps, [p.data.tobytes() for _, p in net.named_parameters()]


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_loaded_network_forward_is_bit_equal(tmp_path, kind):
    # a network behaves the same after a save and load: freshly compressed,
    # mid-transition and finalized, at the family samples' sizes (the [5, 6, 3]
    # nets above are too small to show a last-bit layout difference), in its
    # forward pass and in training on from there, its scheduler ticking too
    spec = SAMPLES[kind]
    nets = {
        "compressed": compress_network(init_params(SIZES, seed=7), spec),
        "mid-transition": wrap_network(init_params(SIZES, seed=7), spec, BetaScheduler(q=4, t=2)),
        "finalized": finalize(wrap_network(init_params(SIZES, seed=7), spec, BetaScheduler(q=4, t=4))),
    }
    x = Tensor(np.random.default_rng(8).uniform(-2, 2, size=(32, SIZES[0])))
    differ = []
    for state, net in nets.items():
        p = tmp_path / f"{state}.vcnet"
        save_network(net, p)
        back, _ = load_network(p)
        if back.forward(x).data.tobytes() != net.forward(x).data.tobytes():
            differ.append(f"{state} forward")
        if _three_steps(back) != _three_steps(net) or back.scheduler != net.scheduler:
            differ.append(f"{state} steps")
    assert differ == []
    assert nets["mid-transition"].scheduler == BetaScheduler(q=4, t=5)


def test_scheduler_can_be_passed_explicitly(tmp_path):
    # the scheduler argument may only name the network's own: a dense network
    # built with one round-trips it; any other, even in an equal state, is
    # refused and nothing is written
    sched = BetaScheduler(q=9, t=9)
    net = Network(init_params([2, 2], seed=5).blocks, scheduler=sched)
    p = tmp_path / "net.vcnet"
    save_network(net, p, scheduler=sched)
    back, back_sched = load_network(p)
    assert (back_sched.q, back_sched.t) == (9, 9) and back.scheduler is back_sched
    assert back_sched.phase == "converged"
    blended = wrap_network(init_params([2, 4, 3], seed=5), PruneUnstructuredLayer(0.5), BetaScheduler(q=4, t=1))
    for other, passed in ((net, BetaScheduler(q=9, t=9)), (blended, BetaScheduler(q=4, t=1)),
                          (blended, sched), (init_params([2, 2], seed=5), sched)):
        with pytest.raises(CheckpointError, match="other than its network's"):
            save_network(other, tmp_path / "other.vcnet", passed)
        assert not (tmp_path / "other.vcnet").exists()


def test_signs_of_exact_zero_weights_roundtrip(tmp_path):
    # sign(0) = +1 must survive the bit packing
    net = compress_network(init_params([2, 3], seed=6), BinaryQuant())
    net.blocks[0].params["weight"].data[0, 0] = 0.0
    refresh_blocks(net.blocks)
    assert net.blocks[0].state[1][0, 0] == 1.0
    p = tmp_path / "net.vcnet"
    save_network(net, p)
    back, _ = load_network(p)
    assert back.blocks[0].state[1][0, 0] == 1.0


def test_mask_rows_are_byte_aligned(tmp_path):
    # 11 columns -> 2 bytes per bit row; exercises the padding path
    net = compress_network(init_params([11, 3], seed=7), PruneUnstructuredLayer(0.4))
    p = tmp_path / "net.vcnet"
    save_network(net, p)
    back, _ = load_network(p)
    assert np.array_equal(back.blocks[0].state, net.blocks[0].state)


def _payload(net, path):
    """The bytes after the header line of ``net`` saved to ``path``."""
    save_network(net, path)
    blob = path.read_bytes()
    return blob[_split(blob)[1] :]


def _tensor_bytes(item):
    return b"".join(p.data.astype("<f8").tobytes() for _, p in item.named_parameters())


def test_dense_payload_is_the_named_parameters(tmp_path):
    net = init_params(SIZES, seed=13)
    assert _payload(net, tmp_path / "net.vcnet") == _tensor_bytes(net)


@pytest.mark.parametrize("state", ["compressed", "blended"])
@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_block_payload_is_its_named_parameters_then_its_state(tmp_path, kind, state):
    # every block stores its named parameters, then what its family adds;
    # a network stores its blocks' payloads one after another
    net = (compress_network(init_params(SIZES, seed=13), SAMPLES[kind]) if state == "compressed"
           else wrap_network(init_params(SIZES, seed=13), SAMPLES[kind], BetaScheduler(q=4, t=2)))
    blocks = [_payload(Network([b], scheduler=net.scheduler), tmp_path / f"block{i}.vcnet")
              for i, b in enumerate(net.blocks)]
    for block, payload in zip(net.blocks, blocks):
        assert payload.startswith(_tensor_bytes(block))
    assert _payload(net, tmp_path / "net.vcnet") == b"".join(blocks)
    back, _ = load_network(tmp_path / "net.vcnet")
    assert _tensor_bytes(back) == _tensor_bytes(net)


@pytest.mark.parametrize("state", ["compressed", "blended"])
@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_loading_derives_no_state(tmp_path, monkeypatch, kind, state):
    # a loaded block is built with the state its file holds; the family's
    # rule never runs (for a global mask it would give each block its own)
    net = (compress_network(init_params(SIZES, seed=14), SAMPLES[kind]) if state == "compressed"
           else wrap_network(init_params(SIZES, seed=14), SAMPLES[kind], BetaScheduler(q=4, t=2)))
    save_network(net, tmp_path / "net.vcnet")

    def refresh(self, blocks, refresh_masks=True):
        raise AssertionError(f"{type(self).__name__}.refresh ran while loading")

    for cls in FAMILIES.values():
        monkeypatch.setattr(cls, "refresh", refresh)
    back, _ = load_network(tmp_path / "net.vcnet")
    save_network(back, tmp_path / "again.vcnet")
    assert (tmp_path / "again.vcnet").read_bytes() == (tmp_path / "net.vcnet").read_bytes()


def test_a_stack_is_not_saved(tmp_path):
    # a file holds one network; its loader would reject the stack's payload
    net = stack_networks([init_params([2, 4, 3], seed=s) for s in (0, 1)])
    p = tmp_path / "net.vcnet"
    with pytest.raises(CheckpointError, match="stack of 2 networks.*select a member first"):
        save_network(net, p)
    assert not p.exists()


# --------------------------------------------------------------------------
# Corrupt files


def _saved(tmp_path, name="net.vcnet"):
    net = init_params([3, 4, 2], seed=8)
    p = tmp_path / name
    save_network(net, p)
    return p, p.read_bytes()


def test_bad_magic(tmp_path):
    p, blob = _saved(tmp_path)
    p.write_bytes(b"GARBAGE" + blob[len(MAGIC) :])
    with pytest.raises(CheckpointError, match="bad magic at byte offset 0"):
        load_network(p)


def test_unterminated_header(tmp_path):
    p = tmp_path / "net.vcnet"
    p.write_bytes(MAGIC + b'{"format": 1')
    with pytest.raises(CheckpointError, match=f"unterminated header starting at byte offset {len(MAGIC)}"):
        load_network(p)


def test_header_not_json(tmp_path):
    p = tmp_path / "net.vcnet"
    p.write_bytes(MAGIC + b"not json at all\n")
    with pytest.raises(CheckpointError, match=f"unreadable header at byte offset {len(MAGIC)}"):
        load_network(p)


def test_unsupported_format_version(tmp_path):
    p = tmp_path / "net.vcnet"
    p.write_bytes(MAGIC + json.dumps({"format": 99, "blocks": []}).encode() + b"\n")
    with pytest.raises(CheckpointError, match="unsupported format 99"):
        load_network(p)


def test_truncated_payload_names_offset_and_field(tmp_path):
    p, blob = _saved(tmp_path)
    p.write_bytes(blob[:-10])
    with pytest.raises(CheckpointError, match=r"truncated payload: needed \d+ bytes for block \d+ \w+ at byte offset \d+"):
        load_network(p)


def test_trailing_bytes_rejected(tmp_path):
    p, blob = _saved(tmp_path)
    p.write_bytes(blob + b"\x00" * 4)
    with pytest.raises(CheckpointError, match=f"4 unexpected trailing bytes at byte offset {len(blob)}"):
        load_network(p)


def test_unknown_block_kind(tmp_path):
    hdr = {"format": 1, "name": "n", "blocks": [{"kind": "conv"}], "scheduler": None}
    p = tmp_path / "net.vcnet"
    p.write_bytes(MAGIC + json.dumps(hdr).encode() + b"\n")
    with pytest.raises(CheckpointError, match="unknown block kind 'conv'"):
        load_network(p)


def test_missing_header_field_reports_offset(tmp_path):
    hdr = {"format": 1, "name": "n", "blocks": [{"kind": "dense", "out_dim": 2}], "scheduler": None}
    p = tmp_path / "net.vcnet"
    p.write_bytes(MAGIC + json.dumps(hdr).encode() + b"\n")
    with pytest.raises(CheckpointError, match="malformed header near byte offset"):
        load_network(p)


def test_unknown_activation_rejected(tmp_path):
    p, blob = _saved(tmp_path)
    p.write_bytes(blob.replace(b'"relu"', b'"silu"', 1))
    with pytest.raises(CheckpointError, match="unknown activation 'silu'"):
        load_network(p)


def test_blended_block_needs_scheduler_state(tmp_path):
    sched = BetaScheduler(q=5, t=1)
    net = wrap_network(init_params([2, 2], seed=9), PruneUnstructuredLayer(0.5), sched)
    p = tmp_path / "net.vcnet"
    save_network(net, p)
    blob = p.read_bytes()
    newline = blob.find(b"\n", len(MAGIC))
    header = json.loads(blob[len(MAGIC) : newline])
    header["scheduler"] = None
    p.write_bytes(MAGIC + json.dumps(header).encode() + b"\n" + blob[newline + 1 :])
    with pytest.raises(CheckpointError, match="without scheduler state"):
        load_network(p)
    # nor can a network hold blended blocks apart from its scheduler, even an
    # equal copy of it, or blended blocks on no scheduler at all, so neither
    # save_network nor finalize is handed one
    unscheduled = [VconBlock(b.original, b.branch, None) for b in net.blocks]
    for blocks, scheduler in ((net.blocks, None), (net.blocks, BetaScheduler(q=5, t=1)), (unscheduled, None)):
        with pytest.raises(ValueError, match="blended block must read its network's scheduler"):
            Network(blocks, scheduler=scheduler)
    with pytest.raises(ValueError, match="mid-transition"):
        finalize(net)
    # a header the loader refuses is still not written: a zero-width layer
    empty = Tensor(np.zeros((0, 2)), requires_grad=True)
    with pytest.raises(CheckpointError, match="out_dim"):
        save_network(Network([DenseBlock(empty, Tensor(np.zeros(0)), "none")]), tmp_path / "empty.vcnet")
    assert not (tmp_path / "empty.vcnet").exists()


def test_errors_carry_the_path(tmp_path):
    p, blob = _saved(tmp_path, name="model_a.vcnet")
    p.write_bytes(blob[:-1])
    with pytest.raises(CheckpointError, match="model_a.vcnet"):
        load_network(p)


# --------------------------------------------------------------------------
# Structural faults: every one is a CheckpointError, never another type


def _split(blob):
    newline = blob.index(b"\n", len(MAGIC))
    return json.loads(blob[len(MAGIC) : newline]), newline + 1


def _with_header(blob, header):
    _, start = _split(blob)
    return MAGIC + json.dumps(header).encode() + b"\n" + blob[start:]


def _edit_header(edit, payload=True):
    def fault(blob):
        header, start = _split(blob)
        edit(header)
        return _with_header(blob if payload else blob[:start], header)

    return fault


def _set_low_bit(offset):
    # packed rows are MSB-first, so bit 0 of a 2-wide row's byte is padding
    def fault(blob):
        pos = _split(blob)[1] + offset
        return blob[:pos] + bytes([blob[pos] | 1]) + blob[pos + 1 :]

    return fault


def _top(**values):
    return _edit_header(lambda h: h.update(values))


def _block(i, **values):
    return _edit_header(lambda h: h["blocks"][i].update(values))


def _spec(i, **values):
    return _edit_header(lambda h: h["blocks"][i]["spec"].update(values))


HALF = PruneUnstructuredLayer(0.5)
# on [2, 16, 3] block 0 is 16x2: weight 256 bytes and bias 128, then its bit rows
FAULTS = {
    "header is a list": (HALF, lambda blob: _with_header(blob, [1, 2])),
    "blocks is an object": (HALF, _edit_header(lambda h: h.update(blocks=dict(enumerate(h["blocks"]))))),
    "scheduler is a list": (HALF, _top(scheduler=[3, 1])),
    "negative scheduler q": (HALF, _top(scheduler={"q": -1, "t": 0})),
    "float scheduler t": (HALF, _top(scheduler={"q": 4, "t": 1.0})),
    "empty block list": (HALF, _edit_header(lambda h: h.update(blocks=[]), payload=False)),
    "zero out_dim": (HALF, _block(0, out_dim=0)),
    "string in_dim": (HALF, _block(0, in_dim="2")),
    "spec is a list": (HALF, _block(0, spec=[])),
    "unknown spec kind": (HALF, _spec(0, kind="ternary")),
    "sparsity edited": (HALF, _spec(1, sparsity=0.25)),
    "N:M edited": (PruneNM(2, 4), _spec(1, keep=1)),
    "rows edited": (PruneStructured(0.25), _spec(0, sparsity=0.5)),
    "unknown header key": (BinaryQuant(), _top(comment="hi")),
    "name other than net": (HALF, _top(name="model")),  # every network saves as "net"
    "int where float is saved": (PruneUnstructuredGlobal(0.0), _spec(0, sparsity=0)),
    "infinite rank": (LowRank(2), _spec(0, rank=float("inf"))),
    "over-long integer": (HALF, lambda blob: blob.replace(b'"format": 1', b'"format": 1' + b"0" * 5000, 1)),
    "deeply nested header": (HALF, lambda blob: MAGIC + b"[" * 100_000 + b"]" * 100_000 + b"\n"),
    "mask padding bit": (HALF, _set_low_bit(256 + 128)),
    "sign padding bit": (BinaryQuant(), _set_low_bit(256 + 128 + 8)),
}


@pytest.mark.parametrize("name", FAULTS)
def test_structural_fault_is_checkpoint_error(tmp_path, name):
    spec, fault = FAULTS[name]
    p = tmp_path / "net.vcnet"
    save_network(compress_network(init_params([2, 16, 3], seed=10), spec), p)
    load_network(p)  # the unedited file is fine
    p.write_bytes(fault(p.read_bytes()))
    with pytest.raises(CheckpointError):
        load_network(p)


def test_rank_above_layer_dims_rejected(tmp_path):
    # factors of rank 3 on a 16x2 layer are self-consistent but not low rank
    rng = np.random.default_rng(12)
    a, b = (Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((16, 3), (3, 2)))
    block = CompressedBlock(LowRank(3), {"a": a, "b": b}, Tensor(np.zeros(16), requires_grad=True), "none")
    p = tmp_path / "net.vcnet"
    save_network(Network([block]), p)
    with pytest.raises(CheckpointError, match="rank 3 above"):
        load_network(p)


@functools.cache
def _fuzz_file(kind: str) -> bytes:
    """A mid-transition blended network under the family's sample spec."""
    spec = SAMPLES[kind]
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "net.vcnet"
        save_network(wrap_network(init_params([3, 4, 2], seed=11), spec, BetaScheduler(q=7, t=3)), p)
        return p.read_bytes()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _header_slots(header):
    """(container, key) pairs for every value the header holds."""
    slots = [(header, k) for k in header]
    for block in header["blocks"]:
        slots += [(block, k) for k in block] + [(block["spec"], k) for k in block["spec"]]
    return slots + [(header["scheduler"], k) for k in header["scheduler"]]


@settings(max_examples=400)
@given(data=st.data())
def test_damaged_files_load_exactly_or_raise_checkpoint_error(data):
    blob = _fuzz_file(data.draw(st.sampled_from(sorted(FAMILIES)), label="family"))
    damage = data.draw(st.sampled_from(["truncate", "flip", "header"]), label="damage")
    if damage == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif damage == "flip":
        pos = data.draw(st.integers(0, len(blob) - 1))
        blob = blob[:pos] + bytes([blob[pos] ^ data.draw(st.integers(1, 255))]) + blob[pos + 1 :]
    else:
        header, _ = _split(blob)
        container, key = data.draw(st.sampled_from(_header_slots(header)))
        if data.draw(st.booleans(), label="delete"):
            del container[key]
        else:
            container[key] = data.draw(_JSON)
        blob = _with_header(blob, header)
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "net.vcnet"
        p.write_bytes(blob)
        try:
            net, scheduler = load_network(p)
        except CheckpointError:
            return
        save_network(net, Path(d) / "again.vcnet", scheduler)
        assert (Path(d) / "again.vcnet").read_bytes() == blob


def test_config_field_types_resolve_once_per_class(tmp_path, monkeypatch):
    resolved = collections.Counter()
    real = compression.get_type_hints

    def counting(cls):
        resolved[cls] += 1
        return real(cls)

    monkeypatch.setattr(compression, "get_type_hints", counting)
    compression._field_types.cache_clear()
    path = tmp_path / "net.vcnet"
    save_network(compress_network(init_params(SIZES, 1), PruneUnstructuredGlobal(0.7)), path)
    for _ in range(3):
        load_network(path)  # one spec per compressed block
        assert spec_from_dict({"kind": "prune_nm", "keep": 2, "group": 4}) == PruneNM(2, 4)
        with pytest.raises(ConfigError, match=r"^compression\.sparsity must be a finite number, got 'x'$"):
            spec_from_dict({"kind": "prune_layer", "sparsity": "x"})
        keep = r"^compression\.keep must be in \[1, group\] for N:M pruning, got 5:4$"
        with pytest.raises(ConfigError, match=keep):
            spec_from_dict({"kind": "prune_nm", "keep": 5, "group": 4})
    assert resolved == {PruneUnstructuredGlobal: 1, PruneNM: 1, PruneUnstructuredLayer: 1}
