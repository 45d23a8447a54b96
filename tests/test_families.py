"""Every registered compression family, through size accounting, files, reports and block state.

``SAMPLES`` must name one spec per ``FAMILIES`` kind, so a new family is
picked up here as soon as it is registered and given a sample. The
checkpoint tests and A2 (test_acceptance.py) run over the same samples.
"""

import math

import numpy as np
import pytest

from vconlab.checkpoint import load_network, save_network
from vconlab.cli import cmd_inspect, inspect_data
from vconlab.compression import (
    FAMILIES,
    BinaryQuant,
    CompressedBlock,
    CompressionSpec,
    LowRank,
    PruneNM,
    PruneStructured,
    PruneUnstructuredGlobal,
    PruneUnstructuredLayer,
    compress_block,
    compress_network,
    spec_to_dict,
)
from vconlab.model import init_params, stack_networks
from vconlab.tensor import Tensor
from vconlab.vcon import BetaScheduler, wrap_network

SIZES = [2, 16, 16, 3]
SAMPLES = {
    "prune_layer": PruneUnstructuredLayer(0.5),
    "prune_global": PruneUnstructuredGlobal(0.7),
    "prune_nm": PruneNM(2, 4),
    "prune_structured": PruneStructured(0.25),
    "binary": BinaryQuant(),
    "low_rank": LowRank(2),
}


def test_samples_cover_every_family():
    assert set(SAMPLES) == set(FAMILIES)
    assert all(type(spec).kind == kind for kind, spec in SAMPLES.items())


def _resave_is_identical(net, path, scheduler=None):
    save_network(net, path, scheduler)
    back, back_sched = load_network(path)
    copy = path.with_name("copy.vcnet")
    save_network(back, copy, back_sched)
    return copy.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_family_files_reports_and_counts(tmp_path, capsys, kind):
    spec = SAMPLES[kind]
    net = compress_network(init_params(SIZES, seed=1), spec)
    assert _resave_is_identical(net, tmp_path / "net.vcnet")
    blended = wrap_network(init_params(SIZES, seed=2), spec, BetaScheduler(q=10, t=4))
    assert _resave_is_identical(blended, tmp_path / "blend.vcnet")

    report = inspect_data(tmp_path / "net.vcnet")
    cmd_inspect(tmp_path / "net.vcnet")
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("block ")]
    assert len(lines) == len(net.blocks)
    for entry, block, line in zip(report["blocks"], net.blocks, lines):
        assert entry["compression"] == spec_to_dict(spec)
        fields = spec.describe(block)
        assert fields and {k: entry[k] for k in fields} == fields
        # the printed line shows the fields as the family renders them
        assert f", {kind}{spec.render(fields, block.out_dim, block.in_dim)}, params " in line

    biases = sum(b.bias.data.size for b in net.blocks)
    shapes = [(n, m) for m, n in zip(SIZES, SIZES[1:])]
    if kind == "prune_global":
        total = sum(n * m for n, m in shapes)
        expected = total - math.floor(spec.sparsity * total)
    elif kind == "binary":
        expected = 16 * 2 + 16 * 16 + 3 * 16  # every entry stays, shrunk to one bit
    elif kind == "low_rank":
        expected = 2 * (16 + 2) + 2 * (16 + 16) + 2 * (3 + 16)  # rank-2 factors
    else:
        expected = sum(spec.stored(n, m) for n, m in shapes)
    assert net.param_count() == expected + biases


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_stack_counts_the_sum_of_its_members(kind):
    members = [init_params([2, 8, 3], seed) for seed in range(3)]
    stack = compress_network(stack_networks(members), SAMPLES[kind])
    blended = wrap_network(stack_networks(members), SAMPLES[kind], BetaScheduler(q=10))
    for net in (stack, blended):
        assert net.param_count() == sum(net.select(i).param_count() for i in range(3))
    # every entry of each member's weights is counted, and each member's biases
    if kind == "binary":
        assert stack.param_count() == 3 * (16 + 24 + 8 + 3) == 153
    if kind == "low_rank":
        assert stack.param_count() == 3 * (2 * (8 + 2) + 2 * (3 + 8) + 8 + 3) == 159


def test_global_pruning_reports_the_bits_each_block_keeps(tmp_path):
    # one threshold for the whole network: each layer keeps its own share, not its fraction
    save_network(compress_network(init_params([2, 64, 64, 3], seed=0), PruneUnstructuredGlobal(0.9)),
                 tmp_path / "net.vcnet")
    blocks = inspect_data(tmp_path / "net.vcnet")["blocks"]
    assert [entry["kept_weights"] for entry in blocks] == [51, 318, 73]
    assert [entry["bit_footprint"] for entry in blocks] == [64 * 51, 64 * 318, 64 * 73]



def same_state(a, b):
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same_state, a, b))
    return b is None if a is None else np.array_equal(a, b)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_every_block_has_state_and_shapes_name_its_params(tmp_path, kind):
    # a block from compress_block, from a file and from the bare constructor
    # has its state from the moment it is made, so each one runs at once
    spec = SAMPLES[kind]
    dense = init_params(SIZES, seed=3)
    made = [compress_block(b, spec) for b in dense.blocks]
    net = compress_network(dense, spec)
    save_network(net, tmp_path / "net.vcnet")
    loaded = load_network(tmp_path / "net.vcnet")[0].blocks
    bare = [CompressedBlock(b.spec, {name: Tensor(p.data.copy()) for name, p in b.params.items()},
                            Tensor(b.bias.data.copy()), b.activation) for b in made]
    derives_state = type(spec).refresh is not CompressionSpec.refresh
    x = Tensor(np.random.default_rng(4).uniform(-2, 2, size=(5, SIZES[0])))
    for blocks, same_as in ((made, made), (loaded, net.blocks), (bare, made)):
        h = x
        for block, reference in zip(blocks, same_as):
            assert (block.state is not None) == derives_state
            assert same_state(block.state, reference.state)
            h = block.forward(h)
            assert h.data.shape == (5, block.out_dim) and np.isfinite(h.data).all()
            names = [name for name, _ in block.named_parameters()]
            shapes = spec.shapes(block.out_dim, block.in_dim)
            assert list(shapes) == names[:-1] and names[-1] == "bias"
            assert [block.params[name].data.shape for name in shapes] == list(shapes.values())
