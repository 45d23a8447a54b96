"""Every registered compression family, through size accounting, files and reports.

``SAMPLES`` must name one spec per ``FAMILIES`` kind, so a new family is
picked up here as soon as it is registered and given a sample. The
checkpoint tests and A2 (test_acceptance.py) run over the same samples.
"""

import math

import pytest

from vconlab.checkpoint import load_network, save_network
from vconlab.cli import inspect_data
from vconlab.compression import (
    FAMILIES,
    BinaryQuant,
    LowRank,
    PruneNM,
    PruneStructured,
    PruneUnstructuredGlobal,
    PruneUnstructuredLayer,
    compress_network,
    spec_param_count,
    spec_to_dict,
)
from vconlab.model import init_params
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
def test_family_files_reports_and_counts(tmp_path, kind):
    spec = SAMPLES[kind]
    net = compress_network(init_params(SIZES, seed=1), spec)
    assert _resave_is_identical(net, tmp_path / "net.vcnet")
    blended = wrap_network(init_params(SIZES, seed=2), spec, BetaScheduler(q=10, t=4))
    assert _resave_is_identical(blended, tmp_path / "blend.vcnet")

    report = inspect_data(tmp_path / "net.vcnet")
    for entry, block in zip(report["blocks"], net.blocks):
        assert entry["compression"] == spec_to_dict(spec)
        fields = spec.describe(block)
        assert fields and {k: entry[k] for k in fields} == fields

    biases = sum(b.bias.data.size for b in net.blocks)
    shapes = [(n, m) for m, n in zip(SIZES, SIZES[1:])]
    if kind == "prune_global":
        total = sum(n * m for n, m in shapes)
        expected = total - math.floor(spec.sparsity * total)
    else:
        expected = sum(spec_param_count(spec, n, m) for n, m in shapes)
    assert net.param_count() == expected + biases
