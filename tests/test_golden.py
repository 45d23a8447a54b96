"""Byte identity of the CLI's outputs against digests recorded in the repo.

A refactor that means to keep outputs must leave every digest of every
set in ``tests/golden/`` as it is; one that means to change them
re-records the sets with ``tests/golden/record.py`` and says which files
changed. See that script for the matrix of commands and the OpenBLAS
cores with a set.
"""

import json

import numpy as np
import pytest

from engine_ops import mul, sum_all
from golden import record
from vconlab import cli
from vconlab.tensor import Tensor, backward, linear

RECORDED = {core: json.loads(path.read_text()) for core, (_, path) in record.CORES.items() if path.exists()}
CORE = record.fingerprint()["openblas_core"]


@pytest.fixture
def same_platform():
    """The recorded set whose platform is this process's."""
    current = record.fingerprint()
    recorded = next((s for s in RECORDED.values() if s["fingerprint"] == current), None)
    if recorded is None:
        pytest.skip(f"digests recorded on {[s['fingerprint'] for s in RECORDED.values()]}, "
                    f"this platform is {current}")
    return recorded


def _mismatches(got: dict, want: dict) -> list[str]:
    return ([f"missing: {key}" for key in sorted(want.keys() - got.keys())]
            + [f"not recorded: {key}" for key in sorted(got.keys() - want.keys())]
            + [f"differs: {key}" for key in sorted(got.keys() & want.keys()) if got[key] != want[key]])


def test_matrix_outputs_match_the_recorded_digests(same_platform, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = _mismatches(record.run_matrix(), same_platform["files"])
    assert not bad, f"{len(bad)} of {len(same_platform['files'])} digests do not match:\n" + "\n".join(bad)


@pytest.mark.parametrize("core", [core for core in record.CORES if core != CORE])
def test_matrix_outputs_match_the_digests_of_another_kernel(same_platform, core):
    # the same matrix in a child process whose OpenBLAS runs another core's kernels
    flag, _ = record.CORES[core]
    if core not in RECORDED or flag not in record.cpu_flags():
        pytest.skip(f"no {core} digests, or this CPU has no {flag}")
    want = RECORDED[core]
    got = record.digest_set_under(core)
    if got["fingerprint"] != want["fingerprint"]:
        pytest.skip(f"{core} digests recorded on {want['fingerprint']}, the child ran on {got['fingerprint']}")
    bad = _mismatches(got["files"], want["files"])
    assert not bad, f"{core}: {len(bad)} of {len(want['files'])} digests do not match:\n" + "\n".join(bad)


def test_one_worker_writes_the_pooled_runs_bytes(same_platform, tmp_path, monkeypatch):
    # the same command run in-process, not forked, gives the recorded files
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_worker_count", lambda tasks: 1)
    (tmp_path / "config.json").write_text(json.dumps(record.CONFIG))
    out, args = next((out, args) for out, args in record.commands() if out == "low_rank/post_shot")
    got = record.run_command(out, args)
    want = {key: digest for key, digest in same_platform["files"].items() if key.startswith(out + "/")}
    bad = _mismatches(got, want)
    assert not bad, "\n".join(bad)


# linear takes its weight gradient as g.T @ x, C-ordered, where it once took
# (x.T @ g).T. numpy hands the two to dgemm with the operands and the
# output's orientation swapped, and the bytes agree where the kernels sum
# each entry the same way either way round. OpenBLAS's SkylakeX and
# Sandybridge kernels do; its Haswell and Nehalem kernels give other bytes
# for some shapes (the 3-row output layers from batch 26 up, checked on
# numpy 2.4.6), so the test runs only on the cores of ORIENTATION_CORES.
ORIENTATION_CORES = ("SkylakeX", "Sandybridge")
_ORIENTATION_NOTE = (
    "linear's weight gradient g.T @ x differs from (x.T @ g).T; the digests assume this "
    "BLAS computes the product the same way with its operands and its output's "
    "orientation swapped"
)

# every weight and low-rank factor shape of the benchmark workloads: the
# [2, W, W, 3] layers at widths 64, 128 and 256, and the rank-16 factors at 128
_WORKLOAD_SHAPES = ([(w, 2) for w in (64, 128, 256)] + [(w, w) for w in (64, 128, 256)]
                    + [(3, w) for w in (64, 128, 256)] + [(2, 2), (128, 16), (16, 128), (3, 3)])


@pytest.mark.parametrize("batch", [1, 26, 64, 225])
def test_linear_weight_gradient_bytes_equal_the_transposed_product(same_platform, batch):
    if CORE not in ORIENTATION_CORES:
        pytest.skip(f"the orientation fact is checked only on {ORIENTATION_CORES}")
    rng = np.random.default_rng(batch)
    for n, m in _WORKLOAD_SHAPES:
        x = rng.normal(size=(batch, m))
        x[:, ::3] = np.maximum(x[:, ::3], 0.0)  # relu zeros, as hidden layers feed
        g = rng.normal(size=(batch, n))
        tw = Tensor(rng.normal(size=(n, m)), requires_grad=True)
        backward(sum_all(mul(linear(Tensor(x), tw), Tensor(g))))  # linear's output gradient is g
        assert tw.grad.tobytes() == (x.T @ g).T.tobytes(), f"{n}x{m}, batch {batch}: {_ORIENTATION_NOTE}"
