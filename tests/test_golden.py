"""Byte identity of the CLI's outputs against digests recorded in the repo.

A refactor that means to keep outputs must leave every digest of
``tests/golden/digests.json`` as it is; one that means to change them
re-records the file with ``tests/golden/record.py`` and says which files
changed. See that script for the matrix of commands.
"""

import json

import pytest

from golden import record
from vconlab import cli

RECORDED = json.loads(record.DIGESTS.read_text())


@pytest.fixture
def same_platform():
    current = record.fingerprint()
    if current != RECORDED["fingerprint"]:
        pytest.skip(f"digests recorded on {RECORDED['fingerprint']}, this platform is {current}")


def _mismatches(got: dict, want: dict) -> list[str]:
    return ([f"missing: {key}" for key in sorted(want.keys() - got.keys())]
            + [f"not recorded: {key}" for key in sorted(got.keys() - want.keys())]
            + [f"differs: {key}" for key in sorted(got.keys() & want.keys()) if got[key] != want[key]])


def test_matrix_outputs_match_the_recorded_digests(same_platform, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = _mismatches(record.run_matrix(), RECORDED["files"])
    assert not bad, f"{len(bad)} of {len(RECORDED['files'])} digests do not match:\n" + "\n".join(bad)


def test_one_worker_writes_the_pooled_runs_bytes(same_platform, tmp_path, monkeypatch):
    # the same command run in-process, not forked, gives the recorded files
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_worker_count", lambda tasks: 1)
    (tmp_path / "config.json").write_text(json.dumps(record.CONFIG))
    out, args = next((out, args) for out, args in record.commands() if out == "low_rank/post_shot")
    got = record.run_command(out, args)
    want = {key: digest for key, digest in RECORDED["files"].items() if key.startswith(out + "/")}
    bad = _mismatches(got, want)
    assert not bad, "\n".join(bad)
