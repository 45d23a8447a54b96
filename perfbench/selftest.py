"""Self-test of the benchmark, in seconds: ``python3 perfbench/selftest.py``.

Also runs under pytest (``python3 -m pytest perfbench/selftest.py``). It
checks that smoke runs of every workload print each metric named in
BENCHMARK.json with its unit, that a flipped byte in a copied checkpoint is
reported as a failed run, and that a directory without the package makes
the command fail without a result line.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

ROOT = HERE.parent


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_prints_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            proc = _bench("--workload", workload, "--seed", 3, "--seconds", 1, "--trace", trace, "--smoke")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == declared, (workload, trace)
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_flipped_checkpoint_byte_is_a_failure():
    calls = run.make_calls("spiral_compare", 4, smoke=True)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        good = run.run_rep(calls, work / "good", False, {})
        assert not any(r["errors"] for r in good["runs"])
        shutil.copytree(work / "good", work / "bad")
        seed = calls[0]["runs"][0][2]
        path = work / "bad" / "call0" / "vcon" / f"checkpoint_seed{seed}.vcnet"
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x10  # inside the last float of the payload
        path.write_bytes(bytes(blob))
        bad = run.new_rep(traced=False)
        run.verify_rep(calls, work / "bad", bad, {})
        run.check_repeats([good, bad])
        failed = [r for r in bad["runs"] if r["errors"]]
        assert [(r["mode"], r["seed"]) for r in failed] == [("vcon", seed)], failed
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_without_the_package_there_is_no_result():
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", work)
        shutil.copytree(HERE, work / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "spiral_compare", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=work)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
