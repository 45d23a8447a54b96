"""Golden digests: the SHA-256 of every file a fixed matrix of CLI commands writes.

The matrix runs every compression family on a tiny spiral config
(``[2, 16, 16, 3]``, 60 points per class, 3 epochs, seeds 0 and 1): a
``compare`` against ``ste_standard``, a ``compare`` against ``post_shot``,
and a ``sweep-q`` over Q = 0, 1 and 100 steps (past the run's 12, so one
vcon run stays mid-transition). On ``prune_layer`` it also runs one
``compare`` with each run flag of ``FLAGS`` on, and one ``sweep-q`` with all
three on. Each command runs in the working directory
with a relative ``output_dir``, so no written file names a temporary path.
Keys are the written files' relative paths, plus ``<output_dir>/(stderr)``
for what the command printed there and ``<file>.vcnet (inspect)`` for
``vconlab inspect`` of each network file without its path line.
``summary.json`` is digested without its ``wall_clock_seconds`` fields.

The bits of a matmul depend on the BLAS kernels, so ``digests.json`` also
stores the platform they were recorded on: numpy's version, its BLAS build,
and the OpenBLAS core picked at run time (a DYNAMIC_ARCH build picks its
kernels per CPU, which ``np.show_config`` does not report).

Re-record only in a change that means to change outputs, from the
repository root:

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from vconlab import cli

DIGESTS = Path(__file__).with_name("digests.json")

CONFIG = {
    "model": {"layer_sizes": [2, 16, 16, 3], "activation": "relu"},
    "dataset": {"kind": "spiral", "classes": 3, "samples_per_class": 60, "noise": 0.2, "seed": 0},
    "optimizer": {"kind": "adam", "lr": 0.01},
    "epochs": 3,
    "batch_size": 32,
    "seeds": [0, 1],
}
FAMILIES = {
    "prune_layer": {"kind": "prune_layer", "sparsity": 0.9},
    "prune_global": {"kind": "prune_global", "sparsity": 0.9},
    "prune_nm": {"kind": "prune_nm", "keep": 2, "group": 4},
    "prune_structured": {"kind": "prune_structured", "sparsity": 0.5},
    "binary": {"kind": "binary"},
    "low_rank": {"kind": "low_rank", "rank": 4},
}
FLAGS = ("freeze_original", "freeze_mask", "eval_compressed_only")


def commands() -> list[tuple[str, list[str]]]:
    """(output_dir, arguments after the command's --config) of every command in the matrix."""
    out = []
    for name, spec in FAMILIES.items():
        compression = ["--set", "compression=" + json.dumps(spec)]
        out.append((f"{name}/ste", ["compare", *compression, "--set", "q_epochs=1"]))
        out.append((f"{name}/post_shot", ["compare", "--baseline", "post_shot", *compression, "--set", "q_epochs=1"]))
        out.append((f"{name}/sweep", ["sweep-q", *compression, "--set", "q_steps=[0,1,100]"]))
    compression = ["--set", "compression=" + json.dumps(FAMILIES["prune_layer"])]
    flags = [arg for flag in FLAGS for arg in ("--set", f"{flag}=true")]
    for flag in FLAGS:
        out.append((f"flags/{flag}", ["compare", *compression, "--set", "q_epochs=1", "--set", f"{flag}=true"]))
    out.append(("flags/sweep", ["sweep-q", *compression, "--set", "q_steps=[0,1,100]", *flags]))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _content(path: Path) -> bytes:
    if path.name != "summary.json":
        return path.read_bytes()
    summary = json.loads(path.read_text())
    for row in summary["per_seed"]:
        del row["wall_clock_seconds"]
    return json.dumps(summary, indent=2).encode()


def run_command(out: str, args: list[str]) -> dict[str, str]:
    """Run one matrix command in the working directory, which holds
    ``config.json``; return the digests of what it wrote and printed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([args[0], "--config", "config.json", "--quiet", "--set", f"output_dir={out}", *args[1:]])
    if code != 0:
        raise RuntimeError(f"{out}: exit {code}: {err.getvalue()}")
    digests = {f"{out}/(stderr)": _sha(err.getvalue().encode())}
    for path in sorted(Path(out).rglob("*")):
        if path.is_file():
            digests[path.as_posix()] = _sha(_content(path))
        if path.suffix == ".vcnet":
            report = io.StringIO()
            with contextlib.redirect_stdout(report):
                cli.main(["inspect", str(path)])
            _, rest = report.getvalue().split("\n", 1)  # the first line names the file
            digests[f"{path.as_posix()} (inspect)"] = _sha(rest.encode())
    return digests


def run_matrix() -> dict[str, str]:
    """Write ``config.json`` into the working directory and run every command there."""
    Path("config.json").write_text(json.dumps(CONFIG))
    digests = {}
    for out, args in commands():
        digests.update(run_command(out, args))
    return digests


def _openblas_core() -> str | None:
    """The core a loaded OpenBLAS picked for this CPU. The library is found
    the way ``cli._one_blas_thread`` finds it: through /proc/self/maps."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, name):
                corename = getattr(lib, name)
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def fingerprint() -> dict:
    """What the recorded bits depend on beyond the source: numpy's version,
    its BLAS build and the BLAS kernels chosen at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = {}
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_core": _openblas_core()}


def main() -> int:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            files = run_matrix()
        finally:
            os.chdir(start)
    DIGESTS.write_text(json.dumps({"fingerprint": fingerprint(), "files": files}, indent=1, sort_keys=True) + "\n")
    print(f"{len(files)} digests -> {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
