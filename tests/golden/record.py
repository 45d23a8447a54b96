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

The bits of a matmul depend on the BLAS kernels, so each set of digests
also stores the platform it was recorded on: numpy's version, its BLAS
build, and the OpenBLAS core picked at run time (a DYNAMIC_ARCH build picks
its kernels per CPU, which ``np.show_config`` does not report). There is
one set per core of ``CORES``, each recorded in a child process with
``OPENBLAS_CORETYPE`` set to that core; a core whose instructions this CPU
lacks (the ``/proc/cpuinfo`` flag in ``CORES``) is not recorded, and its
file is left as it is.

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
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from vconlab import cli

HERE = Path(__file__).parent

# each OpenBLAS core with a digest set: the /proc/cpuinfo flag its kernels need, and the set's file
CORES = {
    "SkylakeX": ("avx512f", HERE / "digests.json"),
    "Haswell": ("avx2", HERE / "digests-haswell.json"),
    "Sandybridge": ("avx", HERE / "digests-sandybridge.json"),
}

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


def cpu_flags() -> set[str]:
    """The instruction-set flags of this CPU; none where /proc/cpuinfo is missing."""
    try:
        with open("/proc/cpuinfo") as fh:
            return next((set(line.split(":", 1)[1].split()) for line in fh if line.startswith("flags")), set())
    except OSError:
        return set()


def digest_set() -> dict:
    """This process's fingerprint and the digests of the matrix, run in a temporary directory."""
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            files = run_matrix()
        finally:
            os.chdir(start)
    return {"fingerprint": fingerprint(), "files": files}


def digest_set_under(core: str) -> dict:
    """``digest_set`` of a child process whose OpenBLAS runs the kernels of ``core``."""
    path = [str(HERE.parents[1] / "src"), str(HERE), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": os.pathsep.join(path)}
    code = "import json, record; print(json.dumps(record.digest_set()))"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if child.returncode != 0:
        raise RuntimeError(f"matrix under {core}: exit {child.returncode}: {child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])


def main() -> int:
    flags = cpu_flags()
    for core, (flag, path) in CORES.items():
        if flag not in flags:
            print(f"{core}: this CPU has no {flag}, {path.name} left as it is")
            continue
        recorded = digest_set_under(core)
        if recorded["fingerprint"]["openblas_core"] != core:
            raise RuntimeError(f"OPENBLAS_CORETYPE={core} ran the {recorded['fingerprint']['openblas_core']} kernels")
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"{core}: {len(recorded['files'])} digests -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
