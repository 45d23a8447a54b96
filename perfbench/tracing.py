"""In-memory span tracer that instruments vconlab from outside.

Nothing in the package is edited: ``instrument`` replaces functions in the
module namespace their caller resolves them from (``vconlab.cli.train``,
``vconlab.training.backward``, ...) and methods on their class
(``Network.forward``, ``Optimizer.step``, ...) with wrappers that record a
span per call. A span is ``[name, start, end, parent, run]``: ``parent`` is
the index of the enclosing span (-1 at the root) and ``run`` the id of the
enclosing ``cli.run_single`` call (-1 outside any run).

Counting work (graph size, gradient bytes, useful updates, file sizes) runs
on a paused clock: span timestamps come from ``perf_counter() - paused``,
so counting never inflates a span. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute, span name): functions, wrapped where their caller looks them up
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("cli", "cmd_train", "cli.command"),
    ("cli", "cmd_compare", "cli.command"),
    ("cli", "build_dataset", "cli.build_dataset"),
    ("cli", "run_single", "cli.run"),
    ("cli", "_write_seed_outputs", "cli.outputs"),
    ("cli", "make_synthetic", "training.make_synthetic"),
    ("cli", "init_params", "model.init_params"),
    ("cli", "compress_network", "compression.compress_network"),
    ("cli", "wrap_network", "vcon.wrap_network"),
    ("cli", "finalize", "vcon.finalize"),
    ("cli", "train", "training.train"),
    ("cli", "_evaluate", "training.evaluate"),
    ("cli", "write_runlog", "training.write_runlog"),
    ("cli", "save_network", "checkpoint.save"),
    ("training", "evaluate", "training.evaluate"),
    ("training", "refresh_blocks", "compression.refresh"),
    ("training", "compress_block", "compression.compress_block"),
    ("training", "softmax_cross_entropy", "tensor.loss"),
    ("training", "backward", "tensor.backward"),
    ("vcon", "compress_block", "compression.compress_block"),
    ("vcon", "refresh_blocks", "compression.refresh"),
    ("compression", "compress_block", "compression.compress_block"),
    ("compression", "refresh_blocks", "compression.refresh"),
    ("compression", "truncated_svd", "compression.svd"),
    ("checkpoint", "load_network", "checkpoint.load"),
]

# (module, class, method, span name)
METHODS = [
    ("model", "Network", "forward", "model.forward"),
    ("model", "DenseBlock", "forward", "model.dense_forward"),
    ("compression", "CompressedBlock", "forward", "compression.forward"),
    ("vcon", "VconBlock", "forward", "vcon.forward"),
    ("training", "Optimizer", "step", "training.optimizer"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = -1
        self.paused = 0.0
        self.runs: dict[int, dict] = {}
        self.counts: dict[str, float] = {}
        self._graph: set[int] = set()
        self.missing: list[str] = []

    def wrap(self, fn, name: str, before=None, after=None):
        idx = self._index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        tracer, spans, stack, clock = self, self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                c0 = clock()
                before(args, kwargs)
                tracer.paused += clock() - c0
            span = [idx, clock() - tracer.paused, 0.0, stack[-1] if stack else -1, tracer.run]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock() - tracer.paused
                stack.pop()
            if after is not None:
                c0 = clock()
                after(args, kwargs, result)
                tracer.paused += clock() - c0
            return result

        return traced

    def pause(self, seconds: float) -> None:
        """Take ``seconds`` of outside work off the span clock."""
        self.paused += seconds

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # ---- counting hooks (run on the paused clock)

    def _run_begin(self, args, kwargs):
        mode = args[3] if len(args) > 3 else kwargs.get("mode")
        self.run = len(self.runs)
        self.runs[self.run] = {"mode": mode, "steps": 0, "updates": 0, "useful": 0}

    def _run_end(self, args, kwargs, result):
        self.runs[self.run]["steps"] = len(result.log.steps)
        self.run = -1

    def _after_backward(self, args, kwargs, grads):
        self._graph = {id(t) for t in grads}
        self._add("graph_nodes", len(grads))
        self._add("grad_bytes", sum(g.nbytes for g in grads.values()))

    def _before_step(self, args, kwargs):
        named = args[1] if len(args) > 1 else kwargs["named_params"]
        updated = [p for _, p in named if p.grad is not None]
        run = self.runs.get(self.run)
        if run is not None:
            run["updates"] += len(updated)
            run["useful"] += sum(1 for p in updated if id(p) in self._graph)

    def _after_save(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self._add("save_bytes", os.path.getsize(path))

    def _before_load(self, args, kwargs):
        path = args[0] if args else kwargs["path"]
        self._add("load_bytes", os.path.getsize(path))

    def instrument(self, package, only=None) -> None:
        """Install the wrappers (all, or those whose span name is in ``only``)."""
        hooks = {
            "cli.run": (self._run_begin, self._run_end),
            "tensor.backward": (None, self._after_backward),
            "training.optimizer": (self._before_step, None),
            "checkpoint.save": (None, self._after_save),
            "checkpoint.load": (self._before_load, None),
        }
        for mod_name, attr, name in FUNCTIONS:
            if only is not None and name not in only:
                continue
            module = sys.modules.get(f"{package.__name__}.{mod_name}")
            if module is None or not callable(getattr(module, attr, None)):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            before, after = hooks.get(name, (None, None))
            setattr(module, attr, self.wrap(getattr(module, attr), name, before, after))
        for mod_name, cls_name, method, name in METHODS:
            if only is not None and name not in only:
                continue
            module = sys.modules.get(f"{package.__name__}.{mod_name}")
            cls = getattr(module, cls_name, None)
            fn = getattr(cls, "__dict__", {}).get(method)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{cls_name}.{method}")
                continue
            before, after = hooks.get(name, (None, None))
            setattr(cls, method, self.wrap(fn, name, before, after))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "spans": self.spans,
                "runs": self.runs,
                "counts": self.counts,
                "missing": self.missing,
            }, fh)
