"""Span tracing of vgalab's layers, installed from outside the package.

``Tracer.install`` wraps every public function and every public method of
the layer modules named in ``LAYERS`` and rebinds the wrapper wherever a
loaded ``vgalab`` module holds the original, so calls made through
re-exports (``vgalab.mllm.prefill``) and through module globals
(``core.attention_fused`` inside the forward pass) are both seen.
``uninstall`` puts every original back, so untraced windows run the
unmodified program.

Each wrapped call records one span: function, start, end, parent span
and the benchmark operation it belongs to. Spans stay in memory until
the run ends. A layer's self time is its spans' time minus the time
covered by their child spans; time covered by no span at all belongs to
the benchmark's own loop (``bench``), so the layer self times always add
up to the traced wall time.

``vocab``, ``mllm.config``, ``cli`` and ``evalkit.heatmap`` are not
wrapped: they do no measurable work on the benchmarked paths, and their
time counts toward their caller's layer.
"""
from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = {
    "vgalab.mllm.core": "mllm.core",
    "vgalab.mllm.attention": "mllm.attention",
    "vgalab.mllm.planted": "mllm.planted",
    "vgalab.mllm.container": "mllm.container",
    "vgalab.vga": "vga",
    "vgalab.grounding": "grounding",
    "vgalab.numerics": "numerics",
    "vgalab.evalkit.scenes": "evalkit.scenes",
    "vgalab.evalkit.harness": "evalkit.harness",
    "vgalab.evalkit.metrics": "evalkit.metrics",
}
BENCH_LAYER = "bench"



def _attention_cost(tracer: "Tracer", args, kwargs, result) -> None:
    """Operations and computed bytes of one attention call, from q/k/v shapes.

    The fused kernel scores every (query, key) pair of its blocks before
    masking, so the full rectangle is counted: 2*d flops each for the
    scores and the value reduction, ~5 for the softmax. Bytes are float64
    q, k, v read and z written once; they are computed, not measured.
    """
    q, k = args[0], args[1]
    tq, heads, d_head = q.shape
    tk = k.shape[0]
    tracer.counts["attention.flop"] += 4 * tq * tk * heads * d_head + 5 * tq * tk * heads
    tracer.counts["attention.bytes"] += 8 * heads * d_head * (2 * tq + 2 * tk)


def _kvcache_bytes(tracer: "Tracer", args, kwargs, result) -> None:
    config = args[1] if len(args) > 1 else kwargs["config"]
    tracer.counts["kvcache.bytes"] += (
        2 * 8 * config.n_layers * config.max_seq_len * config.n_heads * config.d_head
    )


def _correction_applied(tracer: "Tracer", args, kwargs, result) -> None:
    if result is not None:
        tracer.counts["correction.applied"] += 1


def _generated_tokens(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["greedy.tokens"] += len(result)


AFTER_CALL = {
    "mllm.core.KvCache.__init__": _kvcache_bytes,
    "mllm.attention.attention_fused": _attention_cost,
    "vga.VgaSession.correction": _correction_applied,
    "mllm.core.greedy_generate": _generated_tokens,
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        # (index into names, start, end, parent span index or -1, op id);
        # None while the call is running.
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._targets_cache = None

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, qualname: str, layer: str):
        index = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        after = AFTER_CALL.get(qualname)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            pos = len(spans)
            spans.append(None)
            stack.append(pos)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[pos] = (index, start, end, parent, self.op)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def _targets(self):
        """Wrappers for every public function and method, built once."""
        if self._targets_cache is not None:
            return self._targets_cache
        functions = {}
        methods = []
        for modname, layer in LAYERS.items():
            module = importlib.import_module(modname)
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    functions[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", layer))
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        public = not attr.startswith("_")
                        # Hand-written constructors (KvCache, VgaSession) do
                        # real work; dataclass-generated ones only assign.
                        ctor = attr == "__init__" and not dataclasses.is_dataclass(obj)
                        if not (public or ctor):
                            continue
                        qual = f"{layer}.{name}.{attr}"
                        if isinstance(member, (staticmethod, classmethod)):
                            wrapped = type(member)(self._wrap(member.__func__, qual, layer))
                        elif inspect.isfunction(member):
                            wrapped = self._wrap(member, qual, layer)
                        else:
                            continue
                        methods.append((obj, attr, member, wrapped))
        self._targets_cache = functions, methods
        return self._targets_cache

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions, methods = self._targets()
        for owner, attr, original, wrapped in methods:
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "vgalab" or modname.startswith("vgalab.")):
                continue
            for name, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
                    self._patches.append((module, name, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def mark(self) -> int:
        """Span count so far; pass to ``summary`` to analyse a window."""
        return len(self.spans)

    def summary(self, first: int, wall_s: float) -> dict:
        """Per-function and per-layer totals over spans ``first`` onward.

        Every span of the window must be closed and its parent must lie in
        the window, which holds when the window starts and ends between
        top-level benchmark calls.
        """
        spans = self.spans[first:]
        if any(s is None for s in spans):
            raise RuntimeError("open span at the end of a traced window")
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent - first] += end - start
        durations: dict[str, list[float]] = {}
        self_s = {layer: 0.0 for layer in LAYERS.values()}
        entered = {layer: 0.0 for layer in LAYERS.values()}
        covered = 0.0
        for i, (index, start, end, parent, _) in enumerate(spans):
            took = end - start
            layer = self.layer_of[index]
            durations.setdefault(self.names[index], []).append(took)
            self_s[layer] += took - child[i]
            if parent < 0:
                covered += took
            # Time entered from another layer or from the benchmark: the
            # layer's inclusive time, with nested calls counted once.
            if parent < 0 or self.layer_of[spans[parent - first][0]] != layer:
                entered[layer] += took
        self_s[BENCH_LAYER] = wall_s - covered
        return {
            "durations": durations,
            "self": self_s,
            "entered": entered,
            "wall_s": wall_s,
        }

    def dump(self, path) -> None:
        """Write every span recorded so far as gzipped JSON."""
        payload = {
            "fields": ["fn", "start", "end", "parent", "op"],
            "names": self.names,
            "layers": self.layer_of,
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
