"""Wall-clock spans around the calls into each layer's public functions.

The program has no span hooks of its own yet, so the traced run wraps
layer entry points from the outside.  A module-level function is
patched in every loaded ``repro`` module that holds it, because
``from X import f`` copies the name: ``repro.core.planner`` looks up
its own ``search_device_mapping`` and ``repro.runtime.pool`` its own
``execute_task``.  Methods are patched on their class.

Spans are kept in memory and written out once, at the end of the run.
A layer's self time is its span time minus the time of the spans it
caused (its children).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute path, hook).  The hook is None, a name
# whose ``_pre_``/``_post_`` methods read counters off the call, or
# "uncounted": timed into the layer but not counted as a call (the
# constructors, whose work belongs to the call that follows).  A span
# name listed twice sums both entry points into one layer.
LAYERS: List[Tuple[str, str, str, Optional[str]]] = [
    ("core.profiler", "repro.core.profiler", "Profiler.run", None),
    ("core.device_mapping", "repro.core.device_mapping",
     "search_device_mapping", "mapping"),
    ("core.planner", "repro.core.planner", "Planner.build", "planner"),
    ("sim.lowering", "repro.sim.lowering", "Lowering.__init__", "uncounted"),
    ("sim.lowering", "repro.sim.lowering", "Lowering.lower", "lowering"),
    ("sim.incremental", "repro.sim.incremental", "IncrementalSimulator.run",
     "incremental"),
    ("sim.fastpath", "repro.sim.fastpath", "FastInterpreter.__init__",
     "uncounted"),
    ("sim.fastpath", "repro.sim.fastpath", "FastInterpreter.run", None),
    ("runtime.task", "repro.runtime.task", "execute_task", None),
    ("runtime.task.digest", "repro.runtime.task", "trace_digest", None),
    ("autoplan.candidates", "repro.autoplan.candidates",
     "generate_candidates", None),
    ("autoplan.pricing", "repro.autoplan.pricing", "price_candidate", None),
    ("parallel.cluster", "repro.parallel.cluster", "run_cluster", None),
]

# Server-side layers of ``repro serve``, wrapped in the server process
# by ``serve_traced.py``.  Simulations run in the pool worker, outside
# these spans except as the time ``ExecutionBackend.execute`` waits.
SERVE_LAYERS: List[Tuple[str, str, str, Optional[str]]] = [
    ("serve.backend", "repro.serve.backend", "ExecutionBackend.execute",
     None),
    ("runtime.cache.get", "repro.runtime.cache", "ResultCache.get", None),
    ("runtime.cache.put", "repro.runtime.cache", "ResultCache.put", None),
]


class Tracer:
    """Records spans and per-layer counters while installed.

    Counters are updated without a lock: every wrapped layer runs on
    one thread at a time (the benchmark's own thread, or the single
    dispatcher thread of a ``--jobs 1`` server).
    """

    def __init__(self, layers=LAYERS) -> None:
        self.layers = layers
        self.spans: List[Tuple[str, float, float, int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, hook: Optional[str]) -> Callable:
        tracer = self
        pre = getattr(self, f"_pre_{hook}", None) if hook else None
        post = getattr(self, f"_post_{hook}", None) if hook else None
        counted = hook != "uncounted"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(args) if pre is not None else None
            stack = tracer._stack()
            parent = stack[-1][2] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent))
            frame = [0.0, time.perf_counter(), index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                start = frame[1]
                tracer.spans[index] = (name, start, end, parent)
                tracer.self_s[name] += (end - start) - frame[0]
                if stack:
                    stack[-1][0] += end - start
            if counted:
                tracer.counts[f"{name}.calls"] += 1
            if post is not None:
                post(args, result, state)
            return result

        return wrapper

    def _post_mapping(self, args, result, state) -> None:
        self.counts["core.device_mapping.mappings_evaluated"] += (
            result.mappings_evaluated)

    def _post_planner(self, args, result, state) -> None:
        self.counts["core.planner.emulations"] += result[1].n_emulations

    def _post_lowering(self, args, result, state) -> None:
        self.counts["sim.lowering.instructions"] += len(result.instructions)

    @staticmethod
    def _pre_incremental(args) -> int:
        return args[0].n_resumed + args[0].n_memoized

    def _post_incremental(self, args, result, state) -> None:
        reused = args[0].n_resumed + args[0].n_memoized
        self.counts["sim.incremental.reused"] += reused - state

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point of ``self.layers``."""
        for name, module_name, path, hook in self.layers:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, hook))
                self._restore.append(
                    functools.partial(setattr, owner, attr, original))
            else:
                original = getattr(module, path)
                wrapper = self._wrap(name, original, hook)
                _swap(original, wrapper)
                self._restore.append(
                    functools.partial(_swap, wrapper, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def fired(self, name: str) -> bool:
        return self.counts.get(f"{name}.calls", 0) > 0

    def write(self, path) -> None:
        """Write every span, and the per-layer totals, as one JSON file."""
        with open(path, "w") as handle:
            json.dump({"self_s": self.self_s, "counts": self.counts,
                       "spans": [{"name": name, "start": start, "end": end,
                                  "parent": parent}
                                 for name, start, end, parent in self.spans]},
                      handle)


def _swap(old: Callable, new: Callable) -> None:
    """Rebind every name a loaded ``repro`` module holds for ``old``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)
