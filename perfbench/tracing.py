"""Span tracing around the library's public functions, from outside it.

A Tracer replaces each traced function in every codequiv namespace that
holds it (the package, the defining module, and every module that imported
it by name), so in-module calls such as ``gfmatrix.nullspace_basis`` ->
``rref`` are seen too.  Spans carry name, start, end, parent span and the id
of the item being processed; they stay in memory until ``write``.  Counters
are recorded at the same boundaries, so ratios come from where the work
happens.  A function the library no longer has is skipped, not an error.
"""

from __future__ import annotations

import gzip
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, item]
        self.counts: dict[str, float] = {}
        self.item = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_args: set = set()

    # -- patching -------------------------------------------------------------

    def wrap_function(self, module_name: str, attr: str, name: str,
                      on_result=None, first_call_key=None) -> None:
        """Trace every binding of ``module_name.attr`` in codequiv modules.

        `on_result(tracer, args, result)` adds counters;
        `first_call_key(args, kwargs)` turns on a ``<name>.builds`` count of
        calls whose key was not seen before in this process (the cold path
        of a cached function).
        """
        module = sys.modules.get(module_name)
        orig = getattr(module, attr, None)
        if orig is None:
            return
        wrapper = self._make_wrapper(orig, name, on_result, first_call_key)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "codequiv"
                                   or mod_name.startswith("codequiv.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        orig = cls.__dict__.get(attr)
        if orig is None:
            return
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, self._make_wrapper(orig, name, None, None))

    def restore(self) -> None:
        for target, key, orig in reversed(self._patches):
            setattr(target, key, orig)
        self._patches.clear()

    def _make_wrapper(self, orig, name, on_result, first_call_key):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, self.item]
            spans.append(span)
            stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            if first_call_key is not None:
                key = (name, first_call_key(args, kwargs))
                if key not in self._seen_args:
                    self._seen_args.add(key)
                    counts[name + ".builds"] = counts.get(name + ".builds", 0) + 1
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- results ----------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds and self seconds (duration minus
        the time covered by direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0})
            entry["s"] += end - start
            entry["self_s"] += (end - start) - child_time[i]
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "item": item}) + "\n")
