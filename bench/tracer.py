"""Span tracer that wraps public library functions from the outside.

The library is not edited: `Tracer.install` replaces each named function or
method with a wrapper that records one span per call (name, start, end,
parent span, operation id), and `Tracer.uninstall` puts the originals back.
A free function is replaced in every loaded ``salemk3`` module that holds
it, so calls through ``from .x import f`` are caught as well; a method is
replaced on its class, so calls from any module are caught.

A name that no longer exists is recorded in ``absent`` and skipped, so the
traced run survives helpers being merged or deleted.
"""

import functools
import sys
import time


class Tracer:
    def __init__(self, targets):
        """``targets``: iterable of (span name, module name, attribute path)."""
        self.targets = list(targets)
        self.absent = []
        self.names = []  # span name per name index
        self.spans = []  # (name index, start, end, parent span index, op id)
        self._stack = []
        self._patches = None  # (holder, attribute, original, wrapper), once installed
        self.op = -1

    def _wrap(self, name_idx, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent, tracer.op)

        return wrapper

    def _resolve(self):
        """(holder, attribute, original, wrapper) for every name that exists."""
        modules = [m for n, m in list(sys.modules.items()) if n == "salemk3" or n.startswith("salemk3.")]
        patches = []
        for span_name, module_name, attr_path in self.targets:
            owner = sys.modules.get(module_name)
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(span_name)
                continue
            self.names.append(span_name)
            wrapper = self._wrap(len(self.names) - 1, original)
            if owner_path:  # a method: replace it on its class only
                holders = [owner]
            else:
                holders = [m for m in modules if m.__dict__.get(attr) is original]
            patches += [(holder, attr, original, wrapper) for holder in holders]
        return patches

    def install(self):
        if self._patches is None:
            self._patches = self._resolve()
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original, _ in reversed(self._patches or []):
            setattr(holder, attr, original)

    def wrap(self, name, fn):
        """``fn`` recording a span named ``name``, for the benchmark's own code."""
        if name not in self.names:
            self.names.append(name)
        return self._wrap(self.names.index(name), fn)

    def aggregate(self):
        """{span name: [calls, total seconds, self seconds]} over all spans.

        Self time is a span's duration minus the durations of its direct
        children; calls nest strictly in this single-threaded program.
        """
        child = [0.0] * len(self.spans)
        for name_idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name_idx, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(self.names[name_idx], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def write(self, path):
        """Write every span as one JSON array per line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_idx, start, end, parent, op in self.spans:
                fh.write(f'["{self.names[name_idx]}",{start!r},{end!r},{parent},{op}]\n')

