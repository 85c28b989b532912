"""In-memory spans around calls into dropsed's public functions.

The benchmark installs wrappers from its own files; dropsed itself carries no
tracing code.  Each wrapper is installed on the name a caller looks up: a
function imported with ``from .kernels import desingularized_ratio`` is bound
in ``linear_stability``'s namespace, so that is where it is replaced.  Spans are
kept in a list and summarized once the workload body has finished.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


class Tracer:
    """Records nested spans (name, start, end, parent) and per-span counts.

    A count hook receives the bound call arguments, the result and the span's
    duration, and returns a dict of numbers that is summed per span name.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = count(bound.arguments, result, span["end"] - span["start"])
            return result

        return traced

    def install(self, targets) -> None:
        """Replace each ``(owner, attr, span_name, count)`` with a traced wrapper.

        ``owner`` is a module, a class or a dict.  A name that no longer exists
        is reported on stderr and left untraced, so its metrics read zero.
        """
        for owner, attr, name, count in targets:
            is_dict = isinstance(owner, dict)
            original = owner.get(attr) if is_dict else getattr(owner, attr, None)
            if original is None:
                print(f"bench: not traced, {name} ({attr} not found)", file=sys.stderr)
                continue
            wrapped = self.wrap(name, original, count)
            if is_dict:
                owner[attr] = wrapped
            else:
                setattr(owner, attr, wrapped)

    def summary(self) -> tuple[dict, float]:
        """Per span name: calls, inclusive seconds, self seconds and summed counts.

        Self time is a span's duration minus its direct children's durations;
        spans nest strictly because the workload runs in one thread.  Also
        returns the total duration of spans that have no parent.
        """
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_s[span["parent"]] += span["end"] - span["start"]
        layers: dict[str, dict] = {}
        root_s = 0.0
        for i, span in enumerate(self.spans):
            dur = span["end"] - span["start"]
            if span["parent"] is None:
                root_s += dur
            entry = layers.setdefault(span["name"],
                                      {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child_s[i]
            for key, value in span.get("counts", {}).items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
        return layers, root_s
