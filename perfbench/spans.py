"""In-memory span recorder that times calls into the program's public functions.

A span is ``[name, start, end, parent, request]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``request`` the identifier the caller
set before the call.  Spans stay in memory until :meth:`Tracer.write`.

Only public names are wrapped, as bound in the module or class that calls
them (``sisi.cli.conjecture_scan`` is a different binding from
``sisi.dynamics.conjecture_scan``).  A name that no longer exists is listed
in :attr:`Tracer.absent` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from contextlib import contextmanager
from time import perf_counter


def _resolve(path: str):
    """Return (owner, attribute) for ``pkg.module[.Class].attr``, or None."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


class Tracer:
    """Records spans around wrapped calls while installed."""

    def __init__(self, targets: dict[str, str]):
        for path in targets:
            if path.rsplit(".", 1)[-1].startswith("_"):
                raise ValueError(f"refusing to wrap private name {path}")
        self.targets = targets          # binding path -> span name
        self.spans: list[list] = []
        self.request = None
        self.absent = sorted(p for p in targets if _resolve(p) is None)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.request])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def install(self) -> None:
        for path, name in self.targets.items():
            found = _resolve(path)
            if found is None:
                continue
            owner, attr = found
            original = inspect.getattr_static(owner, attr)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))
            self._patched.append((owner, attr, original))

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str, request):
        """A span opened by the benchmark itself, e.g. one request."""
        self.request = request
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def totals(self, first: int = 0, last: int | None = None,
               request=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Covers spans ``first`` to ``last`` (exclusive; default all), and
        optionally one request only.  Self time is a span's duration minus
        its direct children's.
        """
        spans = self.spans
        last = len(spans) if last is None else last
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans[first:last]:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i in range(first, last):
            name, start, end, _, req = spans[i]
            if request is not None and req != request:
                continue
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, req in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": req}) + "\n")
