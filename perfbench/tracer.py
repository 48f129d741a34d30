"""In-memory span tracer over the public functions of the afbm modules.

The afbm modules import each other's functions by name (``from
.transforms import apply_daft``), so a function is wrapped in every
module namespace that holds it, and methods are wrapped on their class.
Files that ``afbm.cli`` opens are wrapped too, so CSV output is a span.
A span is ``(name, start, end, parent, run_id, extra)``; spans stay in
memory and are reduced after the run. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import builtins
import dataclasses
import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("transforms", "filterbank", "modem", "channel", "metrics", "cli")
WRITE_SPAN = "cli.write"


def _modules():
    return [sys.modules[f"afbm.{layer}"] for layer in LAYERS
            if f"afbm.{layer}" in sys.modules]


def _targets():
    """(span name, owner, attribute, function) for each traced callable.

    Public functions of each module, public methods of its classes, and
    ``__init__`` of classes that are not dataclasses.
    """
    for mod in _modules():
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                yield f"{layer}.{name}", None, name, obj
            elif inspect.isclass(obj) and not name.startswith("_"):
                for attr, fn in vars(obj).items():
                    keep = not attr.startswith("_") or (
                        attr == "__init__" and not dataclasses.is_dataclass(obj))
                    if keep and inspect.isfunction(fn):
                        yield (f"{layer}.{name}.{attr.strip('_')}", obj, attr,
                               fn)


class Tracer:
    """Install wrappers, record spans, restore the originals.

    ``select`` limits tracing to the named spans; ``hooks`` maps a span
    name to ``hook(args, result)`` whose value is kept as the span's extra.
    """

    def __init__(self, select=None, hooks=None):
        self.spans = []
        self.stack = []
        self.run_id = None
        self.select = select
        self.hooks = hooks or {}
        self._saved = []

    def install(self) -> None:
        namespaces = [sys.modules["afbm"]] + _modules()
        for name, owner, attr, fn in list(_targets()):
            if self.select is not None and name not in self.select:
                continue
            wrapped = self._wrap(name, fn)
            if owner is not None:
                self._patch(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._patch(ns, key, wrapped)
        if self.select is None or WRITE_SPAN in self.select:
            cli = sys.modules["afbm.cli"]
            self._patch(cli, "open", self._traced_open)

    def uninstall(self) -> None:
        for owner, attr, had, original in reversed(self._saved):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []

    def _patch(self, owner, attr, value) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self.stack, self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            extra = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run_id, extra)
            if hook is not None:
                spans[idx] = spans[idx][:5] + (hook(args, out),)
            return out

        return traced

    def _traced_open(self, *args, **kwargs):
        return _TracedFile(self, builtins.open(*args, **kwargs))

    def reduce(self, run_ids) -> tuple:
        """Per-span-name and per-layer statistics over ``run_ids``.

        Returns ``(by_name, layer_self)`` where ``by_name[name]`` holds
        ``calls``, ``durations``, ``self`` (seconds) and ``extras``.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        by_name, layer_self = {}, dict.fromkeys(LAYERS, 0.0)
        for i, span in enumerate(spans):
            if span is None or span[4] not in run_ids:
                continue
            name, t0, t1 = span[:3]
            stat = by_name.setdefault(
                name, {"calls": 0, "durations": [], "self": 0.0, "extras": []})
            own = (t1 - t0) - child_time[i]
            stat["calls"] += 1
            stat["durations"].append(t1 - t0)
            stat["self"] += own
            stat["extras"].append(span[5])
            layer_self[name.split(".", 1)[0]] += own
        return by_name, layer_self


class _TracedFile:
    """A file whose lifetime from open to close is one leaf span."""

    def __init__(self, tracer: Tracer, fh):
        self._tracer = tracer
        self._fh = fh
        self._parent = tracer.stack[-1] if tracer.stack else -1
        self._t0 = perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def write(self, text):
        return self._fh.write(text)

    def close(self) -> None:
        if self._fh.closed:
            return
        size = self._fh.tell()
        self._fh.close()
        self._tracer.spans.append((WRITE_SPAN, self._t0, perf_counter(),
                                   self._parent, self._tracer.run_id, size))
