"""In-memory span tracer that wraps the public functions and methods of a
package from outside.

A span is (id, name, start, end, parent id). Spans are recorded only while a
`Tracer` is installed; `uninstall` puts every original object back. A
function bound under several module names (``from .trainer import
score_video`` in ``dams.cli``) gets one wrapper, set under every name, so a
span wraps the call wherever the caller looks the name up.

Self time of a span is its duration minus the part of its interval that its
child spans cover; `self_times` does that arithmetic.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time


class Tracer:
    """Wraps every public function and method of a package's modules.

    `meters` maps a span name to ``fn(args, kwargs) -> float``; the values
    are summed per name while tracing, for counts that depend on arguments
    (bytes read from a path, for instance). `probes` maps a span name to a
    zero-argument function read at span start and end; the differences are
    kept per call.
    """

    def __init__(self, package, meters=None, probes=None):
        self.package = package
        self.meters = dict(meters or {})
        self.probes = dict(probes or {})
        self.spans = []          # (id, name, start, end, parent)
        self.metered = {}        # name -> summed meter value
        self.probed = {}         # name -> [end - start per call]
        self._stack = [None]
        self._restore = []       # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _enter(self, name, args, kwargs):
        meter = self.meters.get(name)
        if meter is not None:
            self.metered[name] = self.metered.get(name, 0.0) + meter(args, kwargs)
        probe = self.probes.get(name)
        before = probe() if probe is not None else None
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append(sid)
        return sid, before, time.perf_counter()

    def _exit(self, name, sid, before, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, name, start, end, self._stack[-1])
        if before is not None:
            self.probed.setdefault(name, []).append(self.probes[name]() - before)

    def _wrap_function(self, fn, name):
        enter, exit_ = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's own work between
            # items is never charged to the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid, before, start = enter(name, args, kwargs)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_(name, sid, before, start)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, before, start = enter(name, args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, sid, before, start)
        return wrapper

    # -- installation ------------------------------------------------------

    def _modules(self):
        pkg = importlib.import_module(self.package)
        mods = [importlib.import_module(f"{self.package}.{info.name}")
                for info in pkgutil.iter_modules(pkg.__path__)]
        return pkg, mods

    def _span_name(self, obj, qualname):
        return f"{obj.__module__.rsplit('.', 1)[-1]}.{qualname}"

    def _owned(self, obj):
        return getattr(obj, "__module__", "").startswith(self.package + ".")

    def install(self):
        pkg, mods = self._modules()
        wrapped = {}  # id(original function) -> wrapper
        classes = {}
        for mod in mods + [pkg]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not self._owned(obj):
                    continue
                if inspect.isclass(obj):
                    classes[id(obj)] = obj
                elif inspect.isfunction(obj):
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self._wrap_function(
                            obj, self._span_name(obj, obj.__qualname__))
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for cls in classes.values():
            if issubclass(cls, BaseException):
                continue
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                name = self._span_name(cls, f"{cls.__qualname__}.{attr}")
                if isinstance(raw, (classmethod, staticmethod)):
                    repl = type(raw)(self._wrap_function(raw.__func__, name))
                elif inspect.isfunction(raw):
                    repl = self._wrap_function(raw, name)
                else:
                    continue  # properties, constants, nested data
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, repl)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def write(self, path):
        """One JSON object per span: id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """{span id: duration minus the part covered by its children}."""
    children = {}
    for sid, _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - covered_length(children.get(sid, ()), start, end)
            for sid, _, start, end, _ in spans}


def summarize(spans):
    """{name: {"calls", "total_s", "durations"}} over `spans`."""
    out = {}
    for _, name, start, end, _ in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "durations": []})
        row["calls"] += 1
        row["total_s"] += end - start
        row["durations"].append(end - start)
    return out
