"""Call spans for the pmcmc_lab modules, recorded from outside the program.

:meth:`Tracer.install` replaces every public function of the listed modules,
and a few hot methods, by a wrapper that records one span per call: name,
start, end and parent span.  A name bound by ``from .x import f`` in another
module is replaced too, so calls through that binding are seen.  Generator
functions get one span per resumption and one call per generator.
:meth:`Tracer.uninstall` restores the originals.

Self time is a span's duration minus the part its child spans cover.  Spans
stay in memory up to MAX_SPANS per pass (a scalar-cli pass makes about 72k);
aggregates per name are kept for every call regardless.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

PACKAGE = "pmcmc_lab"
MAX_SPANS = 200_000
MODULES = (
    "rng", "fk_model", "smc_core", "csmc", "replicated", "exact_oracle",
    "c2smc", "bounds", "pgibbs", "harness", "cli",
)
# Methods traced besides the module-level functions: the substream lookup
# and the model's draw sites, which the scalar passes call per particle.
METHODS = (
    ("rng", "SubstreamRng", "stream"),
    ("fk_model", "DiscreteFK", "sample_initial"),
    ("fk_model", "DiscreteFK", "sample_transition"),
)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "raised")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.raised = {}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []     # (id, parent id, name, start, end)
        self.dropped = 0
        self._stack: list[list] = []     # [id, name, start, child seconds]
        self._next_id = 1
        self._patched: list[tuple] = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, st: Stat) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[2]
        st.total_s += dur
        st.self_s += dur - frame[3]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[0], parent[0] if parent else 0, frame[1], frame[2], end))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        st = self.stat(name)
        st.calls += 1
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame, st)

    def reset(self) -> None:
        """Zero the aggregates and forget the spans; wrappers keep their Stat."""
        for st in self.stats.values():
            st.__init__()
        self.spans = []
        self.dropped = 0

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        st = self.stat(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):

            def resume(gen):
                while True:
                    frame = tracer._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException as exc:
                        st.raised[type(exc).__name__] = st.raised.get(type(exc).__name__, 0) + 1
                        raise
                    finally:
                        tracer._exit(frame, st)
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st.calls += 1
                return resume(fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                st.raised[type(exc).__name__] = st.raised.get(type(exc).__name__, 0) + 1
                raise
            finally:
                tracer._exit(frame, st)

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        # Replace every binding of a wrapped function in the package,
        # including names imported into other modules.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{short}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Tab-separated spans: id, parent, name, start and end in ns."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{int(start * 1e9)}\t{int(end * 1e9)}\n")
