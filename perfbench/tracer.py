"""Span tracing of tfpaint from the outside, kept in memory.

``Tracer.installed()`` replaces, for the duration of a ``with`` block:

* in every tfpaint module, each function it imported from another tfpaint
  module (``from .stft import analyze`` binds a name in the importer, so the
  wrapper goes into the importer's namespace);
* the few same-module functions a per-layer metric needs (``INTRA``);
* ``Thresholder.__call__`` and the ``numpy.fft`` transforms the solver uses.

Every wrapped call records one span (name, start, end, parent).  A span's
self time is its duration minus the durations of its direct children; the
calls are single-threaded, so children never overlap.  The program itself is
not edited and runs the same arithmetic: the wrappers only read the clock
and the sizes of arguments and results.
"""

import contextlib
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = ("stft", "phase_prior", "prox", "solver", "pipeline", "evaluate", "cli")
INTRA = {
    "stft": ("_overlap_add",),
    "solver": ("gcpa_inner",),
    "pipeline": ("inpaint_spectrogram", "extract_segment", "peak_normalize"),
    "evaluate": ("compare_methods",),
    "cli": ("main", "read_mask", "read_spectrogram", "read_wav", "write_wav",
            "write_spectrogram"),
}
FFT = ("fft", "ifft", "rfft", "irfft")
OUTER_LOOPS = ("solver.uphain_tf", "solver.bphain_tf", "solver.cpa_tf_only")


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind_partial(*args, **kwargs).arguments.get(name)


def _note_inner(counts, fn, args, kwargs, result):
    counts["gcpa_iters"] += _argument(fn, args, kwargs, "cfg").inner_iters


def _note_outer_loop(counts, fn, args, kwargs, result):
    if isinstance(result, tuple):
        rounds = result[1]["outer_iters_used"]
        counts["outer_rounds"] += rounds
        if fn.__name__ == "cpa_tf_only":
            counts["tf_only_iters"] += rounds * _argument(fn, args, kwargs, "cfg").inner_iters


def _note_segment(counts, fn, args, kwargs, result):
    counts["segments"] += 1
    counts["segment_cols"] += result[0].segment_cols[1]


def _note_records(counts, fn, args, kwargs, result):
    counts["records"] += len(result[0])


def _note_fft(counts, fn, args, kwargs, result):
    counts["fft_bytes"] += np.asarray(args[0]).nbytes + result.nbytes


NOTES = {
    "solver.gcpa_inner": _note_inner,
    "pipeline.extract_segment": _note_segment,
    "evaluate.compare_methods": _note_records,
    **{name: _note_outer_loop for name in OUTER_LOOPS},
    **{f"fft.{name}": _note_fft for name in FFT},
}


class Tracer:
    """Collects spans of one traced body; not thread-safe by design."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.stack = [-1]
        self.counts = defaultdict(int)
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        note, counts = NOTES.get(name), self.counts

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (name, t0, t1, parent)
            if note is not None:
                note(counts, fn, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self):
        for short in MODULES:
            mod = importlib.import_module(f"tfpaint.{short}")
            for attr, value in list(vars(mod).items()):
                if isinstance(value, type) or not callable(value):
                    continue
                home = getattr(value, "__module__", None) or ""
                if not home.startswith("tfpaint."):
                    continue
                if home == mod.__name__ and attr not in INTRA.get(short, ()):
                    continue
                self._patch(mod, attr, f"{home.rsplit('.', 1)[1]}.{value.__name__}")
        prox = importlib.import_module("tfpaint.prox")
        self._patch(prox.Thresholder, "__call__", "prox.threshold")
        for name in FFT:
            self._patch(np.fft, name, f"fft.{name}")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. the root of a body."""
        i = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(i)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[i] = (name, t0, t1, parent)

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds; plus counts."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, incl, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += t1 - t0
            own[name] += (t1 - t0) - child[i]
        return {"calls": dict(calls), "incl": dict(incl), "self": dict(own),
                "counts": dict(self.counts)}
