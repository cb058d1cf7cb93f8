"""Span tracing from outside cptsim, for the traced benchmark run.

A traced run wraps the names each cptsim module calls through, for example
``cptsim.sweep.brentq`` or ``cptsim.thick.linearized_signals``: replacing
the attribute on the calling module makes every call made through that
binding open a span.  Spans (name, start, end, parent, op id) are kept in
memory and written out once, at the end of the run.  A span's self time is
its duration minus the durations of its direct children; children never
overlap, because every wrapped call is synchronous.

In-program instrumentation (a counters-and-timers object inside cptsim) is
a later change; until then these wrappers are the only per-layer view.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (calling module, attribute, span name).  Several bindings of one function
# share its span name.
BINDINGS = (
    ("cptsim.sweep", "bessel_spectrum", "core.bessel_spectrum"),
    ("cptsim.config", "bessel_spectrum", "core.bessel_spectrum"),
    ("cptsim.harmonic", "derive_couplings", "core.derive_couplings"),
    ("cptsim.sweep", "derive_couplings", "core.derive_couplings"),
    ("cptsim.timedomain", "derive_couplings", "core.derive_couplings"),
    ("cptsim.runner", "derive_couplings", "core.derive_couplings"),
    ("cptsim.harmonic", "solve_fourier_amplitudes", "harmonic.solve_fourier_amplitudes"),
    ("cptsim.sweep", "harmonic_signals", "harmonic.harmonic_signals"),
    ("cptsim.sweep", "linearized_signals", "harmonic.linearized_signals"),
    ("cptsim.thick", "linearized_signals", "thick.slab_linearized_signals"),
    ("cptsim.sweep", "averaged_signal", "thick.averaged_signal"),
    ("cptsim.sweep", "integrate_ground_state", "timedomain.integrate_ground_state"),
    ("cptsim.sweep", "lockin", "timedomain.lockin"),
    ("cptsim.sweep", "brentq", "sweep.brentq"),
    ("cptsim.sweep", "zero_crossing", "sweep.zero_crossing"),
    ("cptsim.runner", "zero_crossing", "sweep.zero_crossing"),
    ("cptsim.sweep", "find_ips_and_pzds", "sweep.find_ips_and_pzds"),
    ("cptsim.runner", "find_ips_and_pzds", "sweep.find_ips_and_pzds"),
    ("cptsim.sweep", "servo_lock_experiment", "sweep.servo_lock_experiment"),
    ("cptsim.runner", "run_scenario", "runner.run_scenario"),
)
OP_SPAN = "bench.op"
FEVALS = "sweep.brentq.fevals"


class Tracer:
    """Records spans and per-name totals while its wrappers are installed.

    Calls are recorded only while `op_id` is set (>= 0), so the benchmark can
    generate inputs and check answers between ops without polluting counts.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._child = array("d")  # time covered by direct children, per span
        self._current = -1
        self.op_id = -1
        self.calls: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.raised: Counter[tuple[str, str]] = Counter()
        self.missing: list[str] = []
        self.present: set[str] = set()
        self._bindings = []
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.present.add(span)
            if span == "sweep.brentq":
                original = self._counting_fevals(original)
            self._bindings.append((module, attr, self.wrap(span, original)))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""
        nid = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.op_id < 0:  # between ops: checks and input generation
                return fn(*args, **kwargs)
            parent = self._current
            span = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self._child.append(0.0)
            self.end.append(0.0)
            self._current = span
            t0 = clock()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                t1 = clock()
                self.end[span] = t1
                self._current = parent
                duration = t1 - t0
                if parent >= 0:
                    self._child[parent] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - self._child[span]

        traced.__wrapped__ = fn
        return traced

    def _counting_fevals(self, brentq):
        counts = self.counts

        def counted_brentq(f, *args, **kwargs):
            def counted(*fargs):
                if self.op_id >= 0:
                    counts[FEVALS] += 1
                return f(*fargs)

            return brentq(counted, *args, **kwargs)

        return counted_brentq

    @contextmanager
    def installed(self):
        """Install every wrapper on its module; restore the originals after."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in self._bindings]
        for module, attr, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write_spans(self, path: str) -> int:
        """Write every span to an .npz file; returns the span count."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
        return len(self.start)

