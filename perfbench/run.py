"""cptsim benchmark: time to a locked crossing, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload harmonic_sweep --seed 1 --seconds 20 --trace 0

Workloads (defined, with why each was chosen, in workloads.py):
harmonic_sweep, thick_sweep, td_reference, servo_lock.  Every op is
checked outside its timed region; the last line of standard output is a
JSON object with keys correct, attempted, failed and metrics.

--trace 0 runs the workload in this one process, closed loop (the next op
starts when the previous one and its check are done), until the ops have
taken --seconds of wall time and at least MIN_OPS have succeeded.  It
reports the end-to-end metrics:

  ops_per_s    ops that passed their check per second of op time
  op_ms_p50    median op time
  op_ms_tail   op time at the highest percentile with >= 10 ops beyond it
  setup_s      median time of COLD_STARTS fresh interpreters, each importing
               cptsim, building the first op's inputs and making one signal
               evaluation and one zero_crossing (coldstart.py); they are
               spread through the measurement, between ops
  peak_rss_mb  peak resident memory of this process
  fail_frac    failed / attempted ops; printed in the table and carried by
               the JSON's failed and attempted counts, but not a
               BENCHMARK.json metric because it is 0 whenever cptsim is right

Times are wall times scaled to a fixed host speed (see HostSpeed): on a
shared host the same code runs up to 1.7x slower for seconds to minutes at a
time, which would otherwise swamp the differences the benchmark exists to
see.  The table also prints the unscaled wall-time figures.  Measured on
the development host, 20 s runs on five seeds: the quartile spread of
op_ms_p50 was 12-23% of its median unscaled and 3-5% scaled.

--trace 1 runs a fixed number of ops (TRACE_OPS), so that its counts repeat
exactly for a seed: once untraced, then with tracer.Tracer's wrappers
installed.  It reports per-op layer counts and times, the tracing overhead,
the micro layer table (micro.py), and import times from `-X importtime`
cold starts.  Spans are written to .perfbench/spans-<workload>.npz.

The BLAS and OpenMP thread counts are pinned to 1 in this process and its
children.  Layer counts come from wrappers at module boundaries; counters
inside cptsim (a RunDiagnostics object) are a later change.  The test-suite
run time is not a metric: its tests change from change to change.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("harmonic_sweep", "thick_sweep", "td_reference", "servo_lock")
COLD_STARTS = 3
# The tail percentile needs 10 ops beyond it; 21 ops put it at the median or
# above.  Only thick_sweep (about 1.2 s an op) needs more than --seconds for
# that, and its tail then sits close to its median.
MIN_OPS = 21
TRACE_OPS = {"harmonic_sweep": 24, "thick_sweep": 4, "td_reference": 16, "servo_lock": 6}
IMPORT_PROBES = 3
STARTUP_PROBE = "import asyncio, decimal, email.parser, http.client, json, unittest, xml.dom.minidom"
IMPORTS = {
    "import.cptsim_ms": "cptsim",
    "import.scipy_optimize_ms": "scipy.optimize",
    "import.pydantic_ms": "pydantic",
}

# metric -> (unit, kind, spans).  kind: calls, ms (inclusive), self_ms,
# fevals, bracket (BracketErrors leaving zero_crossing), or observed (read
# from the answers).  A metric whose spans all lack a binding is not reported.
LAYER_METRICS = {
    "core.bessel_spectrum.calls": ("count/op", "calls", ("core.bessel_spectrum",)),
    "core.bessel_spectrum.ms": ("ms/op", "ms", ("core.bessel_spectrum",)),
    "core.derive_couplings.calls": ("count/op", "calls", ("core.derive_couplings",)),
    "core.derive_couplings.ms": ("ms/op", "ms", ("core.derive_couplings",)),
    "harmonic.fourier_solves": ("count/op", "calls", ("harmonic.solve_fourier_amplitudes",)),
    "harmonic.solve_ms": ("ms/op", "ms", ("harmonic.solve_fourier_amplitudes",)),
    "harmonic.linearized_calls": (
        "count/op", "calls",
        ("harmonic.linearized_signals", "thick.slab_linearized_signals"),
    ),
    "harmonic.linearized_ms": (
        "ms/op", "ms", ("harmonic.linearized_signals", "thick.slab_linearized_signals"),
    ),
    "thick.slab_evals": ("count/op", "calls", ("thick.slab_linearized_signals",)),
    "thick.averaged_signal.calls": ("count/op", "calls", ("thick.averaged_signal",)),
    "thick.averaged_signal.self_ms": ("ms/op", "self_ms", ("thick.averaged_signal",)),
    "timedomain.integrate.calls": (
        "count/op", "calls", ("timedomain.integrate_ground_state",)),
    "timedomain.integrate.ms": ("ms/op", "ms", ("timedomain.integrate_ground_state",)),
    "timedomain.lockin.ms": ("ms/op", "ms", ("timedomain.lockin",)),
    "sweep.zero_crossing.calls": ("count/op", "calls", ("sweep.zero_crossing",)),
    "sweep.zero_crossing.self_ms": ("ms/op", "self_ms", ("sweep.zero_crossing",)),
    "sweep.brentq.calls": ("count/op", "calls", ("sweep.brentq",)),
    "sweep.brentq.fevals": ("count/op", "fevals", ("sweep.brentq",)),
    "sweep.signal_evals.harmonic": ("count/op", "calls", ("harmonic.harmonic_signals",)),
    "sweep.signal_evals.linearized": (
        "count/op", "calls", ("harmonic.linearized_signals",)),
    "sweep.signal_evals.thick": ("count/op", "calls", ("thick.averaged_signal",)),
    "sweep.signal_evals.time-domain": (
        "count/op", "calls", ("timedomain.integrate_ground_state",)),
    "sweep.find_ips.calls": ("count/op", "calls", ("sweep.find_ips_and_pzds",)),
    "sweep.find_ips.self_ms": ("ms/op", "self_ms", ("sweep.find_ips_and_pzds",)),
    "sweep.refine_rounds": ("count/op", "observed", ()),
    "sweep.bracket_failures": ("count/op", "bracket", ("sweep.zero_crossing",)),
    "sweep.servo.steps": ("count/op", "observed", ()),
    "sweep.servo.self_ms": ("ms/op", "self_ms", ("sweep.servo_lock_experiment",)),
    "runner.run_scenario.self_ms": ("ms/op", "self_ms", ("runner.run_scenario",)),
    "runner.bytes_written": ("B/op", "observed", ()),
}


def load_program():
    """Import cptsim from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "cptsim", "__init__.py")):
        sys.exit(f"error: cptsim sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import cptsim

    if not os.path.abspath(cptsim.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported cptsim from {cptsim.__file__}, not {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class HostSpeed:
    """Scales a wall time to the host speed at which `probe()` takes `ref_s`.

    The probe runs no cptsim code and is timed just before and just after
    each timed call, so a change to cptsim moves the scaled time exactly as
    it moves the wall time.
    """

    def __init__(self, probe, ref_s):
        self.probe = probe
        self.ref_s = ref_s

    def timed(self, fn, *args):
        """(fn(*args), wall seconds, scaled seconds)."""
        before = self.probe()
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        return result, elapsed, elapsed * self.ref_s / (0.5 * (before + self.probe()))


def op_speed():
    """Host speed for ops: best of 3 timings of 40 numpy solves of a 15x15.

    On the 2-core development host this probe reads about 300 us when the
    host is quiet and about 500 us when it is slowed.  Of the probes tried
    (this one, a pure-Python loop, and their geometric mean) it tracked the
    op times of every workload best.
    """
    import numpy as np

    a = 15.0 * np.eye(15) + np.arange(225.0).reshape(15, 15) / 225.0
    b = np.ones(15)

    def probe():
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(40):
                np.linalg.solve(a, b)
            best = min(best, time.perf_counter() - t0)
        return best

    return HostSpeed(probe, 300e-6)


def startup_speed():
    """Host speed for cold starts: one interpreter importing stdlib modules.

    Start-up work (reading and unmarshalling modules, loading extensions)
    slows less than numpy calls when the host is busy, so the op probe would
    overcorrect it; this probe, about 120 ms on the quiet development host,
    tracked cold starts to 3% where unscaled times varied by 6%.
    """

    def probe():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", STARTUP_PROBE], check=True, timeout=60)
        return time.perf_counter() - t0

    return HostSpeed(probe, 0.120)


class Tally:
    """Attempted and failed ops, and the times of timed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wall_s: list[float] = []  # every timed op
        self.scaled_s: list[float] = []
        self.ok_wall_s: list[float] = []  # timed ops that passed their check
        self.ok_scaled_s: list[float] = []

    def add(self, index, problems, times=None):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"op {index} failed: " + "; ".join(problems), file=sys.stderr)
        if times is not None:
            self.wall_s.append(times[0])
            self.scaled_s.append(times[1])
            if not problems:
                self.ok_wall_s.append(times[0])
                self.ok_scaled_s.append(times[1])


def run_op(workload, inp, speed):
    """(answer or None, problems, (wall s, scaled s)) of one checked op."""
    try:
        answer, wall, scaled = speed.timed(workload.op, inp)
    except Exception:
        return None, [traceback.format_exc(limit=4)], None
    try:
        problems = workload.check(inp, answer)
    except Exception:
        problems = ["check raised:\n" + traceback.format_exc(limit=4)]
    return answer, problems, (wall, scaled)


def tail(values):
    """(value, percentile) at the highest percentile with >= 10 values above."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError(f"a tail needs at least 11 ops, got {len(ordered)}")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def cold_start(name, seed, importtime=False):
    """Run coldstart.py in a fresh interpreter; returns its stderr."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [os.path.join(HERE, "coldstart.py"), name, str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"error: cold start failed ({proc.returncode}):\n{proc.stderr}")
    return proc.stderr


def time_stats(prefix, ok_s, all_s, note=""):
    n = len(ok_s)
    tail_s, pct = tail(ok_s)
    return {
        f"{prefix}ops_per_s": (n / sum(all_s), "ops/s", f"n={n}{note}"),
        f"{prefix}op_ms_p50": (1e3 * statistics.median(ok_s), "ms", f"n={n}{note}"),
        f"{prefix}op_ms_tail": (1e3 * tail_s, "ms", f"p{pct:.1f}, n={n}{note}"),
    }


def measure(workload, name, seed, seconds):
    """End-to-end metrics: closed-loop ops for `seconds`, cold starts between."""
    speed = op_speed()
    start_speed = startup_speed()
    tally = Tally()
    _, problems, _ = run_op(workload, workload.inputs(0), speed)  # warm-up
    tally.add(0, problems)
    setup_wall, setup_scaled = [], []
    index = 0
    for k in range(1, COLD_STARTS + 1):
        _, wall, scaled = start_speed.timed(cold_start, name, seed)
        setup_wall.append(wall)
        setup_scaled.append(scaled)
        while sum(tally.wall_s) < seconds * k / COLD_STARTS or (
            k == COLD_STARTS and len(tally.ok_wall_s) < MIN_OPS
        ):
            index += 1
            _, problems, times = run_op(workload, workload.inputs(index), speed)
            tally.add(index, problems, times)
            # ops that raise add no op time: give up once most have failed
            if index > 10 * MIN_OPS and len(tally.ok_wall_s) < index // 2:
                break
    if len(tally.ok_wall_s) < MIN_OPS:
        sys.exit(f"error: only {len(tally.ok_wall_s)} of {tally.attempted} ops succeeded")
    metrics = time_stats("", tally.ok_scaled_s, tally.scaled_s)
    metrics["setup_s"] = (
        statistics.median(setup_scaled), "s", f"median of {COLD_STARTS} cold starts")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "this process")
    extra = time_stats("wall.", tally.ok_wall_s, tally.wall_s, ", unscaled")
    extra["wall.setup_s"] = (statistics.median(setup_wall), "s", "unscaled")
    extra["fail_frac"] = (tally.failed / tally.attempted, "ratio",
                          f"{tally.failed} of {tally.attempted}")
    return tally, metrics, extra


def layer_metrics(tracer, observed, n_ops):
    """Per-op layer metrics from a tracer; skips those with no binding."""
    from tracer import FEVALS

    out = {}
    for metric, (unit, kind, spans) in LAYER_METRICS.items():
        if spans and not any(s in tracer.present for s in spans):
            continue
        if kind == "calls":
            value = sum(tracer.calls[s] for s in spans)
        elif kind == "ms":
            value = 1e3 * sum(tracer.total_s[s] for s in spans)
        elif kind == "self_ms":
            value = 1e3 * sum(tracer.self_s[s] for s in spans)
        elif kind == "fevals":
            value = tracer.counts[FEVALS]
        elif kind == "bracket":
            value = tracer.raised[spans[0], "BracketError"]
        else:
            value = observed[metric]
        out[metric] = (value / n_ops, unit, f"per op, {n_ops} ops")
    return out


def config_parse_ms(inputs):
    """Median parse_config time of the traced ops' YAML, or 0 without YAML."""
    texts = [inp.yaml_text for inp in inputs if hasattr(inp, "yaml_text")]
    if not texts:
        return 0.0
    from cptsim.config import parse_config

    samples = []
    for text in texts * 5:
        t0 = time.perf_counter()
        parse_config(text)
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


def parse_importtime(stderr):
    """Cumulative import time in ms per module, from `python -X importtime`."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, module = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():
            out.setdefault(module.strip(), int(cumulative) / 1e3)
    return out


def import_times(name, seed):
    """Median cumulative import ms of IMPORTS over -X importtime cold starts."""
    runs = [parse_importtime(cold_start(name, seed, importtime=True))
            for _ in range(IMPORT_PROBES)]
    out, notes = {}, []
    for metric, module in IMPORTS.items():
        values = [run.get(module, 0.0) for run in runs]
        if not any(values):
            notes.append(f"{module} is not imported by a cold start")
        out[metric] = (statistics.median(values), "ms", f"median of {IMPORT_PROBES}")
    return out, notes


def trace_ops(workload, inputs, tally, speed):
    """Run and check `inputs` with a Tracer installed.

    Returns (tracer, observed layer counts, scaled seconds of the ops).
    """
    from tracer import OP_SPAN, Tracer

    tracer = Tracer()
    op = tracer.wrap(OP_SPAN, workload.op)
    observed = Counter()
    scaled_s = 0.0
    with tracer.installed():
        for i, inp in enumerate(inputs, 1):
            tracer.op_id = i
            try:
                answer, _, scaled = speed.timed(op, inp)
            except Exception:
                answer, problems, scaled = None, [traceback.format_exc(limit=4)], 0.0
            tracer.op_id = -1
            scaled_s += scaled
            if answer is not None:
                observed.update(workload.observe(inp, answer))
                problems = workload.check(inp, answer)
            tally.add(i, problems)
    return tracer, observed, scaled_s


def traced(workload, name, seed):
    """Per-layer metrics over TRACE_OPS[name] ops, untraced then traced."""
    from micro import micro_table

    n = TRACE_OPS[name]
    speed = op_speed()
    tally = Tally()
    _, problems, _ = run_op(workload, workload.inputs(0), speed)  # warm-up
    tally.add(0, problems)
    inputs = [workload.inputs(i) for i in range(1, n + 1)]
    for i, inp in enumerate(inputs, 1):
        _, problems, times = run_op(workload, inp, speed)
        tally.add(i, problems, times)
    untraced_s = sum(tally.scaled_s)

    tracer, observed, traced_s = trace_ops(workload, inputs, tally, speed)
    metrics = layer_metrics(tracer, observed, n)
    metrics["config.parse_ms"] = (config_parse_ms(inputs), "ms", "median per parse")
    imports, notes = import_times(name, seed)
    metrics.update(imports)
    metrics["tracing.overhead_pct"] = (
        100.0 * (traced_s / untraced_s - 1.0), "%",
        f"traced {n / traced_s:.4g} vs untraced {n / untraced_s:.4g} ops/s, scaled",
    )
    micro, micro_missing = micro_table()
    for metric, (value, unit) in micro.items():
        metrics[metric] = (value, unit, "test-suite atom")
    os.makedirs(WORK, exist_ok=True)
    spans_path = os.path.join(WORK, f"spans-{name}.npz")
    n_spans = tracer.write_spans(spans_path)
    notes.append(f"{n_spans} spans written to {os.path.relpath(spans_path, ROOT)}")
    for binding in sorted(set(tracer.missing + micro_missing)):
        notes.append(f"MISSING binding {binding}: its metrics are not reported")
    return tally, metrics, notes


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy loads
    load_program()
    import workloads

    workload = workloads.make(args.workload, args.seed, WORK)
    if args.trace:
        tally, metrics, notes = traced(workload, args.workload, args.seed)
        extra = {}
    else:
        tally, metrics, extra = measure(workload, args.workload, args.seed, args.seconds)
        notes = []
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {tally.attempted}  failed {tally.failed}")
    for metric, (value, unit, note) in {**metrics, **extra}.items():
        print(f"  {metric:<38} {value:>14.6g} {unit:<9} ({note})")
    for note in notes:
        print(f"  note: {note}")
        if note.startswith("MISSING"):
            print(note, file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
