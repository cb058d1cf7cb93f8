"""Tests of the benchmark itself: seeded inputs, repeatable counts, checks.

No test pins a count value: later changes are meant to lower them.
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from cptsim import derive_couplings  # noqa: E402


def _key(inp):
    if isinstance(inp, workloads.ScenarioInputs):
        return inp.yaml_text
    return repr(inp)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    a = workloads.make(name, 5, str(tmp_path))
    b = workloads.make(name, 5, str(tmp_path))
    c = workloads.make(name, 6, str(tmp_path))
    first = [_key(a.inputs(i)) for i in range(10)]
    assert first == [_key(b.inputs(i)) for i in range(10)]
    assert first != [_key(c.inputs(i)) for i in range(10)]
    assert len(set(first)) == len(first)  # no op repeats another's inputs


def test_every_prefix_of_the_draws_covers_each_range_evenly():
    draws = workloads.SeededDraws("x", 1, {"u": (0.0, 1.0), "v": (2.0, 6.0)})
    for n in (8, 16, 32, 64):
        for key, lo in (("u", 0.0), ("v", 2.0)):
            bins = [0] * 4
            for i in range(n):
                width = 1.0 if key == "u" else 4.0
                bins[int(4 * (draws[i][key] - lo) / width)] += 1
            assert all(abs(b - n / 4) <= 2 for b in bins), (n, key, bins)


@pytest.mark.parametrize("name, n_ops", [("harmonic_sweep", 2), ("servo_lock", 1)])
def test_same_seed_same_traced_counts(name, n_ops, tmp_path):
    def counts():
        workload = workloads.make(name, 11, str(tmp_path))
        inputs = [workload.inputs(i) for i in range(1, n_ops + 1)]
        tally = run.Tally()
        tracer, observed, _ = run.trace_ops(workload, inputs, tally, run.op_speed())
        assert tally.failed == 0
        return dict(tracer.calls), dict(tracer.counts), dict(observed), len(tracer.start)

    first = counts()
    assert first[0] and first[3] > 0
    assert counts() == first


def _moved(roots, kind, shift):
    return [(k, m, d + shift if k == kind else d) for k, m, d in roots]


@pytest.mark.parametrize("name", ["harmonic_sweep", "thick_sweep"])
def test_scenario_check_rejects_a_moved_crossing(name, tmp_path):
    workload = workloads.make(name, 2, str(tmp_path))
    inp = workload.inputs(1)
    roots = workload.answer_roots(workload.op(inp))
    assert workload.check_roots(inp, roots) == []
    atom, _, family, _ = workload.model(inp.config)
    for kind, m, _ in roots:
        gt = derive_couplings(atom, family(m)).Gamma_g_tilde
        assert workload.check_roots(inp, _moved(roots, kind, 1e-3 * gt))
        assert workload.check_roots(inp, _moved(roots, kind, -1e-3 * gt))
    assert workload.check_roots(inp, [r for r in roots if r[0] == "IP"])
    if name == "thick_sweep":
        # moving a root in m would move its crossing too, so test the gap
        # rule by raising the threshold just above this answer's gap
        (m_ip, m_pzd) = (m for _, m, _ in sorted(roots))
        workload.min_gap = abs(m_ip - m_pzd) + 1e-6
        assert any("gap" in p for p in workload.check_roots(inp, roots))


def test_td_check_rejects_a_moved_crossing(tmp_path):
    workload = workloads.make("td_reference", 2, str(tmp_path))
    inp = workload.inputs(1)
    delta0 = workload.op(inp)
    assert workload.check(inp, delta0) == []
    gt = derive_couplings(inp.atom, inp.spectrum).Gamma_g_tilde
    assert workload.check(inp, delta0 + 1e-3 * gt)
    assert workload.check(inp, delta0 - 1e-3 * gt)


def test_servo_check_rejects_a_minimum_two_cells_off(tmp_path):
    workload = workloads.make("servo_lock", 2, str(tmp_path))
    inp = workload.inputs(1)
    m_min = workload.response_minimum(workload.op(inp))
    assert workload.check_minimum(inp, m_min) == []
    for shift in (-2 * workload.cell, 2 * workload.cell):
        assert workload.check_minimum(inp, m_min + shift)


def test_tail_keeps_ten_values_beyond_it():
    value, pct = run.tail(list(range(1, 51)))
    assert value == 40 and pct == 80.0
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "td_reference",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
