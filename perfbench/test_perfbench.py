"""Tests of the benchmark itself: self-time arithmetic, output checks,
repeatable trace counts, metrics whose wrapped name is gone and the
machine-speed rescaling.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import bench_speed  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
from vanvisc import harness  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans_and_leaves():
    clock = FakeClock()
    tr = bench_trace.Tracer(clock=clock)
    tr.enter(True)                 # A: 0 .. 10
    clock.now = 1.0
    tr.enter(True)                 # B: 1 .. 4
    clock.now = 2.0
    tr.enter(False)                # leaf L: 2 .. 3, inside B
    clock.now = 3.0
    tr.exit("L")
    clock.now = 4.0
    tr.exit("B")
    clock.now = 5.0
    tr.enter(False)                # leaf L: 5 .. 7, inside A
    clock.now = 6.0
    tr.enter(False)                # leaf M: 6 .. 6.5, inside L
    clock.now = 6.5
    tr.exit("M")
    clock.now = 7.0
    tr.exit("L")
    clock.now = 10.0
    tr.exit("A")
    spans = {name: (sid, parent, self_s) for sid, parent, name, _, _, self_s in tr.spans}
    assert spans["B"] == (1, 0, 2.0)
    assert spans["A"] == (0, None, 10.0 - 3.0 - 2.0)
    assert tr.leaves["L"] == [2, 1.0 + 1.5]
    assert tr.leaves["M"] == [1, 0.5]
    total = sum(tr.self_seconds().values())
    assert total == pytest.approx(10.0)       # self times tile the root span


def test_self_times_tile_a_traced_unit():
    tr = bench_trace.Tracer().install()
    try:
        wl = SMALL_SWEEP
        harness.converge_cmd(wl.setup(0))
    finally:
        tr.uninstall()
    root = tr.span_seconds("harness.converge_cmd")
    assert len(root) == 1
    assert sum(tr.self_seconds().values()) == pytest.approx(root[0], rel=1e-9)


def test_perturbed_sweep_output_fails_its_check():
    ref = bw.REFERENCE["sweep_burgers"]
    tol = bw.REFERENCE["tolerances"]
    rows = [dict(r) for r in ref]
    attempted, failures = bw.check_rows(rows, ref, tol)
    assert attempted == len(ref) * len(tol) and failures == []
    # the l1_error shift predicted for an exact viscous Burgers solution passes
    rows[0]["l1_error"] *= 1.003
    assert bw.check_rows(rows, ref, tol)[1] == []
    rows[0]["residual"] *= 1.01
    rows[1]["n_events"] += 1
    attempted, failures = bw.check_rows(rows, ref, tol)
    assert len(failures) == 2 and len(failures) / attempted > 0


def test_perturbed_corpus_and_measures_outputs_fail_their_checks():
    corpus = bw.WORKLOADS["corpus_audit"]
    assert corpus.check([(0.0, 0), (-1e-3, 0)]) == (4, [])
    attempted, failures = corpus.check([(2e-10, 0), (0.0, 1)])
    assert attempted == 4 and len(failures) == 2
    meas = bw.WORKLOADS["measures_compare"]
    assert meas.check([("window", True), ("order", False)])[1] == ["order inequality "
                                                                      "violated (check 1)"]


SMALL_SWEEP = bw.Sweep("small", "burgers", "cancellation", (2e-2,), 0.5)
REPEATED = ("front_tracking.events", "system.eigen_frame_calls", "viscous.cell_updates",
            "viscous.shock_profile_calls", "hybrid.residual_points")


def _traced_counts():
    tr = bench_trace.Tracer().install()
    try:
        SMALL_SWEEP.unit(SMALL_SWEEP.setup(0))
    finally:
        tr.uninstall()
    metrics, absent = bench_trace.layer_metrics(tr, 1.0)
    assert not absent
    return {k: metrics[k]["value"] for k in REPEATED}


def test_counts_repeat_exactly_across_traced_runs():
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    assert all(v > 0 for v in first.values())


def test_removed_binding_is_reported_absent():
    bindings = [b for b in bench_trace.BINDINGS if b[2] != "viscous.solve_viscous"]
    bindings.append(("harness", "no_such_function", "viscous.solve_viscous",
                     bench_trace.SPAN, None))
    tr = bench_trace.Tracer().install(bindings)
    try:
        SMALL_SWEEP.unit(SMALL_SWEEP.setup(0))
    finally:
        tr.uninstall()
    metrics, absent = bench_trace.layer_metrics(tr, 1.0)
    assert "viscous.solve_viscous_s" not in metrics
    assert "vanvisc.harness.no_such_function" in absent["viscous.solve_viscous_s"]
    assert metrics["hybrid.residual_points"]["value"] > 0


def test_uninstall_restores_every_binding():
    from vanvisc import front_tracking, hybrid, viscous

    before = (front_tracking.run_until, hybrid.shock_profile, viscous.ShockProfile.value)
    tr = bench_trace.Tracer().install()
    assert front_tracking.run_until is not before[0]
    tr.uninstall()
    assert (front_tracking.run_until, hybrid.shock_profile,
            viscous.ShockProfile.value) == before


def test_band_work_counts_pieces_and_dense_intervals():
    from vanvisc.measures import WaveMeasure

    # one piece [0, 1]; breaks -0.5, 0, 0.5, 1, 1.5 -> 4 intervals, 2 dense
    mu = WaveMeasure.from_atoms([]).with_density([0.0, 1.0], [0.0, 2.0, 0.0])
    assert bw.band_work(mu, 0.5) == 1 * (0.5 * 5 + 4.0 * 2)
    assert bw.band_work(WaveMeasure.from_atoms([(0.0, 1.0)]), 0.5) == 0.0


def test_speed_meter_rescales_by_the_loop_times():
    clock = FakeClock()
    loop_times = iter([0.02, 0.01, 0.04, 0.03])   # scalar, vector; before, after

    def loop():
        clock.now += next(loop_times)

    with bench_speed.SpeedMeter(0.25, period=None, loops=(loop, loop),
                                clock=clock) as meter:
        clock.now += 3.0
    rs, rv = bench_speed.REF_SCALAR_S, bench_speed.REF_VECTOR_S
    scalar, vector = 0.5 * (rs / 0.02 + rs / 0.04), 0.5 * (rv / 0.01 + rv / 0.03)
    assert meter.own_s == 3.0
    assert meter.speeds == pytest.approx((scalar, vector))
    assert meter.ref_s == pytest.approx(3.0 * (0.75 * scalar + 0.25 * vector))


def test_speed_meter_samples_inside_the_block_and_leaves_no_timer():
    before = signal.getsignal(signal.SIGALRM)
    with bench_speed.SpeedMeter(period=0.02) as meter:
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
    assert len(meter.samples) >= 4               # before, inside, after
    assert 0.0 < meter.loop_s < meter.wall_s
    assert meter.own_s == pytest.approx(meter.wall_s - meter.loop_s)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
