"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  With ``--trace 0`` it measures the
end-to-end metrics with no wrapper installed; with ``--trace 1`` it runs one
unit of work traced and reports the per-layer metrics.  Times are reported
at the reference machine speed measured by ``bench_speed``; the raw times
are on the line before the result.  The last line of
standard output is the JSON result; the line before it holds the machine
facts and the failed checks.  See README.md in this directory.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 2          # extra fresh processes that time set-up alone
SPEED_LOOPS = 15          # calibration loops that rate the speed after set-up
CHILD_TIMEOUT = 170


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _machine_facts():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _import_package():
    """Import vanvisc from this checkout's src/, or exit with status 1."""
    if not os.path.isfile(os.path.join(SRC, "vanvisc", "__init__.py")):
        sys.exit(f"perfbench: no package at {SRC}/vanvisc; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import vanvisc

    if os.path.dirname(os.path.dirname(os.path.abspath(vanvisc.__file__))) != SRC:
        sys.exit(f"perfbench: vanvisc imported from {vanvisc.__file__}, not {SRC}")
    import bench_speed
    import bench_workloads

    return bench_speed, bench_workloads


def _setup_speed(bench_speed):
    """Machine speed right after set-up, from a few calibration loops.
    Set-up is imports and input generation, so it is rated as scalar work."""
    meter = bench_speed.SpeedMeter(vector_share=0.0, period=None)
    for _ in range(SPEED_LOOPS):
        meter.sample()
    return meter.speed


def _child(args, role):
    """Run this script again in a fresh process and return its last line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--role", role]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: {role} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed_unit(workload, inputs, meter):
    """One unit inside the meter: (own s, reference-speed s, checks, failures)."""
    with meter:
        out = workload.unit(inputs)
    attempted, failures = workload.check(out)
    return meter.own_s, meter.ref_s, attempted, failures


def _metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, bench_speed, workload, inputs, setup):
    """End-to-end metrics: units until --seconds is used, then set-up probes."""
    walls, refs, speeds, failures = [], [], [], []
    attempted = 0
    t0 = time.perf_counter()
    while True:
        meter = bench_speed.SpeedMeter(workload.vector_share)
        wall, ref, n, fails = _timed_unit(workload, inputs, meter)
        walls.append(wall)
        refs.append(ref)
        speeds.append(meter.speeds)
        attempted += n
        failures += fails
        used = time.perf_counter() - t0
        if used + statistics.median(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup] + [_child(args, "setup-probe") for _ in range(SETUP_PROBES)]
    metrics = {
        "setup_s": _metric(statistics.median(s["setup_ref_s"] for s in setups), "s"),
        "wall_ref_s": _metric(statistics.median(refs), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    detail = {"units": len(walls), "unit_walls_s": walls, "unit_ref_s": refs,
              "unit_scalar_vector_speeds": speeds, "setup_samples": setups}
    return metrics, attempted, failures, detail


def traced(args, bench_speed, workload, inputs):
    """Per-layer metrics from one traced unit; the overhead is taken against
    one untraced unit in a fresh process, which installs no wrapper.  Both
    are compared at the reference speed; the traced unit samples the speed
    only before and after itself, so that no calibration loop runs inside
    a span."""
    import bench_trace

    reference = _child(args, "untraced-unit")["ref_s"]
    tracer = bench_trace.Tracer().install()
    try:
        wall, ref, attempted, failures = _timed_unit(
            workload, inputs, bench_speed.SpeedMeter(workload.vector_share, period=None))
    finally:
        tracer.uninstall()
    metrics, absent = bench_trace.layer_metrics(tracer, wall)
    metrics["trace.overhead_frac"] = _metric((ref - reference) / reference, "ratio")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "traced_wall_s": wall,
                   "untraced_wall_s": reference, "absent": absent,
                   **tracer.to_json()}, fh)
    detail = {"absent": absent, "trace_file": os.path.relpath(path, ROOT),
              "traced_wall_s": wall, "traced_ref_s": ref, "untraced_ref_s": reference}
    return metrics, attempted, failures, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup-probe", "untraced-unit"),
                        default="main", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_start = _loadavg()

    bench_speed, bench_workloads = _import_package()
    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(bench_workloads.WORKLOADS)}")
    workload = bench_workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.perf_counter() - T_START
    speed = _setup_speed(bench_speed)
    setup = {"setup_s": setup_s, "speed": speed, "setup_ref_s": setup_s * speed}

    if args.role == "setup-probe":
        print(json.dumps(setup))
        return 0
    if args.role == "untraced-unit":
        _, ref, _, _ = _timed_unit(workload, inputs,
                                   bench_speed.SpeedMeter(workload.vector_share))
        print(json.dumps({"ref_s": ref}))
        return 0

    if args.trace:
        metrics, attempted, failures, detail = traced(args, bench_speed, workload, inputs)
    else:
        metrics, attempted, failures, detail = untraced(args, bench_speed, workload,
                                                        inputs, setup)
    facts = _machine_facts()
    facts["loadavg_start"] = load_start
    facts["loadavg_end"] = _loadavg()
    print(json.dumps({"facts": facts, "failed_frac": len(failures) / attempted,
                      "failures": failures[:20], **detail}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
