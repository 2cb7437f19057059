#!/usr/bin/env python3
"""Closed-loop benchmark of the k3lab command line, end to end and by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload relation-small-p --seed 1 --seconds 20 --trace 0

One client in one process and one thread calls ``k3lab.cli.main(argv)``
in-process; the next op starts only after the previous one has returned
and its stdout has been checked.  The op list is generated from the
workload seed (see ``workloads.py``); the program sees only the argv and
the system JSON files.

``--trace 0`` times ops for ``--seconds`` (and at least ``MIN_OPS`` ops, so
that the 90th percentile has ten ops beyond it) and reports the end-to-end
metrics, with times scaled to a nominal host speed (see
``reference_seconds``).  ``--trace 1`` runs a fixed number of ops, each once
untraced and once traced through ``tracing.Tracer``, and reports the
per-layer metrics, the tracing overhead and the accounting check.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A fuller record goes to ``bench/out/``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

OPS_IN_LIST = 1000      # more ops than a run completes at the seed commit; the loop wraps past it
MIN_OPS = 100           # the 90th percentile needs ten ops beyond it
SETUP_RUNS = 3          # this process's set-up plus fresh child processes; setup_s is their median
REF_STEPS = 2000        # one reference measurement: about 1.5 ms on a quiet host
REF_NOMINAL_S = 0.0015  # the reference's time on the nominal host that times are scaled to
REF_WINDOW = 3          # an op is scaled by the references taken within this many ops of it
SETUP_REFS = 3          # references taken before and after set-up
# Ops per traced run: whole cycles of op classes, fixed so that layer counts
# repeat exactly for a seed.
TRACE_OPS = {"relation-small-p": 90, "relation-large-p": 20,
             "point-count": 33, "overlattice": 60}

E2E_UNITS = {"throughput_ops_per_s": "ops/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}


def import_program():
    """Import k3lab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "k3lab" / "cli.py").is_file():
        raise SystemExit(f"bench: no k3lab sources under {src}; run from a k3lab checkout")
    sys.path.insert(0, str(src))
    from k3lab import cli
    if Path(cli.__file__).resolve().parent != (src / "k3lab").resolve():
        raise SystemExit(f"bench: imported k3lab from {cli.__file__}, not from {src}")
    return cli


class Prepared:
    """Generated ops with their system files written, plus the warm-up ops."""

    def __init__(self, workload, seed, workdir):
        self.ops = self._materialize(workloads.make_ops(workload, seed, OPS_IN_LIST),
                                     workdir, "op")
        self.warm = self._materialize(
            workloads.make_ops(workload, "warm-up", workloads.cycle_length(workload)),
            workdir, "warm")
        self.digest = workloads.ops_digest(op for op, _ in self.ops)

    @staticmethod
    def _materialize(ops, workdir, tag):
        out = []
        for i, op in enumerate(ops):
            path = workdir / f"{tag}{i}.json"
            if op.system is not None:
                path.write_text(json.dumps(op.system), encoding="utf-8")
            argv = [str(path) if a == workloads.SYSTEM_ARG else a for a in op.argv]
            out.append((op, argv))
        return out


def call(cli, argv):
    """Run one CLI invocation in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an exception escaping the CLI fails the op
            rc = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def _checked(op, argv, i, rc, out, err, failures):
    if isinstance(rc, str):
        witness = rc
    else:
        witness = workloads.check(op, rc, out)
        if witness and err.strip():
            witness += f" (stderr: {err.strip()})"
    if witness:
        failures.append({"op": i, "argv": argv, "witness": witness})


class _Cell:
    """A boxed residue, allocated and combined like the program's scalars."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Cell((self.v + other.v) % 65521)

    def __mul__(self, other):
        return _Cell(self.v * other.v % 65521)


def reference_seconds():
    """Time a fixed loop of boxed modular arithmetic: the host's speed now.

    Shared hosts change speed by up to a factor of two over seconds to
    minutes, so raw times of runs taken minutes apart disagree by 20-30%.
    Scaling each op by the reference measured around it removes most of
    that.  The reference is benchmark code that no change to k3lab touches;
    the collector is off so that the program's heap does not change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        one, acc = _Cell(3), _Cell(0)
        for i in range(REF_STEPS):
            acc = acc + one * _Cell(i)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def nominal(seconds, refs):
    """``seconds`` measured while the references ``refs`` were taken, as
    seconds on the nominal host (where the reference takes REF_NOMINAL_S)."""
    return seconds * REF_NOMINAL_S / statistics.median(refs)


def run_loop(cli, ops, *, seconds=None, count=None):
    """Closed loop over ``ops`` (wrapping around), until ``count`` ops or until
    ``seconds`` have passed and at least MIN_OPS ops are done.  A reference
    measurement is taken before every op and after the last one.

    Returns the latencies, the references, the failures and the loop's wall
    time.
    """
    latencies, refs, failures = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        refs.append(reference_seconds())
        if count is not None:
            if i >= count:
                break
        elif i >= MIN_OPS and time.perf_counter() - start >= seconds:
            break
        op, argv = ops[i % len(ops)]
        rc, out, err, dt = call(cli, argv)
        latencies.append(dt)
        _checked(op, argv, i, rc, out, err, failures)
        i += 1
    return latencies, refs, failures, time.perf_counter() - start


def nominal_latencies(latencies, refs):
    """Each op's latency on the nominal host, scaled by the median of the
    references taken within REF_WINDOW ops of it."""
    return [nominal(dt, refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 2])
            for i, dt in enumerate(latencies)]


def setup_seconds(refs_before):
    """Seconds from process start to now, minus the time of the references
    taken at either end, raw and on the nominal host."""
    refs = refs_before + [reference_seconds() for _ in range(SETUP_REFS)]
    raw = time.perf_counter() - PROCESS_START - sum(refs)
    return raw, nominal(raw, refs)


def trace_loop(cli, ops, count, tracer):
    """Run each of the first ``count`` ops twice, untraced and traced, in
    alternating order so that drift and warm-up favour neither side.

    Returns (untraced seconds, traced seconds, benchmark's own seconds inside
    the traced part, failures); the traced part of an op runs from the call
    to the end of its check.
    """
    untraced = traced = own = 0.0
    failures = []
    for i in range(count):
        op, argv = ops[i % len(ops)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                rc, out, err, dt = call(cli, argv)
                untraced += dt
                _checked(op, argv, i, rc, out, err, failures)
                continue
            tracer.op = i
            tracer.install()
            try:
                t0 = time.perf_counter()
                rc, out, err, _ = call(cli, argv)
                t_check = time.perf_counter()
                _checked(op, argv, i, rc, out, err, failures)
                t_end = time.perf_counter()
            finally:
                tracer.uninstall()
            traced += t_end - t0
            own += t_end - t_check
    return untraced, traced, own, failures


def set_up(cli, workload, seed, workdir):
    """Generate and write the inputs, and warm up: with the import before
    it, everything paid before the first timed op.  Returns the prepared
    ops and the warm-up's failures."""
    prepared = Prepared(workload, seed, workdir)
    _, _, failures, _ = run_loop(cli, prepared.warm, count=len(prepared.warm))
    for f in failures:
        f["op"] = f"warm-up {f['op']}"
    return prepared, failures


def child_setup_seconds(workload, seed):
    """Import and set_up() timed in a fresh interpreter, so caches start cold:
    {"raw": seconds, "nominal": seconds on the nominal host}."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def environment():
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(), "system": platform.system()}


@contextlib.contextmanager
def _workdir(workload, seed):
    """A private directory for the run's system files, removed afterwards."""
    path = OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns the full result record."""
    refs_before = [reference_seconds() for _ in range(SETUP_REFS)]
    cli = import_program()
    with _workdir(workload, seed) as workdir:
        prepared, failures = set_up(cli, workload, seed, workdir)
        setup_own = setup_seconds(refs_before)
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                  "ops_digest": prepared.digest, "environment": environment()}
        attempted = len(prepared.warm)
        if trace:
            count = TRACE_OPS[workload]
            tracer = tracing.Tracer()
            wall_u, wall_t, own_t, fail_t = trace_loop(cli, prepared.ops, count, tracer)
            attempted += 2 * count
            failures += fail_t
            layer = tracer.layer_self_ns() / 1e9
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics().items()}
            metrics["trace.overhead_ratio"] = {"value": wall_t / wall_u, "unit": "ratio"}
            metrics["trace.unaccounted_share"] = {
                "value": (wall_t - layer - own_t) / wall_t, "unit": "fraction"}
            record.update(ops=count, untraced_wall_s=wall_u, traced_wall_s=wall_t,
                          layer_self_s=layer, bench_own_s=own_t)
            tracer.write_spans(OUT_DIR / f"{workload}-seed{seed}-spans.jsonl")
        else:
            setups = [dict(zip(("raw", "nominal"), setup_own))] + [
                child_setup_seconds(workload, seed) for _ in range(SETUP_RUNS - 1)]
            latencies, refs, fail_run, wall = run_loop(cli, prepared.ops, seconds=seconds)
            attempted += len(latencies)
            failures += fail_run
            lat = sorted(nominal_latencies(latencies, refs))
            raw = sorted(latencies)
            metrics = {
                # one client, closed loop: ops per second of (nominal) op time
                "throughput_ops_per_s": len(lat) / sum(lat),
                "latency_p50_ms": statistics.median(lat) * 1e3,
                "latency_p90_ms": percentile(lat, 0.9) * 1e3,
                "setup_s": statistics.median(s["nominal"] for s in setups),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
            record.update(
                ops=len(lat), wall_s=wall, latency_samples=len(lat), setup_runs_s=setups,
                host_speed=REF_NOMINAL_S / statistics.median(refs),
                raw={"throughput_ops_per_s": len(raw) / wall,
                     "latency_p50_ms": statistics.median(raw) * 1e3,
                     "latency_p90_ms": percentile(raw, 0.9) * 1e3,
                     "setup_s": statistics.median(s["raw"] for s in setups)})
        record.update(attempted=attempted, failed=len(failures),
                      error_rate=len(failures) / attempted, failures=failures,
                      correct=not failures, metrics=metrics)
        return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        refs_before = [reference_seconds() for _ in range(SETUP_REFS)]
        cli = import_program()
        with _workdir(args.workload, args.seed) as workdir:
            set_up(cli, args.workload, args.seed, workdir)
            raw, nominal_s = setup_seconds(refs_before)
            print(json.dumps({"raw": raw, "nominal": nominal_s}))
        return 0

    record = measure(args.workload, args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for f in record["failures"]:
        print(f"FAILED op {f['op']}: {' '.join(f['argv'])}: {f['witness']}")
    print(f"{args.workload} seed={args.seed} ops={record['ops']} "
          f"error_rate={record['error_rate']:.4g} digest={record['ops_digest']}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
