"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests
"""

import copy
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CLI = run.import_program()


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Runs of a handful of ops, writing into a temporary directory."""
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "MIN_OPS", 2)
    monkeypatch.setattr(run, "TRACE_OPS", dict.fromkeys(WORKLOADS, 2))
    return tmp_path


def _last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(workloads.CYCLES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, tiny, capsys):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0"]
    assert run.main(argv + ["--trace", "0"]) == 0
    line = _last_line(capsys)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    record = json.loads((tiny / f"{workload}-seed7-trace0.json").read_text())
    assert record["ops"] == 2 and record["error_rate"] == 0
    assert len(record["setup_runs_s"]) == run.SETUP_RUNS

    assert run.main(argv + ["--trace", "1"]) == 0
    line = _last_line(capsys)
    assert line["correct"] is True
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # layer self times plus the benchmark's own time cover the traced wall
    assert abs(line["metrics"]["trace.unaccounted_share"]["value"]) < 0.05
    assert (tiny / f"{workload}-seed7-spans.jsonl").stat().st_size > 0


def test_ops_are_a_function_of_the_seed():
    for wl in WORKLOADS:
        a, b = workloads.make_ops(wl, 5, 30), workloads.make_ops(wl, 5, 30)
        assert workloads.ops_digest(a) == workloads.ops_digest(b)
        assert workloads.ops_digest(a) != workloads.ops_digest(workloads.make_ops(wl, 6, 30))


def _first(workload, kind, **want):
    for op in workloads.make_ops(workload, 11, 60):
        if op.kind == kind and all(getattr(op, k) == v for k, v in want.items()):
            return op
    raise LookupError(kind)


def _output(op, tmp_path):
    path = tmp_path / "system.json"
    if op.system is not None:
        path.write_text(json.dumps(op.system))
    argv = [str(path) if a == workloads.SYSTEM_ARG else a for a in op.argv]
    rc, out, _, _ = run.call(CLI, argv)
    assert workloads.check(op, rc, out) is None, out
    return json.loads(out)


def _rejects(op, out, corrupt):
    bad = copy.deepcopy(out)
    corrupt(bad)
    return workloads.check(op, 0, json.dumps(bad)) is not None


def test_verify_checker_rejects_corrupted_output(tmp_path):
    for case in ("pencil", "net"):
        op = _first("relation-small-p", "verify", case=case, p=7)
        out = _output(op, tmp_path)
        assert _rejects(op, out, lambda d: d.update(c=d["c"] + 1))
        assert _rejects(op, out, lambda d: d.update(passed=d["passed"] - 1))
        assert _rejects(op, out, lambda d: d.update(failed=[{"index": 0}]))
        assert workloads.check(op, 3, json.dumps(out)) is not None


def test_invariance_checker_rejects_corrupted_output(tmp_path):
    op = _first("relation-small-p", "invariance")
    out = _output(op, tmp_path)
    assert _rejects(op, out, lambda d: d.update(t_invariant=False))
    assert _rejects(op, out, lambda d: d.update(b_invariant=False))


def test_count_checker_rejects_corrupted_output(tmp_path):
    op = _first("point-count", "count", p=11)
    out = _output(op, tmp_path)
    assert _rejects(op, out, lambda d: d.update(twist_consistent=False))
    assert _rejects(op, out, lambda d: d.update(pencil_points=11 + 1 + 7))  # beyond 2*sqrt(11)


def test_overlattice_checker_rejects_corrupted_output(tmp_path):
    op = _first("overlattice", "overlattice")
    out = _output(op, tmp_path)
    assert _rejects(op, out, lambda d: d.update(det=1))
    assert _rejects(op, out, lambda d: d.update(even=False))
    assert _rejects(op, out, lambda d: d.update(signature=[19, 3]))


def test_probe_checker_rejects_corrupted_output(tmp_path):
    op = _first("point-count", "probe", diagonal=True)
    out = _output(op, tmp_path)
    assert out["status"] == "singular"
    assert _rejects(op, out, lambda d: d.update(status="probably-smooth"))
    assert _rejects(op, out, lambda d: d["witness"].update(p=d["witness"]["p"] + 2))
    # Move the witness off the singular locus: at (1, 0, 0) the sextic of
    # the builtin diagonal net is prod(G1[i][i]) = 1.
    builtin = json.loads((BENCH.parent / "src/k3lab/data/net-diagonal.json").read_text())
    assert workloads.sextic_singularity_defect(builtin["net"], [1, 0, 0], 43) == "f"
    moved = workloads.Op("probe", op.argv, builtin, p=43, case="net", diagonal=True)
    bad = {"primes": [43], "status": "singular", "witness": {"p": 43, "point": [1, 0, 0]}}
    assert workloads.check(moved, 0, json.dumps(bad)) is not None


def test_tracer_restores_the_program_and_passes_exceptions_through():
    from k3lab import construction, errors, quadforms, scalars
    before = (construction.express_as_pfaffian, quadforms.QuadraticForm.eval,
              scalars.projective_points, CLI.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert construction.express_as_pfaffian is not before[0]
        gf = scalars.GF(7)
        q = quadforms.QuadraticForm([[gf.one if i == j else gf.zero for j in range(6)]
                                     for i in range(6)], gf)
        with pytest.raises(errors.PreconditionError):
            quadforms.express_as_2x2_det(q)  # six variables: rejected, not swallowed
        assert len(list(scalars.projective_points(gf, 1))) == 8
    finally:
        tracer.uninstall()
    assert (construction.express_as_pfaffian, quadforms.QuadraticForm.eval,
            scalars.projective_points, CLI.main) == before
    totals = tracer.totals()
    assert totals["quadforms.express"][3] == 1           # one raised call
    assert totals["scalars.projective_points"][0] == 9   # 8 items and the stop


def _record(workload, seed, values):
    return {"workload": workload, "seed": seed, "trace": 0, "ops_digest": "d",
            "metrics": {m["name"]: {"value": v, "unit": m["unit"]}
                        for m, v in zip(SPEC["end_to_end"], values)}}


def _write(dirpath, records):
    dirpath.mkdir()
    for r in records:
        (dirpath / f"{r['workload']}-seed{r['seed']}-trace0.json").write_text(json.dumps(r))


def test_compare_verdicts(tmp_path):
    wl = WORKLOADS[0]
    base = [10.0, 100.0, 200.0, 1.0, 30.0]
    parent = [_record(wl, s, [v * (1 + 0.01 * (s % 3)) for v in base]) for s in range(10)]
    # throughput doubles, p50 halves, p90 unchanged, set-up 40% slower, memory noisy
    change = [_record(wl, s, [20.0 + 0.01 * s, 50.0 + 0.01 * s, 200.0 * (1 + 0.01 * ((s + 1) % 3)),
                              1.4, 30.0 * (1 + 0.01 * ((s + 2) % 3))]) for s in range(10)]
    _write(tmp_path / "p", parent)
    _write(tmp_path / "c", change)
    v = compare.compare(tmp_path / "p", tmp_path / "c", out=io.StringIO())
    assert v[(wl, "throughput_ops_per_s")] == "better"
    assert v[(wl, "latency_p50_ms")] == "better"
    assert v[(wl, "latency_p90_ms")] == "unchanged"
    assert v[(wl, "setup_s")] == "worse"
    assert v[(wl, "peak_rss_mib")] == "unchanged"


def test_compare_reports_unresolved_when_spread_exceeds_bound(tmp_path):
    wl = WORKLOADS[0]
    noisy = [_record(wl, s, [10.0 * (0.6 if s % 2 else 1.4), 100, 200, 1, 30]) for s in range(10)]
    same = [_record(wl, s, [10.0 * (1.3 if s % 2 else 0.7), 100, 200, 1, 30]) for s in range(10)]
    _write(tmp_path / "p", noisy)
    _write(tmp_path / "c", same)
    v = compare.compare(tmp_path / "p", tmp_path / "c", out=io.StringIO())
    assert v[(wl, "throughput_ops_per_s")] == "unresolved"
