"""The benchmark's ops keep their stdout and exit codes.

For each workload of ``bench/workloads.py``, the first 200 ops at seed 4242
run in process through ``cli.main``, and the sha256 over
``f"{rc}\\n{stdout}\\n"`` of every op, in order, keeps the prefix pinned
here.  A change that alters stdout on purpose updates the pin and says why.
The bench module is only read: it is loaded from its file, without writing
bytecode next to it.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from k3lab import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

PINS = {
    "relation-small-p": "a473d33795208256",
    "relation-large-p": "1178da9ef7c2c2d5",
    "point-count": "91e5b4ccb8555623",
    "overlattice": "ddc677975b2506cf",
}


def load_workloads():
    """``bench/workloads.py`` as a module, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def workloads():
    return load_workloads()


def test_every_workload_is_pinned(workloads):
    assert sorted(workloads.CYCLES) == sorted(PINS)


@pytest.mark.parametrize("workload", sorted(PINS))
def test_bench_op_digest(workloads, workload, tmp_path):
    h = hashlib.sha256()
    for i, op in enumerate(workloads.make_ops(workload, 4242, 200)):
        path = tmp_path / f"op{i}.json"
        if op.system is not None:
            path.write_text(json.dumps(op.system), encoding="utf-8")
        argv = [str(path) if a == workloads.SYSTEM_ARG else a for a in op.argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        h.update(f"{rc}\n{out.getvalue()}\n".encode())
    assert h.hexdigest()[:16] == PINS[workload]
