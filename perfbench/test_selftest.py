"""Self-test of the benchmark's tracing.

    python3 -m pytest -q perfbench/test_selftest.py

For one round of every workload it checks that the traced and untraced
passes give identical outputs, that both match the committed expected
values, and that every wrapper is gone afterwards, so tracing changes no
result.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.pin_blas()

import tracing  # noqa: E402
import workloads  # noqa: E402


def bindings():
    """Identity of every attribute of every longeq module and traced class."""
    out = {}
    for mod in tracing.longeq_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = id(value)
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(mod.__name__, key, attr)] = id(member)
    return out


@pytest.fixture
def workdir():
    os.makedirs(run.WORK, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_changes_no_result(name, workdir):
    ops = run.setup(workloads.WORKLOADS[name], 0, workdir)[0]
    expected = workloads.load_expected(name)

    def one_pass():
        return [workloads.observe(op, *op.run()[1:]) for op in ops]

    plain = one_pass()
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bindings() != before
        traced = one_pass()
    finally:
        left = tracer.remove()

    assert left == []
    assert bindings() == before
    assert traced == plain
    assert all(workloads.matches(expected[op.id], rec) for op, rec in zip(ops, plain))
    assert "cli.main" in tracer.layer_totals()
