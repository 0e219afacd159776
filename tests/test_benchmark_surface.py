"""The benchmark under ``perfbench/`` reaches the library by name: its
tracer wraps every function that ``tracer.TARGETS`` lists and reads
results in its counters (``StableHomPresentation.element_count``, for
one), and its workload generator calls ``linalg.det`` and
``linalg.inverse`` on the dense changes of basis of seed 1.  This guard
installs the tracer, generates every workload at seed 1 and runs every
check on each bundle, so a change to the library that removes or
renames one of those names fails here.  It only imports from
``perfbench/`` and writes nothing there.
"""

import sys
from pathlib import Path

import pytest

from symorders import cli, linalg
from symorders.bundle import bundle_from_dict

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    path, bytecode = str(BENCH), sys.dont_write_bytecode
    sys.path.insert(0, path)
    sys.dont_write_bytecode = True
    try:
        import tracer
        import workloads
    finally:
        sys.dont_write_bytecode = bytecode
    yield tracer, workloads
    sys.path.remove(path)


def test_the_tracer_wraps_every_target_while_every_workload_generates(bench):
    tracer, workloads = bench
    spans = tracer.Tracer()
    spans.install()
    try:
        reports = {}
        for workload in workloads.WORKLOADS:
            docs = workloads.generate(workload, 1)
            assert docs
            for name, doc in docs:
                reports[workload, name] = cli.run("all", bundle_from_dict(doc))
    finally:
        spans.uninstall()
    assert [key for key, report in reports.items() if not report.ok] == []
    stats = spans.stats
    assert stats["linalg.det"].calls and stats["linalg.inverse"].calls
    assert stats["lattices.stable_socle_property"].counts["classes"]
    assert not any(layer.errors for layer in stats.values())
    assert linalg.det is spans.original("linalg.det")
    assert linalg.inverse is spans.original("linalg.inverse")
