"""What the benchmark in perfbench/ reads of scpir, checked on every run.

`perfbench/workloads.py` binds scpir functions by name for tracing and
reads fields of its results in its exact-output checks. The benchmark is
often run untraced, so a renamed traced function, or a dropped field that
only a traced count reads, would otherwise show only in a traced run.
These tests import the workloads module as it is, change nothing in it,
and run one op of each workload, untraced and traced.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

LIB = workloads.import_scpir()


def test_every_traced_name_is_callable():
    for layer, module, name, _, _ in workloads.trace_plan(LIB):
        assert callable(getattr(module, name, None)), f"{layer}: {module.__name__}.{name}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_passes_its_checks(name):
    workload = workloads.WORKLOADS[name](LIB, 1)
    _, errors, _ = workload.op(0)
    assert errors == []
    tracer = spans.Tracer()
    undo = spans.instrument(tracer, LIB, workloads.trace_plan(LIB))
    try:
        traced = workloads.run_ops(workload, [0], tracer=tracer)
    finally:
        spans.restore(undo)
    assert (traced["attempted"], traced["failed"], traced["errors"]) == (1, 0, [])
    workloads.layer_metrics(spans.summarize(tracer.records), tracer.counts, 1, 0.0)
