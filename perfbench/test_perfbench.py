"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench

They need no scpir import and run in well under a second.
"""

import os
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ---------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    # 20 samples: the median is the only percentile with 10 beyond it
    assert run.tail_percentile(list(range(1, 21))) == (50, 10)
    # 100 samples: p90 leaves exactly 10 above, p91 only 9
    assert run.tail_percentile(list(range(1, 101))) == (90, 90)
    # 1000 samples: p99 leaves 10 above
    assert run.tail_percentile(list(range(1, 1001))) == (99, 990)


def test_tail_percentile_ignores_order():
    values = [5.0, 1.0, 3.0] * 40
    assert run.tail_percentile(values) == run.tail_percentile(sorted(values))


# -- self time on a synthetic span tree ----------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_a_synthetic_tree():
    # op [0, 20]
    #   retrieve [1, 15]            (recorded)
    #     answer [2, 8]             (hot)
    #       add [3, 5]              (hot)
    #       add [5.5, 7]            (hot)
    #     decode [9, 10]            (hot)
    #   plan [16, 19]               (recorded)
    clock = FakeClock([0, 1, 2, 3, 5, 5.5, 7, 8, 9, 10, 15, 16, 19, 20])
    tracer = spans.Tracer(clock)
    add = tracer.wrap("packets.add", lambda: None, hot=True)

    def answer_body():
        add()
        add()

    answer = tracer.wrap("sfpir.answer", answer_body, hot=True)
    decode = tracer.wrap("sfpir.decode", lambda: None, hot=True)

    def retrieve_body():
        answer()
        decode()

    retrieve = tracer.wrap("scheme.retrieve", retrieve_body)
    plan = tracer.wrap("scheme.plan", lambda: None)

    op = tracer.begin_op(7)
    retrieve()
    plan()
    tracer.end_op(op)

    summary = spans.summarize(tracer.records)
    assert summary["bench.op"] == [1, 20, 20 - 14 - 3]
    assert summary["scheme.retrieve"] == [1, 14, 14 - 6 - 1]
    assert summary["sfpir.answer"] == [1, 6, 6 - 2 - 1.5]
    assert summary["packets.add"] == [2, 3.5, 3.5]
    assert summary["sfpir.decode"] == [1, 1, 1]
    assert summary["scheme.plan"] == [1, 3, 3]
    # self times partition the op's wall time
    assert sum(s for _, _, s in summary.values()) == 20
    layers = spans.layer_self(summary)
    assert layers == {"bench": 3, "scheme": 10, "sfpir": 3.5, "packets": 3.5}
    # every recorded span carries the op id and its parent; hot spans are
    # aggregated into the nearest recorded ancestor
    op_rec, retrieve_rec, plan_rec = tracer.records
    assert [r.op for r in tracer.records] == [7, 7, 7]
    assert retrieve_rec.parent == 0 and plan_rec.parent == 0 and op_rec.parent is None
    assert set(retrieve_rec.agg) == {"sfpir.answer", "packets.add", "sfpir.decode"}


def test_exceptions_are_counted_and_spans_closed():
    clock = FakeClock([0, 1, 2, 3])
    tracer = spans.Tracer(clock)

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("sfpir.decode", boom, hot=True)
    op = tracer.begin_op(0)
    with pytest.raises(KeyError):
        wrapped()
    tracer.end_op(op)
    assert tracer.counts["sfpir.decode.raised.KeyError"] == 1
    assert spans.summarize(tracer.records)["sfpir.decode"] == [1, 1, 1]


def test_instrument_replaces_every_binding_and_restores():
    def original(x):
        return x + 1

    a = SimpleNamespace(f=original, g=original)
    b = SimpleNamespace(alias=original)
    tracer = spans.Tracer()
    undo = spans.instrument(tracer, [a, b], [("lay", a, "f", False, None)])
    assert a.f is a.g is b.alias is not original
    op = tracer.begin_op(0)
    assert b.alias(1) == 2
    tracer.end_op(op)
    spans.restore(undo)
    assert a.f is a.g is b.alias is original
    assert spans.summarize(tracer.records)["lay.f"][0] == 1


# -- the exact-output checks reject wrong outputs --------------------------------


def _layout():
    groups = (SimpleNamespace(packet_bytes=4), SimpleNamespace(packet_bytes=2))
    return SimpleNamespace(m=3, groups=groups)


def test_retrieval_check_rejects_a_corrupted_decode():
    layout = _layout()
    bases = [(0, 1), (2, 2)]  # theta=1: only group 2 has a silent server
    good = SimpleNamespace(decoded_file=b"abcdef", downloaded_symbols=4 * 3 + 2 * 2)
    assert workloads.check_retrieval(good, b"abcdef", layout, 1, bases) == []
    corrupted = SimpleNamespace(decoded_file=b"abcdeg", downloaded_symbols=16)
    assert workloads.check_retrieval(corrupted, b"abcdef", layout, 1, bases)
    overcharged = SimpleNamespace(decoded_file=b"abcdef", downloaded_symbols=18)
    assert workloads.check_retrieval(overcharged, b"abcdef", layout, 1, bases)


def test_fault_check_rejects_an_audit_that_passes_under_a_fault():
    caught = SimpleNamespace(name="privacy", passed=False)
    missed = SimpleNamespace(name="privacy", passed=True)
    assert workloads.check_fault(caught, "privacy") == []
    assert workloads.check_fault(missed, "privacy")
    assert workloads.check_fault(caught, "conditions")


TABLE = """\
check        status  measured                  expected      property
-----------  ------  ------------------------  ------------  --------
storage      pass    0 violations              0 violations  placement
correctness  pass    0 failures in 12 decodes  0 failures    decoding
rate         pass    160/27                    160/27        rate
overall: pass
"""

REFERENCE = {
    "rows": [["storage", "pass", "0 violations"], ["correctness", "pass", "0 failures"],
             ["rate", "pass", "160/27"]],
    "rate": "160/27",
}


def test_audit_table_check_ignores_work_counts_only():
    assert workloads.check_audit_table(0, TABLE, REFERENCE) == []
    fewer_decodes = TABLE.replace("in 12 decodes", "in 3 decodes  ")
    assert workloads.check_audit_table(0, fewer_decodes, REFERENCE) == []
    wrong_rate = TABLE.replace("160/27                    160/27", "161/27                    160/27")
    assert workloads.check_audit_table(0, wrong_rate, REFERENCE)
    failed = TABLE.replace("storage      pass", "storage      FAIL").replace(
        "overall: pass", "overall: FAIL")
    assert workloads.check_audit_table(1, failed, REFERENCE)


def test_witness_check():
    from fractions import Fraction

    third = Fraction(1, 3)
    witness = {(1, 2): third, (2, 3): third, (1, 3): third}
    assert workloads.check_witness(witness, 3, 2, 3) == []
    assert workloads.check_witness({**witness, (1, 2): Fraction(1, 2)}, 3, 2, 3)
    assert workloads.check_witness(witness, 3, 2, 2)
