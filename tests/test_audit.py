"""The audits must pass on honest schemes and fail on each injected fault."""

import dataclasses
import functools
import hashlib
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scpir import audit, sda
from scpir.audit import (
    conditions_audit,
    correctness_audit,
    privacy_audit,
    queries_duplicate_shift,
    queries_missing_offset,
    rate_audit,
    run_full_audit,
    storage_audit,
    subpacketization_audit,
)
from scpir.cli import ANALYZE_HEADER, analysis_row
from scpir.oracle import min_eta_star
from scpir.scheme import (
    StoragePlan,
    average_download,
    minimal_length,
    plan_storage,
    random_library,
    retrieve,
)
from scpir.sfpir import (
    SILENT,
    Answer,
    GroupStorage,
    answer,
    decode,
    enumerate_realizations,
    make_queries,
)


def build_instance(n, m, k, seed=0, build=sda.build_greedy):
    alpha = sda.alpha_from_profile(sda.column_profile(build(n, m)))
    file_len = minimal_length(n, m)
    layout, plan = plan_storage(alpha, k, file_len)
    return layout, plan, random_library(k, file_len, seed)


class TestPrivacyAudit:
    def test_passes_on_honest_instances(self):
        for n, m, k in [(2, 2, 2), (3, 3, 2), (9, 4, 2)]:
            layout, _, library = build_instance(n, m, k)
            assert privacy_audit(layout, library).passed

    def test_fails_without_query_offset(self):
        for n, m, k in [(2, 2, 2), (11, 5, 2)]:
            layout, _, library = build_instance(n, m, k)
            check = privacy_audit(layout, library, query_fn=queries_missing_offset)
            assert not check.passed, (n, m, k)
            assert "separate requests" in check.detail


@st.composite
def audit_instances(draw):
    """Greedy, equal-size or, where its family holds, improved (N, M, K)
    with 2 <= M <= N <= 10 and M^K <= 10^3."""
    n = draw(st.integers(2, 10))
    m = draw(st.integers(2, n))
    k = draw(st.integers(1, max(k for k in range(1, 10) if m**k <= 10**3)))
    builds = [sda.build_greedy, sda.build_equal_size]
    if sda.improved_family(n, m) is not None:
        builds.append(sda.build_improved)
    build = draw(st.sampled_from(builds))
    return n, m, k, build


@settings(max_examples=25, deadline=None)
@given(audit_instances())
@example((7, 3, 3, sda.build_improved))
@example((9, 4, 2, sda.build_improved))
def test_audits_hold_on_random_layouts(instance):
    n, m, k, build = instance
    layout, plan, library = build_instance(n, m, k, build=build)
    assert privacy_audit(layout, library).passed
    assert correctness_audit(plan, layout, library).passed
    rate = rate_audit(layout, library)
    assert rate.passed
    assert rate.measured == str(average_download(layout, k))
    offset_dropped = privacy_audit(layout, library, query_fn=queries_missing_offset)
    assert offset_dropped.passed == (k == 1)  # one file leaves nothing to separate
    assert conditions_audit(m, k).passed
    assert not conditions_audit(m, k, query_fn=queries_duplicate_shift).passed


def test_audits_hold_on_oracle_witnesses():
    """Every eta* witness with N <= 8 is planned at minimal length with
    exactly eta* groups, and the scheme it gives passes the audits."""
    for n in range(2, 9):
        for m in range(2, n + 1):
            eta, witness = min_eta_star(n, m)
            file_len = minimal_length(n, m)
            layout, plan = plan_storage(sda.AlphaAssignment(n, m, witness), 2, file_len)
            library = random_library(2, file_len, seed=n * 10 + m)
            assert len(layout.groups) == eta, (n, m)
            checks = [
                storage_audit(plan, layout),
                privacy_audit(layout, library),
                correctness_audit(plan, layout, library),
                rate_audit(layout, library),
            ]
            assert [c.name for c in checks if not c.passed] == [], (n, m)


class TestCorrectnessAudit:
    def test_passes_exhaustively(self):
        for n, m, k in [(4, 2, 2), (9, 4, 2), (12, 5, 2)]:
            layout, plan, library = build_instance(n, m, k)
            check = correctness_audit(plan, layout, library)
            assert check.passed, (n, m, k)

    def test_fails_on_bit_flip(self):
        # the first group of one instance, and the last of a multi-group one
        for (n, m, k), last in [((4, 2, 2), False), ((11, 5, 2), True)]:
            layout, plan, library = build_instance(n, m, k)
            target = len(layout.groups) - 1 if last else 0

            def flip(gi, pos, a):
                if gi == target and pos == 0 and not a.silent:
                    return Answer(bytes([a.payload[0] ^ 0x80]) + a.payload[1:])
                return a

            check = correctness_audit(plan, layout, library, tamper=flip)
            assert not check.passed, (n, m, k)
            assert f"group {target} " in check.detail


    def test_silenced_answer_reported_as_protocol_violation(self):
        layout, plan, library = build_instance(4, 2, 2)

        def silence(gi, pos, a):
            return SILENT if gi == 0 and pos == 0 else a

        check = correctness_audit(plan, layout, library, tamper=silence)
        assert not check.passed
        assert check.detail == "file 1 mis-decoded at group 0 base (0, 0) (protocol violation)"

    def test_fails_on_decode_fault_at_one_base(self, monkeypatch):
        # the real-byte rounds all run at base (0, 0), so only the walk
        # over every base on the one-hot basis can see this fault
        layout, plan, library = build_instance(9, 4, 2)
        target = (2, 3)

        def faulty(theta, base, answers):
            packets = decode(theta, base, answers)
            if base == target:
                packets[0] = bytes([packets[0][0] ^ 1]) + packets[0][1:]
            return packets

        monkeypatch.setattr("scpir.audit.decode", faulty)
        check = correctness_audit(plan, layout, library)
        assert not check.passed
        assert f"base {target}" in check.detail

    def test_fails_on_assembled_retrieval(self, monkeypatch):
        # every group round decodes, but the concatenated file is wrong:
        # only the assembled-retrieval comparison can see this fault
        layout, plan, library = build_instance(9, 4, 2)

        def misassembled(*args):
            t = retrieve(*args)
            flipped = bytes([t.decoded_file[0] ^ 1]) + t.decoded_file[1:]
            return dataclasses.replace(t, decoded_file=flipped)

        monkeypatch.setattr("scpir.audit.retrieve", misassembled)
        check = correctness_audit(plan, layout, library)
        assert not check.passed
        assert check.measured.startswith("2 failures in ")
        assert check.detail == "file 1 mis-decoded at assembled retrieval"


class TestRateAudit:
    def test_exact_values(self):
        layout, _, library = build_instance(2, 2, 2)
        check = rate_audit(layout, library)
        assert check.passed
        assert check.measured == str(Fraction(3, 2))
        layout, _, library = build_instance(12, 5, 2)
        check = rate_audit(layout, library)
        assert check.passed
        assert check.measured == str(Fraction(288, 5))  # 48 * (1 + 1/5)

    def test_single_file_rate_one(self):
        layout, _, library = build_instance(6, 3, 1)
        check = rate_audit(layout, library)
        assert check.passed
        assert check.measured == str(Fraction(minimal_length(6, 3)))

    def test_fails_on_dropped_group(self):
        # the layout no longer covers the file: measured and expected must
        # not both shrink with it
        layout, _, library = build_instance(9, 4, 2)
        short = dataclasses.replace(layout, groups=layout.groups[:-1])
        check = rate_audit(short, library)
        assert not check.passed
        assert (check.measured, check.expected) == ("30", str(Fraction(135, 4)))


class TestStorageAudit:
    def test_passes_on_every_plan_to_12(self):
        for n in range(2, 13):
            for m in range(2, n + 1):
                layout, plan, _ = build_instance(n, m, 2)
                assert storage_audit(plan, layout).passed, (n, m)

    def test_extra_holder_breaks_placement(self):
        layout, plan, _ = build_instance(9, 4, 2)
        outsider = next(
            s for s in range(1, 10) if 0 not in plan.per_server[s]
        )
        per = dict(plan.per_server)
        per[outsider] = per[outsider] + (0,)
        bad = StoragePlan(plan.n, plan.m, plan.k, plan.file_len, per, plan.capacity_used)
        check = storage_audit(bad, layout)
        assert not check.passed
        assert "group 0" in check.detail

    def test_capacity_swap_breaks_budget(self):
        # move one group between servers: placement counts stay M but two
        # servers now sit off the exact budget
        layout, plan, _ = build_instance(9, 4, 2)
        donor = next(s for s in range(1, 10) if 1 in plan.per_server[s])
        taker = next(s for s in range(1, 10) if 1 not in plan.per_server[s])
        per = dict(plan.per_server)
        per[donor] = tuple(g for g in per[donor] if g != 1)
        per[taker] = per[taker] + (1,)
        bad = StoragePlan(plan.n, plan.m, plan.k, plan.file_len, per, plan.capacity_used)
        check = storage_audit(bad, layout)
        assert not check.passed
        assert "symbols" in check.detail


@st.composite
def large_greedy_instances(draw):
    """Greedy (N, M) with 2 <= M <= N <= 10^4 and eta*M <= 10^6, K <= 3."""
    n = draw(st.integers(2, 10**4))
    m = draw(st.integers(2, n))
    assume(sda.eta_recursion(n, m) * m <= 10**6)
    return n, m, draw(st.integers(1, 3))


@settings(max_examples=8, deadline=None)
@given(large_greedy_instances())
@example((10**4, 2, 3))
@example((9973, 1000, 2))
def test_greedy_plans_exact_to_10k(instance):
    n, m, k = instance
    array = sda.build_greedy(n, m)
    sda.validate(array)
    profile = sda.column_profile(array)
    assert profile.eta == sda.eta_recursion(n, m)
    alpha = sda.alpha_from_profile(profile)
    alpha.check()
    file_len = minimal_length(n, m)
    layout, plan = plan_storage(alpha, k, file_len)
    budget = Fraction(m * k * file_len, n)
    assert plan.capacity_used == {server: budget for server in range(1, n + 1)}
    assert storage_audit(plan, layout).passed


class TestConditionsAudit:
    def test_passes_on_required_pairs(self):
        for m, k in [(2, 2), (3, 2), (3, 3), (4, 2), (5, 2)]:
            assert conditions_audit(m, k).passed, (m, k)

    def test_fails_on_duplicate_shift(self):
        check = conditions_audit(3, 2, query_fn=queries_duplicate_shift)
        assert not check.passed
        assert "retrieved-independence" in check.detail

    def test_fails_on_shifted_unwanted_coordinate(self):
        for m, k in [(2, 3), (3, 3), (3, 4)]:
            check = conditions_audit(m, k, query_fn=shifted_unwanted)
            assert not check.passed, (m, k)
            assert "residual-identity" in check.detail
            assert check.measured == per_file_violations(m, k, shifted_unwanted), (m, k)

    @pytest.mark.parametrize(
        "m, k",
        [(2, 2), (2, 5), (2, 7), (2, 9), (3, 2), (3, 4), (3, 5), (4, 3), (4, 4), (5, 2), (5, 3),
         (6, 2)],
    )
    def test_count_matches_long_way(self, m, k):
        builders = (make_queries, queries_duplicate_shift, queries_missing_offset, shifted_unwanted)
        for query_fn in builders:
            check = conditions_audit(m, k, query_fn=query_fn)
            assert check.measured == per_file_violations(m, k, query_fn), query_fn.__name__


def shifted_unwanted(theta, base, m):
    """Faulty builder: server 1's coordinate of the file after theta moves by one."""
    queries = make_queries(theta, base, m)
    other = theta % len(base)
    moved = queries[1][:other] + ((queries[1][other] + 1) % m,) + queries[1][other + 1 :]
    return [queries[0], moved] + queries[2:]


def per_file_violations(m, k, query_fn):
    """The conditions count built the long way, sharing nothing with the
    audit but `answer`: its own one-hot basis and walk, every round
    answered afresh, one residual set per unwanted file, and a GF(2) rank
    per distinct row set."""
    width = m - 1
    bits = [(1 << b).to_bytes((k * width + 7) // 8, "little") for b in range(k * width)]
    basis = GroupStorage(m, tuple(tuple(bits[f * width : (f + 1) * width]) for f in range(k)))
    blocks = [((1 << width) - 1) << (f * width) for f in range(k)]

    @functools.cache
    def full_rank(rows):
        """Whether the rows have full rank, eliminating the lowest bit first."""
        rank, left = 0, list(rows)
        for bit in range(k * width):
            pivot = next((r for r in left if r >> bit & 1), None)
            if pivot is not None:
                left.remove(pivot)
                left = [r ^ pivot if r >> bit & 1 else r for r in left]
                rank += 1
        return rank == len(rows)

    def independent(rows):
        """Whether the nonzero rows have full rank; row sets repeat across
        rounds, so each distinct one is ranked once."""
        return full_rank(tuple(r for r in rows if r))

    violations = 0
    for theta in range(1, k + 1):
        for base in enumerate_realizations(m, k):
            replies = [answer(q, basis) for q in query_fn(theta, base, m)]
            rows = [int.from_bytes(a.payload, "little") for a in replies if not a.silent]
            violations += not independent([r & blocks[theta - 1] for r in rows])
            for other in range(1, k + 1):
                if other == theta:
                    continue
                violations += not independent([r & ~blocks[other - 1] for r in rows])
                mask = ~(blocks[theta - 1] | blocks[other - 1])
                violations += len({r & mask for r in rows}) > 1
    return violations


@pytest.mark.parametrize("m, k", [(3, 3), (5, 2)])
def test_round_audits_answer_each_distinct_query_once(monkeypatch, m, k):
    layout, _, library = build_instance(m + 1, m, k)
    runs = {
        "rate": lambda: rate_audit(layout, library),
        "conditions": lambda: conditions_audit(m, k),
    }
    plain = {name: run() for name, run in runs.items()}
    calls = 0

    def counted(query, storage):
        nonlocal calls
        calls += 1
        return answer(query, storage)

    monkeypatch.setattr("scpir.audit.answer", counted)
    for name, run in runs.items():
        calls = 0
        check = run()
        assert calls == m**k, name
        got = (check.passed, check.measured, check.detail)
        assert got == (plain[name].passed, plain[name].measured, plain[name].detail), name


@pytest.mark.parametrize("n, m, k", [(4, 3, 3), (6, 5, 2)])
def test_full_audit_answers_each_distinct_query_once(monkeypatch, n, m, k):
    # privacy, correctness, rate and conditions share one walk, so the
    # M^K distinct queries are answered once in all
    plain = run_full_audit(n, m, k).table()
    calls = 0

    def counted(query, storage):
        nonlocal calls
        calls += 1
        return answer(query, storage)

    monkeypatch.setattr("scpir.audit.answer", counted)
    assert run_full_audit(n, m, k).table() == plain
    assert calls == m**k


class TestSubpacketizationAudit:
    def as_map(self, n, m):
        return {c.name: c for c in subpacketization_audit(n, m)}

    def test_12_5(self):
        checks = self.as_map(12, 5)
        assert checks["equal-size-subpacketization"].measured == 48
        assert checks["greedy-subpacketization"].measured == 24
        assert checks["gap-bound"].measured == str(Fraction(2))  # 24 / 12
        assert checks["gap-bound"].expected == "<= 5"
        assert all(c.passed for c in checks.values())
        assert "optimal-case" not in checks  # min(5,7)=5 does not divide 12

    def test_12_4_optimal_case(self):
        checks = self.as_map(12, 4)
        assert checks["greedy-subpacketization"].measured == 9  # 3 groups x 3 packets
        assert checks["optimal-case"].passed

    def test_full_replication(self):
        checks = self.as_map(7, 7)
        assert checks["greedy-subpacketization"].measured == 6
        assert checks["optimal-case"].measured == 6  # N-1 meets the floor

    @pytest.mark.parametrize(
        "n, m, target, stand_in, name, measured, expected",
        [
            (12, 5, "build_greedy", "build_equal_size", "greedy-subpacketization", 48, 24),
            (12, 5, "build_equal_size", "build_greedy", "equal-size-subpacketization", 24, 48),
            (11, 5, "build_improved", "build_greedy", "improved-subpacketization", 28, 24),
        ],
    )
    def test_fails_on_swapped_builder(
        self, monkeypatch, n, m, target, stand_in, name, measured, expected
    ):
        monkeypatch.setattr(sda, target, getattr(sda, stand_in))
        check = self.as_map(n, m)[name]
        assert (check.passed, check.measured, check.expected) == (False, measured, expected)


@st.composite
def subpacketization_params(draw):
    """2 <= M <= N <= 300, half of them N = d*M +/- 1 with M >= 3, d >= 2."""
    if draw(st.booleans()):
        m = draw(st.integers(3, 150))
        d = draw(st.integers(2, 301 // m))
        n = d * m + draw(st.sampled_from((1, -1)))
        assume(n <= 300)
        return n, m
    n = draw(st.integers(2, 300))
    return n, draw(st.integers(2, n))


@settings(max_examples=50, deadline=None)
@given(subpacketization_params())
def test_closed_forms_match_built_arrays_to_300(params):
    n, m = params
    checks = subpacketization_audit(n, m)
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    row = dict(zip(ANALYZE_HEADER.split(","), analysis_row(n, m)))
    builders = {"eta_equal": sda.build_equal_size, "eta_greedy": sda.build_greedy}
    if sda.improved_family(n, m) is not None:
        builders["eta_improved"] = sda.build_improved
    for cell, build in builders.items():
        assert row[cell] == str(sda.column_profile(build(n, m)).eta), cell


class TestFullAudit:
    def test_overall_pass_and_determinism(self):
        first = run_full_audit(9, 4, 2, seed=3)
        second = run_full_audit(9, 4, 2, seed=3)
        assert first.overall
        assert first.table() == second.table()

    def test_table_lists_each_failure_detail(self):
        layout, plan, library = build_instance(2, 2, 2)
        failed = privacy_audit(layout, library, query_fn=queries_missing_offset)
        report = audit.AuditReport([storage_audit(plan, layout), failed])
        lines = report.table().splitlines()
        assert lines[-2:] == [f"  privacy: {failed.detail}", "overall: FAIL"]
        assert not report.overall

    @pytest.mark.parametrize(
        "n, m, k, digest",
        [
            (6, 3, 4, "fa7f372bfd9ca411fcde240022857924ff46507ea784d477422a523bdb313ac3"),
            (11, 5, 4, "81fe3b354102a44ea05640932a4ef0b324b2ffb2d8fbe75cd1d270f45c22d952"),
            (8, 3, 6, "384ee917a974d71bf4746fed6f72ef49f69487bdb049d8206eac3f62caaf6ef2"),
            (7, 7, 2, "7e78f203d069d61bee3ee4274f2e3e73de924d9143e39820e61ceab4a540f7d9"),
            (12, 4, 2, "57d622046e1e05411e78636bee592461d0befdd907053a9702b1a6afde34d9b1"),
            (2, 2, 2, "14f452d8d95228f6737bb230f793a183817f589e6123c7e52d2427ad4711ba08"),
            (5, 2, 3, "c1b0b704dbc6d825042ca99c2b099334a22378ee75e2266bee1234c30c34171f"),
        ],
    )
    def test_table_is_pinned(self, n, m, k, digest):
        # every byte of the report, measured values and details included
        table = run_full_audit(n, m, k, seed=1).table()
        assert hashlib.sha256(table.encode()).hexdigest() == digest

    def test_rejects_single_server_budget(self):
        with pytest.raises(ValueError):
            run_full_audit(5, 1, 2)
