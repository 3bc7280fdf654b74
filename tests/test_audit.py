"""The audits must pass on honest schemes and fail on each injected fault."""

import dataclasses
import functools
import hashlib
import re
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

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

    def test_names_the_leaking_position(self):
        layout, _, library = build_instance(4, 3, 3)
        check = privacy_audit(layout, library, query_fn=leak_at_server_1)
        assert (check.passed, check.measured) == (False, 2)  # position 1, files 2 and 3
        assert check.detail.startswith("the server at position 1 of every group")


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


@st.composite
def switched_arrays(draw):
    """A built (N, M) array with N <= 9 (equal-size, greedy or, where its
    family holds, improved) after random degree-keeping switches, and K <= 3
    with M^K <= 200. A switch swaps server a of column c1 with server b of
    column c2 when neither column already holds the other server, so every
    column keeps M servers and every server its number of columns."""
    n = draw(st.integers(2, 9))
    m = draw(st.integers(2, n))
    builds = [sda.build_greedy, sda.build_equal_size]
    if sda.improved_family(n, m) is not None:
        builds.append(sda.build_improved)
    columns = [set(c) for c in draw(st.sampled_from(builds))(n, m).column_sets]
    for _ in range(draw(st.integers(0, 8))):
        c1, c2 = (draw(st.integers(0, len(columns) - 1)) for _ in range(2))
        a = draw(st.sampled_from(sorted(columns[c1])))
        b = draw(st.sampled_from(sorted(columns[c2])))
        if a not in columns[c2] and b not in columns[c1]:
            columns[c1] ^= {a, b}
            columns[c2] ^= {a, b}
    k = draw(st.integers(1, max(k for k in (1, 2, 3) if m**k <= 200)))
    return n, m, tuple(tuple(sorted(c)) for c in columns), k


@settings(max_examples=50, deadline=None)
@given(switched_arrays())
def test_any_sda_passes_the_protocol_audits(drawn):
    # the paper's claim: any SDA gives a capacity-achieving scheme
    n, m, columns, k = drawn
    array = sda.StorageDesignArray(n, m, columns)
    report = run_full_audit(*build_instance(n, m, k, build=lambda n, m: array))
    assert report.overall, report.table()


def test_audits_hold_on_oracle_witnesses():
    """Every eta* witness with N <= 8 is planned at minimal length with
    exactly eta* groups, and the scheme it gives passes the full audit."""
    for n in range(2, 9):
        for m in range(2, n + 1):
            eta, witness = min_eta_star(n, m)
            file_len = minimal_length(n, m)
            layout, plan = plan_storage(sda.AlphaAssignment(n, m, witness), 2, file_len)
            library = random_library(2, file_len, seed=n * 10 + m)
            assert len(layout.groups) == eta, (n, m)
            report = run_full_audit(layout, plan, library)
            assert report.overall, (n, m, report.table())


@pytest.mark.parametrize("n, m", [(9, 4), (11, 5), (13, 4)])
def test_full_audit_passes_on_improved_schemes(n, m):
    # the improved array has fewer groups than greedy's, and its scheme
    # passes every audit
    layout, plan, library = build_instance(n, m, 3, build=sda.build_improved)
    assert len(layout.groups) < sda.eta_recursion(n, m)
    report = run_full_audit(layout, plan, library)
    assert report.overall, report.table()


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

    @staticmethod
    def with_servers(layout, gi, servers):
        """The layout with region gi held by `servers` instead."""
        groups = list(layout.groups)
        groups[gi] = dataclasses.replace(groups[gi], servers=servers)
        return dataclasses.replace(layout, groups=tuple(groups))

    def test_extra_holder_breaks_placement(self):
        layout, plan, _ = build_instance(9, 4, 2)
        servers = layout.groups[0].servers
        outsider = next(s for s in range(1, 10) if s not in servers)
        check = storage_audit(plan, self.with_servers(layout, 0, servers + (outsider,)))
        assert not check.passed
        assert "group 0" in check.detail

    def test_capacity_swap_breaks_budget(self):
        # hand one server's share of a group to another: placement counts
        # stay M but two servers now sit off the exact budget
        layout, plan, _ = build_instance(9, 4, 2)
        servers = layout.groups[1].servers
        taker = next(s for s in range(1, 10) if s not in servers)
        check = storage_audit(plan, self.with_servers(layout, 1, servers[1:] + (taker,)))
        assert not check.passed
        assert "group" not in check.detail
        assert "symbols" in check.detail

    def test_server_named_twice_breaks_placement(self):
        # the region still names M servers, and the plan is left as built
        layout, plan, _ = build_instance(9, 4, 2)
        servers = layout.groups[2].servers
        check = storage_audit(plan, self.with_servers(layout, 2, servers[:1] + servers[:-1]))
        assert not check.passed
        assert "group 2" in check.detail


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
        [(2, 1), (3, 1), (5, 1), (2, 2), (2, 5), (2, 7), (2, 9), (3, 2), (3, 4), (3, 5), (4, 3),
         (4, 4), (5, 2), (5, 3), (6, 2)],
    )
    def test_count_matches_long_way(self, monkeypatch, m, k):
        # and the whole-file exit hides nothing: with every file read round
        # by round, each builder gets the same check
        builders = (make_queries, queries_duplicate_shift, queries_missing_offset, shifted_unwanted,
                    duplicate_and_shifted, interference_twice)
        for query_fn in builders:
            check = conditions_audit(m, k, query_fn=query_fn)
            assert check.measured == per_file_violations(m, k, query_fn), query_fn.__name__
            with monkeypatch.context() as patch:
                patch.setattr(audit._Conditions, "_clean", lambda *args: False)
                slow = conditions_audit(m, k, query_fn=query_fn)
            got = (slow.passed, slow.measured, slow.detail)
            assert got == (check.passed, check.measured, check.detail), query_fn.__name__

    def test_faulty_answer_breaks_only_retrieved_independence(self, monkeypatch):
        # with an honest `answer` every wanted row is 0 or one bit, so only a
        # faulty one separates `_clean`'s retrieved elimination from its
        # tagged one: file 1's index 2 reads packets 0 XOR 1 and its virtual
        # index reads packet 2, so its wanted rows are dependent while
        # every wanted row | fresh is not
        def mixed(query, storage):
            rest = answer((3,) + query[1:], storage).value or 0
            for i in {0: (0,), 1: (1,), 2: (0, 1), 3: (2,)}[query[0]]:
                rest ^= int.from_bytes(storage.packets[0][i], "little")
            return Answer(rest, storage.size)

        monkeypatch.setattr(audit, "answer", mixed)
        check = conditions_audit(4, 2)
        assert (check.measured, check.detail) == (32, "retrieved-independence violated for file 1, base (0, 0)")
        monkeypatch.setattr(audit._Conditions, "_clean", lambda *args: False)
        slow = conditions_audit(4, 2)
        assert (slow.measured, slow.detail) == (check.measured, check.detail)

    @pytest.mark.parametrize("m, k, count", [(2, 2, 2), (3, 2, 9), (2, 3, 12), (3, 3, 54)])
    def test_spare_bit_breaks_residual_identity(self, monkeypatch, m, k, count):
        # `Answer` takes any value that fits its whole bytes, so a faulty
        # `answer` can set bit K*(M-1), above every coefficient block: a
        # row holding it differs from its round's other rows outside every
        # pair of blocks, so the whole-file check must not clear the file
        def spare(query, storage):
            reply = answer(query, storage)
            if reply.value is None or query[0]:
                return reply
            return Answer(reply.value | 1 << k * (m - 1), reply.size)

        monkeypatch.setattr(audit, "answer", spare)
        expected = (count, f"residual-identity violated for file 1, base {(0,) * k}")
        check = conditions_audit(m, k)
        assert (check.measured, check.detail) == expected
        monkeypatch.setattr(audit._Conditions, "_clean", lambda *args: False)
        slow = conditions_audit(m, k)
        assert (slow.measured, slow.detail) == expected

    @pytest.mark.parametrize("m, k", [(2, 2), (2, 5), (3, 2), (3, 4), (4, 3), (5, 2), (6, 2), (7, 2)])
    def test_only_a_faulty_file_is_read_round_by_round(self, monkeypatch, m, k):
        # at K >= 2 the whole-file statistics clear every honest file, on
        # both position routes, so a whole-file check that always fell back
        # to the round loop fails here; the faulty builders do fall back.
        # Moving an unwanted coordinate breaks residual identity only where
        # a third file holds a residual
        read = []
        rounds = audit._rounds
        monkeypatch.setattr(audit, "_rounds", lambda *args: read.append(args) or rounds(*args))
        for query_fn in (None, make_queries):
            assert conditions_audit(m, k, query_fn=query_fn).passed
            assert not read, query_fn
        for query_fn in (queries_duplicate_shift, shifted_unwanted)[: 1 + (k > 2)]:
            assert not conditions_audit(m, k, query_fn=query_fn).passed, query_fn.__name__
            assert read, query_fn.__name__
            read.clear()


def shifted_unwanted(theta, base, m):
    """Faulty builder: server 1's coordinate of the file after theta moves by one."""
    queries = make_queries(theta, base, m)
    other = theta % len(base)
    moved = queries[1][:other] + ((queries[1][other] + 1) % m,) + queries[1][other + 1 :]
    return [queries[0], moved] + queries[2:]


def duplicate_and_shifted(theta, base, m):
    """Faulty builder: `shifted_unwanted`'s queries, with server 2 sent
    server 0's query, so residual identity fails in rounds whose kept rows
    are also dependent. At M = 2 there is no server 2 and the queries are
    `shifted_unwanted`'s."""
    queries = shifted_unwanted(theta, base, m)
    return queries[:2] + queries[:1] + queries[3:] if m > 2 else queries


def interference_twice(theta, base, m):
    """Faulty builder: the server after the holder, whose coordinate of
    theta lands on M-1, is sent the holder's query too, so the interference
    term is sent twice and packet 0 of file theta is never served. The
    nonzero wanted rows stay independent: only the repeated zero wanted
    row breaks independence, of the kept rows where a third file holds a
    residual, so `_clean`'s tagged elimination alone must catch it."""
    queries = make_queries(theta, base, m)
    holder = (m - 1 - base[theta - 1]) % m
    queries[(holder + 1) % m] = queries[holder]
    return queries


def leak_at_server_1(theta, base, m):
    """Faulty builder: only server 1 sees the bare base with the wanted
    coordinate zeroed."""
    queries = make_queries(theta, base, m)
    queries[1] = base[: theta - 1] + (0,) + base[theta:]
    return queries


@functools.cache
def full_rank(rows, bits):
    """Whether the nonzero rows have full rank, eliminating the lowest of
    `bits` bits first. Row sets repeat across rounds, builders and shapes,
    so the one cache ranks each distinct (rows, bits) once per session."""
    left = [r for r in rows if r]
    rank, size = 0, len(left)
    for bit in range(bits):
        pivot = next((r for r in left if r >> bit & 1), None)
        if pivot is not None:
            left.remove(pivot)
            left = [r ^ pivot if r >> bit & 1 else r for r in left]
            rank += 1
    return rank == size


def per_file_violations(m, k, query_fn):
    """The conditions count built the long way, sharing nothing with the
    audit but `answer`: its own one-hot basis and walk, every round
    answered afresh, one residual set per unwanted file, and a GF(2) rank
    per distinct row set."""
    width = m - 1
    bits = [(1 << b).to_bytes((k * width + 7) // 8, "little") for b in range(k * width)]
    basis = GroupStorage(m, tuple(tuple(bits[f * width : (f + 1) * width]) for f in range(k)))
    blocks = [((1 << width) - 1) << (f * width) for f in range(k)]

    def independent(rows):
        """Whether the nonzero rows have full rank."""
        return full_rank(tuple(rows), k * width)

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


def privacy_mismatches(m, k, query_fn):
    """The privacy verdicts built the long way, sharing nothing with the
    audit's walk: a `Counter` of the query tuples each server position
    receives for each file over `enumerate_realizations`, and every
    (position, file) pair whose Counter differs from file 1's, in the
    order the audit reports them."""
    views = {theta: [Counter() for _ in range(m)] for theta in range(1, k + 1)}
    for theta, view in views.items():
        for base in enumerate_realizations(m, k):
            for pos, query in enumerate(query_fn(theta, base, m)):
                view[pos][query] += 1
    return [(pos, theta) for theta in range(2, k + 1) for pos in range(m)
            if views[theta][pos] != views[1][pos]]


@pytest.mark.parametrize("m, k", [(2, 1), (3, 1), (5, 1), (2, 3), (3, 3), (4, 2), (3, 4)])
def test_privacy_count_matches_long_way(m, k):
    layout, _, library = build_instance(m + 1, m, k)
    builders = (make_queries, queries_missing_offset, queries_duplicate_shift, shifted_unwanted,
                leak_at_server_1)
    first = "the server at position {} of every group can separate requests for file 1 and file {}"
    for query_fn in builders:
        check = privacy_audit(layout, library, query_fn=query_fn)
        pairs = privacy_mismatches(m, k, query_fn)
        assert (check.passed, check.measured) == (not pairs, len(pairs)), query_fn.__name__
        assert check.detail == (first.format(*pairs[0]) if pairs else ""), query_fn.__name__


@pytest.mark.parametrize("m, k", [(3, 3), (5, 2)])
def test_round_audits_answer_each_distinct_query_once(monkeypatch, m, k):
    layout, plan, library = build_instance(m + 1, m, k)
    runs = {
        "privacy": lambda: privacy_audit(layout, library),
        "correctness": lambda: correctness_audit(plan, layout, library),
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
    plain = run_full_audit(*build_instance(n, m, k, 0)).table()
    calls = 0

    def counted(query, storage):
        nonlocal calls
        calls += 1
        return answer(query, storage)

    monkeypatch.setattr("scpir.audit.answer", counted)
    assert run_full_audit(*build_instance(n, m, k, 0)).table() == plain
    assert calls == m**k


class Recorder:
    """A fold that keeps every `close` call: a copy of the file's positions
    and the walk's table of replies itself."""

    def __init__(self):
        self.closes = []

    def close(self, theta, m, positions, replies):
        self.closes.append((theta, m, list(positions), replies))

    def finish(self):
        return self


def check_closes(closes, query_fn, m, k):
    """Each file reached `close` once, file after file, with the positions
    in `enumerate_realizations` order of the queries `query_fn` sends for
    it, in round order, M per round, and with the walk's one table of M^K
    replies, whose entry at each of those positions answers its query."""
    assert [theta for theta, *_ in closes] == list(range(1, k + 1))
    basis = audit._basis(m, k)
    index = {q: i for i, q in enumerate(enumerate_realizations(m, k))}
    table = closes[0][3]
    assert len(table) == m**k
    for theta, got_m, positions, replies in closes:
        queries = [q for base in enumerate_realizations(m, k) for q in query_fn(theta, base, m)]
        assert got_m == m
        assert replies is table
        assert positions == [index[q] for q in queries]
        assert [replies[i] for i in positions] == [answer(q, basis) for q in queries]


@pytest.mark.parametrize("m, k", [(2, 3), (3, 2), (4, 1), (3, 3), (2, 5), (4, 3)])
def test_walk_hands_each_file_to_close_after_its_rounds(m, k):
    # the honest route's positions are `make_queries`'; theta runs from one
    # block (theta = 1) to stride 1 (theta = K) of its table
    check_closes(audit._walk(m, k, [Recorder()])[0].closes, make_queries, m, k)


@pytest.mark.parametrize("query_fn", [queries_duplicate_shift, queries_missing_offset])
def test_builder_route_hands_folds_the_positions_sent(query_fn):
    # a builder's queries reach `close` as their positions, in the order
    # the builder sent them
    check_closes(audit._walk(3, 3, [Recorder()], query_fn)[0].closes, query_fn, 3, 3)


@settings(max_examples=6, deadline=None)
@given(st.integers(2, 7), st.integers(1, 6))
def test_table_and_builder_routes_hand_folds_equal_lists(m, k):
    # the honest route and the builder route of an equal builder must
    # close every file with equal positions and tables, each answering
    # every query once
    assume(k * m ** (k + 1) <= audit.MAX_REALIZATIONS)
    calls = 0

    def counted(query, storage):
        nonlocal calls
        calls += 1
        return answer(query, storage)

    closes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("scpir.audit.answer", counted)
        for query_fn in (None, lambda t, b, m: make_queries(t, b, m)):
            calls = 0
            closes.append(audit._walk(m, k, [Recorder()], query_fn)[0].closes)
            assert calls == m**k
    assert closes[0] == closes[1]


@pytest.mark.parametrize("m, k", [(2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_rate_count_over_builder_routes_matches_long_way(m, k):
    # rate counts a file's positions less the table's silent ones, each as
    # often as the file sends it: at M = 2 a duplicate shift sends the
    # silent query to both servers of the round at base (1,)*K
    layout, _, _ = build_instance(m + 1, m, k)
    basis = audit._basis(m, k)
    for query_fn in (make_queries, queries_missing_offset, queries_duplicate_shift, shifted_unwanted):
        fold = audit._Rate(layout, k)
        audit._walk(m, k, [fold], query_fn)
        sent = {theta: sum(not answer(q, basis).silent
                           for base in enumerate_realizations(m, k) for q in query_fn(theta, base, m))
                for theta in range(1, k + 1)}
        assert dict(fold.sent) == sent, query_fn.__name__


def queries_one_short(theta, base, m):
    """Faulty builder: the last server gets no query."""
    return make_queries(theta, base, m)[:-1]


def queries_one_extra(theta, base, m):
    """Faulty builder: server 0's query is sent twice."""
    queries = make_queries(theta, base, m)
    return queries + queries[:1]


def queries_off_by_one_twice(theta, base, m):
    """Faulty builder: file 2 gets one query short at base (1, 0) and one
    extra at (1, 2), so the file's total is still M per round."""
    queries = make_queries(theta, base, m)
    if theta == 2 and base == (1, 0):
        return queries[:-1]
    if theta == 2 and base == (1, 2):
        return queries + queries[:1]
    return queries


@pytest.mark.parametrize(
    "query_fn, refused",
    [
        (queries_one_short, "gave 2 queries for file 1 at base (0, 0), not M=3"),
        (queries_one_extra, "gave 4 queries for file 1 at base (0, 0), not M=3"),
        (queries_off_by_one_twice, "gave 2 queries for file 2 at base (1, 0), not M=3"),
    ],
)
def test_walk_refuses_a_round_of_other_than_m_queries(query_fn, refused):
    # the folds regroup each file's lists M at a time, so a round of M - 1
    # or M + 1 queries must stop the walk, naming the file and the base
    layout, _, library = build_instance(4, 3, 2)
    with pytest.raises(ValueError, match=re.escape(refused)):
        privacy_audit(layout, library, query_fn=query_fn)
    with pytest.raises(ValueError, match=re.escape(refused)):
        conditions_audit(3, 2, query_fn=query_fn)


def queries_as_lists(theta, base, m):
    """Faulty builder: every query is a list, which cannot be hashed."""
    return [list(q) for q in make_queries(theta, base, m)]


def queries_one_list(theta, base, m):
    """Faulty builder: server 1's query for file 2 at base (1, 2) is a list."""
    queries = make_queries(theta, base, m)
    if theta == 2 and base == (1, 2):
        queries[1] = list(queries[1])
    return queries


@pytest.mark.parametrize(
    "query_fn, refused",
    [
        (queries_as_lists, "gave a query other than a tuple for file 1 at base (0, 0)"),
        (queries_one_list, "gave a query other than a tuple for file 2 at base (1, 2)"),
    ],
)
def test_walk_refuses_a_query_other_than_a_tuple(query_fn, refused):
    # the walk looks each query up by its hash, so a list query must stop
    # the walk with the file and the base, not an unhashable-type TypeError
    layout, _, library = build_instance(4, 3, 2)
    with pytest.raises(ValueError, match=re.escape(refused)):
        privacy_audit(layout, library, query_fn=query_fn)
    with pytest.raises(ValueError, match=re.escape(refused)):
        conditions_audit(3, 2, query_fn=query_fn)


def queries_entry_m(theta, base, m):
    """Faulty builder: server 1's query for file 2 at base (1, 2) points at
    packet M, which no server has."""
    queries = make_queries(theta, base, m)
    if theta == 2 and base == (1, 2):
        queries[1] = queries[1][:-1] + (m,)
    return queries


def queries_one_entry_short(theta, base, m):
    """Faulty builder: server 1's query for file 2 at base (1, 2) has K - 1
    entries."""
    queries = make_queries(theta, base, m)
    if theta == 2 and base == (1, 2):
        queries[1] = queries[1][:-1]
    return queries


def queries_unhashable_entry(theta, base, m):
    """Faulty builder: server 1's query for file 2 at base (1, 2) holds a
    list, so it cannot be hashed."""
    queries = make_queries(theta, base, m)
    if theta == 2 and base == (1, 2):
        queries[1] = (0, [1])
    return queries


@pytest.mark.parametrize(
    "query_fn, refused",
    [
        (queries_entry_m, "query (1, 3) has entries outside 0..2"),
        (queries_one_entry_short, "query length 1 != K=2"),
        (queries_unhashable_entry, "query (0, [1]) has entries outside 0..2"),
    ],
)
def test_walk_refuses_a_query_outside_the_table(query_fn, refused):
    # a tuple that is not one of the M^K queries, or cannot be looked up,
    # is refused by `answer`
    layout, _, library = build_instance(4, 3, 2)
    with pytest.raises(ValueError, match=re.escape(refused)):
        privacy_audit(layout, library, query_fn=query_fn)
    with pytest.raises(ValueError, match=re.escape(refused)):
        conditions_audit(3, 2, query_fn=query_fn)


def flip_first_answer(gi, pos, a):
    """Tamper hook: flip the top bit of group 0's server-0 answer when it speaks."""
    if gi == 0 and pos == 0 and not a.silent:
        return Answer(bytes([a.payload[0] ^ 0x80]) + a.payload[1:])
    return a


def silence_first_answer(gi, pos, a):
    """Tamper hook: silence the first server of group 0."""
    return SILENT if gi == 0 and pos == 0 else a


def test_fault_paths_match_pinned_digest():
    # every field of the round audits under the honest and two faulty query
    # builders, and of correctness under two tamper hooks, for every
    # 2 <= M <= 9 and K >= 1 with M^K <= 256, on the greedy (M+1, M) layout
    digest = hashlib.sha256()
    shapes = [(m, k) for m in range(2, 10) for k in range(1, 9) if m**k <= 256]
    for m, k in shapes:
        layout, plan, library = build_instance(m + 1, m, k)
        checks = [rate_audit(layout, library)]
        for query_fn in (make_queries, queries_missing_offset, queries_duplicate_shift):
            checks.append(privacy_audit(layout, library, query_fn=query_fn))
            checks.append(conditions_audit(m, k, query_fn=query_fn))
        for tamper in (flip_first_answer, silence_first_answer):
            checks.append(correctness_audit(plan, layout, library, tamper=tamper))
        checks.append(correctness_audit(plan, layout, library))
        for c in checks:
            digest.update(repr((c.name, c.passed, c.measured, c.expected, c.detail)).encode())
    assert len(shapes) == 29
    assert digest.hexdigest() == "ae3c848fa20587cfd0547a9f9777809327856639495e9866028bb75de7cdfb9a"


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


def test_optimal_case_row_is_the_divisible_case(monkeypatch):
    # the paper's optimal case, min(M, N-M) | N or M = N, is a gap bound of 1,
    # and the audit adds its row there; builds are stubbed for the audit, as
    # only its rows' names are read, and it is walked to N = 50 for time
    for name in ("build_equal_size", "build_greedy", "build_improved"):
        monkeypatch.setattr(sda, name, lambda n, m: SimpleNamespace(eta=1))
    for n in range(1, 301):
        for m in range(1, n + 1):
            divisible = m == n or n % min(m, n - m) == 0
            assert divisible == (sda.gap_bound(n, m) == 1), (n, m)
            if n <= 50:
                rows = {c.name for c in subpacketization_audit(n, m)}
                assert divisible == ("optimal-case" in rows), (n, m)


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
    row = dict(zip(ANALYZE_HEADER.split(","), analysis_row(n, m).split(",")))
    builders = {"eta_equal": sda.build_equal_size, "eta_greedy": sda.build_greedy}
    if sda.improved_family(n, m) is not None:
        builders["eta_improved"] = sda.build_improved
    for cell, build in builders.items():
        assert row[cell] == str(sda.column_profile(build(n, m)).eta), cell


class TestFullAudit:
    def test_overall_pass_and_determinism(self):
        first = run_full_audit(*build_instance(9, 4, 2, 3))
        second = run_full_audit(*build_instance(9, 4, 2, 3))
        assert first.overall
        assert first.table() == second.table()

    @pytest.mark.parametrize(
        "builder, failing",
        [(queries_missing_offset, {"privacy", "correctness"}),
         (queries_duplicate_shift, {"correctness", "conditions"})],
    )
    def test_a_broken_make_queries_fails_the_audit(self, monkeypatch, builder, failing):
        # the honest walk is linked to the builder `retrieve` runs, looked up
        # on `sfpir` at call time, so a broken one is walked and judged
        instance = build_instance(9, 4, 3)
        monkeypatch.setattr("scpir.sfpir.make_queries", builder)
        report = run_full_audit(*instance)
        assert {c.name for c in report.checks if not c.passed} == failing
        assert not report.overall

    def test_honest_walk_links_one_base_per_file(self, monkeypatch):
        # one call of `sfpir.make_queries` per file, at the base with 1 at
        # theta: the link is one base per file, not an audit of every base
        calls = []
        real = make_queries
        monkeypatch.setattr("scpir.sfpir.make_queries", lambda *args: calls.append(args) or real(*args))
        assert run_full_audit(*build_instance(9, 4, 3)).overall
        assert calls == [(1, (1, 0, 0), 4), (2, (0, 1, 0), 4), (3, (0, 0, 1), 4)]

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
            (7, 3, 1, "f2770f1b19d6ec7a437984a6328feffa9915fd4afcad133cc5807e6ff0a2f8a4"),
            (4, 4, 1, "c161ce0ba464cd9beed47084af78ccbd1e1623dc392c8cee1b0eb60ec6eaa765"),
            (5, 2, 1, "d759213a36716abb9a1b07fdbe1674d88c1055fb90f3180e17e7374888e4812a"),
        ],
    )
    def test_table_is_pinned(self, n, m, k, digest):
        # every byte of the report, measured values and details included
        table = run_full_audit(*build_instance(n, m, k, 1)).table()
        assert hashlib.sha256(table.encode()).hexdigest() == digest
