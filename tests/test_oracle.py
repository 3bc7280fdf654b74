"""Brute-force oracle: exact feasibility and minimum-support searches."""

import hashlib
import random
import re
from fractions import Fraction
from itertools import combinations
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpir import oracle, sda
from scpir.oracle import lp_feasible, min_eta_equal, min_eta_star


def reference_eta_star(n, m):
    """Unpruned search: every support of every size, each decided by
    lp_feasible; the smallest feasible size."""
    universe = list(combinations(range(1, n + 1), m))
    for size in range(1, len(universe) + 1):
        if any(lp_feasible(c, n, m) is not None for c in combinations(universe, size)):
            return size


def reference_propagate(subsets, n, side):
    """Unit propagation the long way, with per-server lists of group
    indices rebuilt on every pass: the kernel `oracle._propagate` must
    return the same (alpha, remaining), or None, on every support."""
    alpha = [None] * len(subsets)
    remaining = [side] * n
    covers = [[] for _ in range(n)]
    for j, s in enumerate(subsets):
        for server in s:
            covers[server - 1].append(j)
    progress = True
    while progress:
        progress = False
        for i in range(n):
            live = [j for j in covers[i] if alpha[j] is None]
            if not live:
                if remaining[i] != 0:
                    return None
                continue
            if remaining[i] == 0:
                for j in live:
                    alpha[j] = 0
                progress = True
            elif len(live) == 1:
                j = live[0]
                value = remaining[i]
                alpha[j] = value
                for server in subsets[j]:
                    remaining[server - 1] -= value
                    if remaining[server - 1] < 0:
                        return None
                progress = True
    return alpha, remaining


def reference_covering_supports(n, m, size):
    """The canonical draws the long way, filtered by coverage only: every
    `combinations` draw of the other groups, each OR-ed up from scratch and
    kept when it covers every server."""
    universe = list(combinations(range(1, n + 1), m))
    if m == n:
        if size == 1:
            yield universe
        return
    first = universe[0]
    full = (1 << n) - 1
    mask = {s: sum(1 << (i - 1) for i in s) for s in universe}
    for j in range(m - 1, max(0, 2 * m - n) - 1, -1):
        second = tuple(range(1, j + 1)) + tuple(range(m + 1, 2 * m - j + 1))
        pool = [s for s in universe if s != second and sum(i <= m for i in s) <= j]
        base = mask[first] | mask[second]
        for rest in combinations(pool, size - 2):
            covered = base
            for s in rest:
                covered |= mask[s]
            if covered == full:
                yield [first, second, *rest]


def reference_forced_clash(support, n):
    """Whether two forced groups share a server, the long way: a group is
    forced when some server's list of holders is that group alone."""
    holders = [[] for _ in range(n)]
    for s in support:
        for i in s:
            holders[i - 1].append(s)
    forced = {held[0] for held in holders if len(held) == 1}
    return any(not set(a).isdisjoint(b) for a, b in combinations(forced, 2))


def reference_canonical_supports(n, m, size):
    """The covering draws whose forced groups do not clash.
    `oracle._canonical_supports` must yield the same lists in the same
    order."""
    for support in reference_covering_supports(n, m, size):
        if not reference_forced_clash(support, n):
            yield support


class TestBitmaskKernels:
    @settings(deadline=None)
    @given(st.data())
    def test_propagate_matches_list_reference(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        side = data.draw(st.integers(1, n), label="side")
        universe = list(combinations(range(1, n + 1), side))
        groups = st.lists(st.sampled_from(universe), min_size=1, max_size=12, unique=True)
        support = data.draw(groups, label="support")
        assert oracle._propagate(support, n, side) == reference_propagate(support, n, side)
        with mock.patch.object(oracle, "_propagate", reference_propagate):
            expected = oracle._solve_support(support, n, side)
        assert oracle._solve_support(support, n, side) == expected

    def test_canonical_supports_match_itertools_reference(self):
        for n in range(3, 8 + 1):  # the reference draws at N = 9, 10 take far too long
            for m in range(2, n):
                for size in range(2, 6):
                    got = list(oracle._canonical_supports(n, m, size))
                    assert got == list(reference_canonical_supports(n, m, size)), (n, m, size)

    def test_clash_filter_drops_only_infeasible_supports(self):
        # the generator keeps a subsequence of the covering draws, and every
        # draw it leaves out fails propagation
        for n in range(3, 8 + 1):  # the reference draws at N = 9, 10 take far too long
            for m in range(2, n):
                for size in range(2, 6):
                    kept = oracle._canonical_supports(n, m, size)
                    pending = next(kept, None)
                    for support in reference_covering_supports(n, m, size):
                        if support == pending:
                            pending = next(kept, None)
                        else:
                            assert reference_propagate(support, n, m) is None, (n, support)
                    assert pending is None, (n, m, size)

    def test_decided_supports_pinned(self):
        # coverage alone would hand _solve_support 1,058 and 67 supports at
        # (7, 3) and (7, 5); M = N is answered without drawing any
        for n, m, decided in ((7, 3, 351), (7, 5, 1), (8, 3, 31), (10, 4, 118), (6, 6, 0)):
            spy = mock.patch.object(oracle, "_solve_support", wraps=oracle._solve_support)
            with spy as solve:
                min_eta_star(n, m)
            assert solve.call_count == decided, (n, m)


class TestLpFeasible:
    def test_perfect_matching(self):
        witness = lp_feasible([(1, 2), (3, 4)], 4, 2)
        assert witness == {(1, 2): Fraction(1, 2), (3, 4): Fraction(1, 2)}

    def test_uncovered_servers(self):
        assert lp_feasible([(1, 2)], 4, 2) is None

    def test_known_six_group_support(self):
        support = [(1, 2, 3, 4), (5, 6, 7, 8), (5, 6, 7, 9), (5, 6, 8, 9), (5, 7, 8, 9), (6, 7, 8, 9)]
        witness = lp_feasible(support, 9, 4)
        assert witness is not None
        assert witness[(1, 2, 3, 4)] == Fraction(4, 9)
        assert all(witness[s] == Fraction(1, 9) for s in support[1:])

    def test_forced_zero_is_dropped_from_witness(self):
        # {1,3} can only take weight 0 once {1,2} and {3,4} are pinned
        witness = lp_feasible([(1, 2), (3, 4), (1, 3)], 4, 2)
        assert witness is not None
        assert (1, 3) not in witness

    def test_witness_meets_assignment_invariants(self):
        support = list(combinations(range(1, 6), 4))
        witness = lp_feasible(support, 5, 4)
        assert witness is not None
        sda.AlphaAssignment(5, 4, dict(witness)).check()

    def test_monotone_under_adding_groups(self):
        rng = random.Random(99)
        universe = list(combinations(range(1, 7), 3))
        for _ in range(60):
            support = rng.sample(universe, rng.randrange(2, 7))
            if lp_feasible(support, 6, 3) is not None:
                extra = rng.choice([s for s in universe if s not in support])
                assert lp_feasible(support + [extra], 6, 3) is not None

    @settings(deadline=None)
    @given(st.data())
    def test_invariant_under_relabeling_and_complement(self, data):
        # the two symmetries min_eta_star's canonical search rests on
        n = data.draw(st.integers(2, 7), label="n")
        m = data.draw(st.integers(2, n), label="m")
        universe = list(combinations(range(1, n + 1), m))
        groups = st.lists(st.sampled_from(universe), min_size=1, max_size=8, unique=True)
        support = data.draw(groups, label="support")
        perm = data.draw(st.permutations(range(1, n + 1)), label="perm")

        def flip(s):
            return tuple(i for i in range(1, n + 1) if i not in s)

        witness = lp_feasible(support, n, m)
        relabeled = lp_feasible([[perm[i - 1] for i in s] for s in support], n, m)
        assert (relabeled is None) == (witness is None)
        if n - m >= 2:
            assert (lp_feasible([flip(s) for s in support], n, n - m) is None) == (witness is None)
            if witness is not None:
                flipped = {flip(s): v for s, v in witness.items()}
                sda.AlphaAssignment(n, n - m, flipped).check()

    @settings(deadline=None)
    @given(st.data())
    def test_group_order_does_not_change_feasibility(self, data):
        # a new column order takes the simplex down a different pivot path
        n = data.draw(st.integers(2, 8), label="n")
        m = data.draw(st.integers(2, n), label="m")
        universe = list(combinations(range(1, n + 1), m))
        groups = st.lists(st.sampled_from(universe), min_size=1, max_size=10, unique=True)
        support = data.draw(groups, label="support")
        shuffled = data.draw(st.permutations(support), label="shuffled")
        witnesses = [lp_feasible(support, n, m), lp_feasible(shuffled, n, m)]
        assert (witnesses[0] is None) == (witnesses[1] is None)
        for witness in witnesses:
            if witness is not None:
                sda.AlphaAssignment(n, m, dict(witness)).check()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lp_feasible([], 4, 2)
        with pytest.raises(ValueError):
            lp_feasible([(1, 2), (1, 2)], 4, 2)
        with pytest.raises(ValueError):
            lp_feasible([(1, 2, 3)], 4, 2)
        message = "candidate group (1, 5) has a server outside 1..4"
        with pytest.raises(ValueError, match=re.escape(message)):
            lp_feasible([(1, 5)], 4, 2)


def test_witnesses_pinned():
    # sha256 over every N <= 8 result of min_eta_star, pinned before the
    # kernel went fraction-free: the same pivots must give the same
    # vertices. min_eta_equal's witness is the equal-size array's columns
    star = []
    for n in range(2, 9):
        for m in range(2, n + 1):
            eta, witness = min_eta_star(n, m)
            star.append((eta, sorted(witness.items())))
            assert min_eta_equal(n, m) == (n // gcd(n, m), list(sda.build_equal_size(n, m).column_sets))
    assert hashlib.sha256(repr(star).encode()).hexdigest() == (
        "a40e5cfc6dcb4299d819bebd362e6c650be22f5b19c18e115c5e44a8c21b1525"
    )


class TestMinEtaStar:
    def test_4_2(self):
        eta, witness = min_eta_star(4, 2)
        assert eta == 2
        sda.AlphaAssignment(4, 2, dict(witness)).check()

    def test_5_2_needs_four_groups(self):
        # three pairs force every pair the weight 2/5 and overshoot the total
        eta, witness = min_eta_star(5, 2)
        assert eta == 4
        sda.AlphaAssignment(5, 2, dict(witness)).check()

    def test_full_replication(self):
        assert min_eta_star(6, 6)[0] == 1

    def test_matches_unpruned_reference(self):
        for n in range(2, 7):
            for m in range(2, n + 1):
                eta, witness = min_eta_star(n, m)
                assert eta == reference_eta_star(n, m), (n, m)
                assert len(witness) == eta
                sda.AlphaAssignment(n, m, dict(witness)).check()

    def test_guards(self):
        with pytest.raises(ValueError):
            min_eta_star(oracle.MAX_SERVERS + 1, 2)
        with pytest.raises(ValueError):
            min_eta_star(6, 1)

    def test_greedy_below_eta_star_raises(self, monkeypatch):
        # with greedy's eta read one below eta* = 4, the search runs out of
        # sizes: the oracle and the closed form disagree
        def short(n, m):
            g, equal, greedy, improved, lower, gap = sda.closed_forms(n, m)
            return g, equal, greedy - 1, improved, lower, gap

        monkeypatch.setattr(oracle, "closed_forms", short)
        with pytest.raises(RuntimeError, match="greedy's eta 3 for N=5, M=2"):
            min_eta_star(5, 2)
        # searched on the complement side, reported for the instance asked
        with pytest.raises(RuntimeError, match="greedy's eta 3 for N=5, M=3"):
            min_eta_star(5, 3)


class TestMinEtaEqual:
    def test_small_values(self):
        assert min_eta_equal(4, 2)[0] == 2
        assert min_eta_equal(5, 2)[0] == 5
        assert min_eta_equal(6, 3)[0] == 2

    def test_witness_covers_exactly(self):
        for n in range(2, oracle.MAX_SERVERS + 1):
            for m in range(2, n + 1):
                eta, witness = min_eta_equal(n, m)
                assert len(witness) == eta == n // gcd(n, m), (n, m)
                assert all(len(set(s)) == m and set(s) <= set(range(1, n + 1)) for s in witness)
                for server in range(1, n + 1):
                    assert sum(server in s for s in witness) == m // gcd(n, m), (n, m, server)

    def test_matches_column_count_floor(self):
        for n in range(2, oracle.MAX_SERVERS + 1):
            for m in range(2, n + 1):
                assert min_eta_equal(n, m)[0] == n // gcd(n, m)
