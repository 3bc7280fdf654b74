"""Brute-force oracle: exact feasibility and minimum-support searches."""

import hashlib
import random
import re
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpir import oracle, sda
from scpir.oracle import OracleBudgetError, lp_feasible, min_eta_equal, min_eta_star


def reference_eta_star(n, m):
    """Unpruned search: every support of every size, each decided by
    lp_feasible; the smallest feasible size."""
    universe = list(combinations(range(1, n + 1), m))
    for size in range(1, len(universe) + 1):
        if any(lp_feasible(c, n, m) is not None for c in combinations(universe, size)):
            return size


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
    # sha256 over every N <= 8 result of both searches, pinned before the
    # kernel went fraction-free: the same pivots must give the same vertices
    star, equal = [], []
    for n in range(2, 9):
        for m in range(2, n + 1):
            eta, witness = min_eta_star(n, m)
            star.append((eta, sorted(witness.items())))
            equal.append(min_eta_equal(n, m))
    assert hashlib.sha256(repr(star).encode()).hexdigest() == (
        "a40e5cfc6dcb4299d819bebd362e6c650be22f5b19c18e115c5e44a8c21b1525"
    )
    assert hashlib.sha256(repr(equal).encode()).hexdigest() == (
        "a46fbca0fde54b2c175567f26916800bf5113eea0879e2c18a3283c61e4bb05b"
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
            min_eta_star(9, 2)
        with pytest.raises(ValueError):
            min_eta_star(6, 1)

    def test_cap_exceeded_reports(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_CAP", 3)
        with pytest.raises(OracleBudgetError):
            min_eta_star(5, 2)
        # searched on the complement side, reported for the instance asked
        with pytest.raises(OracleBudgetError, match="N=5, M=3"):
            min_eta_star(5, 3)


class TestMinEtaEqual:
    def test_small_values(self):
        assert min_eta_equal(4, 2)[0] == 2
        assert min_eta_equal(5, 2)[0] == 5
        assert min_eta_equal(6, 3)[0] == 2

    def test_witness_covers_exactly(self):
        eta, witness = min_eta_equal(5, 2)
        assert len(witness) == eta
        for server in range(1, 6):
            assert sum(1 for s in witness if server in s) == 2 * eta // 5

    def test_matches_column_count_floor(self):
        for n in range(2, 7):
            for m in range(2, n + 1):
                assert min_eta_equal(n, m)[0] == n // gcd(n, m)

    def test_cap_exceeded(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_CAP", 4)
        with pytest.raises(OracleBudgetError):
            min_eta_equal(5, 2)
