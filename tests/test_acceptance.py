"""Acceptance battery: every exit criterion, checked exactly.

Each test prints one `criterion N ...: PASS` line (run pytest with -s to
see them); a failed assertion prints FAIL before raising. All comparisons
are integer or rational identities with zero tolerance.
"""

import hashlib
from collections import Counter
from fractions import Fraction
from math import gcd

from scpir import oracle, sda
from scpir.audit import (
    conditions_audit,
    correctness_audit,
    privacy_audit,
    queries_duplicate_shift,
    queries_missing_offset,
    rate_audit,
    storage_audit,
)
from scpir.oracle import min_eta_equal, min_eta_star
from scpir.scheme import minimal_length, plan_storage, random_library
from scpir.sfpir import GroupStorage, answer, enumerate_realizations, make_queries

# (N, M, K) instances for the protocol-level criteria, run at minimal L.
RATE_INSTANCES = [
    (2, 2, 2),
    (3, 2, 2),
    (4, 2, 2),
    (6, 3, 2),
    (9, 4, 2),
    (12, 5, 2),
    (4, 2, 3),
    (6, 3, 3),
]


def report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def greedy_instance(n, m, k, seed=0):
    alpha = sda.alpha_from_profile(sda.column_profile(sda.build_greedy(n, m)))
    file_len = minimal_length(n, m)
    layout, plan = plan_storage(alpha, k, file_len)
    return layout, plan, random_library(k, file_len, seed)


def test_criterion_1_worked_example_reproduction():
    greedy_12_5 = sda.column_profile(sda.build_greedy(12, 5)).eta
    equal_12_5 = sda.column_profile(sda.build_equal_size(12, 5)).eta
    improved_11_5 = sda.column_profile(sda.build_improved(11, 5)).eta
    ok = (
        sda.column_profile(sda.build_greedy(9, 4)).eta == 6
        and sda.column_profile(sda.build_greedy(11, 5)).eta == 7
        and greedy_12_5 == 6
        and greedy_12_5 * 4 == 24
        and equal_12_5 == 12
        and equal_12_5 * 4 == 48
        and sda.column_profile(sda.build_q_array(4)).eta == 5
        and sda.column_profile(sda.build_q_array(5)).eta == 6
        and improved_11_5 == 6
        and improved_11_5 * 4 == 24
    )
    report(1, "worked-example reproduction", ok)


def test_criterion_2_recursion_identity():
    ok = all(
        sda.column_profile(sda.build_greedy(n, m)).eta == sda.eta_recursion(n, m)
        for n in range(1, 15)
        for m in range(1, n + 1)
    )
    ok = ok and all(
        sda.eta_recursion(d * m + 1, m) == d + m and sda.eta_recursion(d * m - 1, m) == d + m - 1
        for d in range(2, 5)
        for m in range(2, 6)
    )
    report(2, "greedy count equals its recursion", ok)


def test_criterion_3_capacity_rate_identity():
    ok = True
    for n, m, k in RATE_INSTANCES:
        layout, _, library = greedy_instance(n, m, k)
        check = rate_audit(layout, library)
        expected = library.file_len * sum(Fraction(1, m**i) for i in range(k))
        ok = ok and check.passed and check.measured == str(expected)
    # M=2, K=2: exactly M^(K+1) - M = 6 transmitted answers over all bases
    storage = GroupStorage(2, ((b"\x01",), (b"\x02",)))
    sent = sum(
        not answer(q, storage).silent
        for base in enumerate_realizations(2, 2)
        for q in make_queries(1, base, 2)
    )
    ok = ok and sent == 6
    report(3, "exact average download = L*(1+1/M+...+1/M^(K-1))", ok)


def test_criterion_4_privacy():
    ok = True
    for n, m, k in RATE_INSTANCES:
        layout, _, library = greedy_instance(n, m, k)
        ok = ok and privacy_audit(layout, library).passed
    layout, _, library = greedy_instance(2, 2, 2)
    ok = ok and not privacy_audit(layout, library, query_fn=queries_missing_offset).passed
    report(4, "privacy holds and the offset-dropping fault is caught", ok)


def test_criterion_5_correctness():
    ok = True
    for n, m, k in RATE_INSTANCES:
        layout, plan, library = greedy_instance(n, m, k)
        ok = ok and correctness_audit(plan, layout, library).passed
    report(5, "every file decodes under every realization", ok)


def test_criterion_6_storage_conditions():
    ok = True
    for n in range(2, 13):
        for m in range(2, n + 1):
            for build in (sda.build_greedy, sda.build_equal_size):
                alpha = sda.alpha_from_profile(sda.column_profile(build(n, m)))
                layout, plan = plan_storage(alpha, 2, minimal_length(n, m))
                ok = ok and storage_audit(plan, layout).passed
    report(6, "exact placement multiplicity and full capacity for N <= 12", ok)


# eta* at N = 7..10, certified by the exact search; (8,3) and (8,5) need
# the greedy's 5 groups although 3 does not divide 8, and from N = 9 on
# eta* drops below greedy, as at (9,4) and (10,3).
ETA_STAR = {
    (7, 2): 5, (7, 3): 5, (7, 4): 5, (7, 5): 5, (7, 6): 7, (7, 7): 1,
    (8, 2): 4, (8, 3): 5, (8, 4): 2, (8, 5): 5, (8, 6): 4, (8, 7): 8, (8, 8): 1,
    (9, 2): 6, (9, 3): 3, (9, 4): 5, (9, 5): 5, (9, 6): 3, (9, 7): 6, (9, 8): 9,
    (10, 2): 5, (10, 3): 6, (10, 4): 4, (10, 5): 2, (10, 6): 4, (10, 7): 6, (10, 8): 5, (10, 9): 10,
}


def test_criterion_7_oracle_sandwich():
    # and build_improved attains eta* on every family member, greedy
    # wherever min(M, N-M) divides N
    ok, improved, found, groups = True, [], {}, 0
    star = []  # N = 9, 10 witnesses; test_witnesses_pinned pins N <= 8
    for n in range(2, 11):
        for m in range(2, n + 1):
            if n > 8 and 2 * m > n and n - m >= 2:
                # min_eta_star would repeat the search of its complement
                # twin (N, N-M), met above; N <= 8 still searches every twin
                eta, twin = found[n, n - m]
                witness = oracle._complement(twin, n)
            else:
                eta, witness = found[n, m] = min_eta_star(n, m)
            sda.AlphaAssignment(n, m, dict(witness)).check()
            ok = ok and len(witness) == eta == ETA_STAR.get((n, m), eta)
            # at the smallest size every fraction is positive, so a group that
            # holds a private server (one no other group holds) takes that
            # server's whole budget M/N and shares none of its servers: each
            # group's servers are all private or all shared
            holders = Counter(s for group in witness for s in group)
            groups += len(witness)
            ok = ok and all(len({holders[s] == 1 for s in group}) == 1 for group in witness)
            ok = ok and sda.eta_lower_bound(n, m) <= eta <= sda.eta_recursion(n, m)
            if m == n or n % min(m, n - m) == 0:
                ok = ok and eta == n // gcd(n, m) == sda.eta_recursion(n, m)
            eta_equal, cover = min_eta_equal(n, m)
            ok = ok and eta_equal == n // gcd(n, m)
            ok = ok and cover == list(sda.build_equal_size(n, m).column_sets)
            if n > 8:
                star.append((eta, sorted(witness.items())))
            if sda.improved_family(n, m):
                improved.append((n, m))
                ok = ok and sda.column_profile(sda.build_improved(n, m)).eta == eta
    ok = ok and improved == [(5, 3), (7, 3), (7, 4), (8, 3), (9, 4), (9, 5), (10, 3)]
    ok = ok and groups == 179  # the groups the private-server rule was checked on
    ok = ok and hashlib.sha256(repr(star).encode()).hexdigest() == (
        "8ca7468474d5365d5634f6252533c82e36205cea03f5612abfd8446ec1fdd947"
    )
    report(7, "exact optimum sits between floor and greedy for N <= 10", ok)


def test_criterion_8_gap_bound():
    ok = True
    for n in range(2, 15):
        for m in range(2, n + 1):
            if m < n:
                ratio = Fraction(sda.eta_recursion(n, m), sda.eta_lower_bound(n, m))
                ok = ok and ratio <= Fraction(min(m, n - m), gcd(n, m))
            else:
                ok = ok and sda.eta_recursion(n, m) * (m - 1) == n - 1
    report(8, "greedy within the divisibility gap of the floor", ok)


def test_criterion_9_coefficient_conditions():
    ok = all(conditions_audit(m, k).passed for m, k in [(2, 2), (3, 2), (3, 3), (4, 2), (5, 2)])
    ok = ok and not conditions_audit(3, 2, query_fn=queries_duplicate_shift).passed
    report(9, "coefficient independence and residual identity", ok)
