"""Storage design arrays: constructions against published layouts and the
closed-form counts they must hit."""

import copy
import hashlib
import pickle
import re
import tracemalloc
from fractions import Fraction
from functools import partial
from math import gcd

import pytest

from scpir import sda

# Known-good layouts, frozen from worked instances of each construction.
GREEDY_9_4 = [
    "****.....",
    "****.....",
    "****.....",
    "****.....",
    "....****.",
    "....***.*",
    "....**.**",
    "....*.***",
    ".....****",
]

GREEDY_11_5 = [
    "*****......",
    "*****......",
    "*****......",
    "*****......",
    "*****......",
    ".....*****.",
    ".....****.*",
    ".....***.**",
    ".....**.***",
    ".....*.****",
    "......*****",
]

GREEDY_12_5 = [
    "*****.......",
    "*****.......",
    "*****.......",
    "*****.......",
    "*****.......",
    ".....*****..",
    ".....****.*.",
    ".....****..*",
    ".....**..***",
    ".....**..***",
    ".......*****",
    ".......*****",
]

Q_ARRAY_4 = [
    "***....*.",
    "***.....*",
    "***....*.",
    "***.....*",
    "...****..",
    "...****..",
    "...****..",
    "....*.***",
    "...*.*.**",
]

Q_ARRAY_5 = [
    "****....*..",
    "****.....*.",
    "****......*",
    "****....*..",
    "****.....*.",
    "....****..*",
    "....*****..",
    "....****.*.",
    "....****..*",
    ".....*.****",
    "....*.*.***",
]

# Cyclic windows of the equal-size (12,5) construction, in column order.
CYCLIC_12_5 = [
    (1, 2, 3, 4, 5),
    (6, 7, 8, 9, 10),
    (1, 2, 3, 11, 12),
    (4, 5, 6, 7, 8),
    (1, 9, 10, 11, 12),
    (2, 3, 4, 5, 6),
    (7, 8, 9, 10, 11),
    (1, 2, 3, 4, 12),
    (5, 6, 7, 8, 9),
    (1, 2, 10, 11, 12),
    (3, 4, 5, 6, 7),
    (8, 9, 10, 11, 12),
]


def rows_of(array):
    return sda.render_sda(array).splitlines()[1:]


class TestValidate:
    def test_known_good_array(self):
        array = sda.parse_sda("9 4\n" + "\n".join(GREEDY_9_4))
        sda.validate(array)

    def test_column_violation_reported_first(self):
        identity = ((1,), (2,), (3,))
        message = "not a valid (3,2) storage design array: column 1 has 1 stars, expected 2"
        with pytest.raises(ValueError, match=re.escape(message)):
            sda.StorageDesignArray(3, 2, identity)

    def test_full_replication_single_column(self):
        array = sda.build_greedy(7, 7)
        assert array.columns == 1  # gcd(7,7)=7
        sda.validate(array)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            sda.StorageDesignArray(3, 2, ((1, 2),) * 2)

    def test_row_violation(self):
        columns = ((1, 2), (2, 3), (2, 3))
        with pytest.raises(ValueError, match=r"storage design array: row"):
            sda.StorageDesignArray(3, 2, columns)

    def test_non_canonical_column(self):
        message = "column 1 is not a sorted tuple of distinct servers in 1..3"
        with pytest.raises(ValueError, match=re.escape(message)):
            sda.StorageDesignArray(3, 2, ((2, 1), (2, 3), (1, 3)))

    def test_hand_built_invalid_array_refused(self):
        with pytest.raises(ValueError, match="column 1 has 1 stars, expected 2"):
            sda.StorageDesignArray(3, 2, ((1,), (2,), (5,)))

    @pytest.mark.parametrize(
        "columns, j",
        [
            (([1, 2], [3, 4]), 1),
            (((1, 2), [3, 4]), 2),
            (((1, 2), (3, [4])), 2),
            (((1, 2.5), (3, 4)), 1),
            (("12", "34"), 1),
        ],
    )
    def test_unhashable_column_refused(self, columns, j):
        message = f"column {j} is not a sorted tuple of distinct servers in 1..4"
        with pytest.raises(ValueError, match=re.escape(message)):
            sda.StorageDesignArray(4, 2, columns)

    @pytest.mark.parametrize(
        "columns, message",
        [
            (((2, 1), [3, 4]), "column 1 is not a sorted tuple of distinct servers in 1..4"),
            (((1,), [3, 4]), "storage design array: column 1 has 1 stars, expected 2"),
        ],
    )
    def test_first_bad_column_in_column_order(self, columns, message):
        # column 2 cannot be hashed, yet column 1 is read and refused first
        with pytest.raises(ValueError, match=re.escape(message)):
            sda.StorageDesignArray(4, 2, columns)

    @pytest.mark.parametrize(
        "columns, message",
        [
            (((1, 2), (1, 2), (4, 3), (3, 5), (4, 5)), "column 3 is not a sorted tuple of distinct servers in 1..5"),
            (((1, 2), (1, 2), [3, 4], (3, 5), (4, 5)), "column 3 is not a sorted tuple of distinct servers in 1..5"),
            (((1, 2), (1, 2), (3, 4), (3, 4), (5,)), "(5,2) storage design array: column 5 has 1 stars, expected 2"),
            (((1, 2), (3, 4), (1, 2), (5, 6), (4, 5)), "column 4 is not a sorted tuple of distinct servers in 1..5"),
            (((1, 2), (3, 4), (1, 2), (3, 5), (3, 5)), "(5,2) storage design array: row 3 has 3 stars, expected 2"),
            # equal to (1, 2), in its run or after it, but not made of ints
            (((1, 2), (1.0, 2.0), (3, 4), (3, 5), (4, 5)), "column 2 is not a sorted tuple of distinct servers in 1..5"),
            (((1, 2), (True, 2), (3, 4), (3, 5), (4, 5)), "column 2 is not a sorted tuple of distinct servers in 1..5"),
            (((1, 2), (3, 4), (1.0, 2.0), (3, 5), (4, 5)), "column 3 is not a sorted tuple of distinct servers in 1..5"),
            (((1, 2), (3, 4), (True, 2), (3, 5), (4, 5)), "column 3 is not a sorted tuple of distinct servers in 1..5"),
        ],
    )
    def test_first_bad_column_around_repeats(self, columns, message):
        # a run of equal columns is read as one and a repeat that is not
        # adjacent is only counted, yet a message names the column or row
        # where the first fault stands; (5, 2) has five columns, which the
        # two-column (4, 2) arrays above cannot hold
        with pytest.raises(ValueError, match=re.escape(message)):
            sda.StorageDesignArray(5, 2, columns)

    def test_equal_int_repeats_that_are_other_tuples_pass(self):
        columns = ((1, 2), tuple([1, 2]), (3, 4), (3, 5), (4, 5))
        array = sda.StorageDesignArray(5, 2, columns)
        assert array.subsets == ((1, 2), (3, 4), (3, 5), (4, 5))
        assert array.multiplicities == (2, 1, 1, 1)

    def test_repr_leaves_out_derived_fields(self):
        assert repr(sda.build_greedy(5, 2)) == (
            "StorageDesignArray(n=5, m=2, column_sets=((1, 2), (1, 2), (3, 4), (3, 5), (4, 5)))"
        )

    def test_copy_and_pickle_rebuild_through_the_constructor(self):
        array = sda.build_greedy(9, 4)
        for twin in (copy.copy(array), pickle.loads(pickle.dumps(array))):
            assert twin == array
            assert (twin.subsets, twin.multiplicities) == (array.subsets, array.multiplicities)

    def test_replace_and_make_validate(self):
        array = sda.build_greedy(5, 2)
        message = "not a valid (5,2) storage design array: row 3 has 3 stars, expected 2"
        with pytest.raises(ValueError, match=re.escape(message)):
            array._replace(column_sets=((1, 2), (1, 2), (3, 4), (3, 5), (3, 5)))
        with pytest.raises(ValueError, match=re.escape(message)):
            sda.StorageDesignArray._make((5, 2, ((1, 2), (1, 2), (3, 4), (3, 5), (3, 5)), (), ()))
        other = array._replace(column_sets=((1, 2), (1, 2), (3, 4), (3, 5), (4, 5))[::-1])
        assert other.subsets == ((4, 5), (3, 5), (3, 4), (1, 2))
        assert other.multiplicities == (1, 1, 1, 2)


class TestColumnProfile:
    def test_greedy_9_4(self):
        profile = sda.column_profile(sda.build_greedy(9, 4))
        assert profile.eta == 6
        assert profile.multiplicities == (4, 1, 1, 1, 1, 1)
        assert profile.subsets[0] == (1, 2, 3, 4)

    def test_cyclic_12_5_all_distinct(self):
        profile = sda.column_profile(sda.build_equal_size(12, 5))
        assert profile.eta == 12
        assert profile.multiplicities == (1,) * 12

    def test_greedy_12_5(self):
        assert sda.column_profile(sda.build_greedy(12, 5)).eta == 6

    def test_counted_once_when_made(self, monkeypatch):
        array = sda.build_greedy(12, 5)
        monkeypatch.setattr(sda, "validate", None)  # a recount would call it
        assert sda.column_profile(array) is array


class TestAlphaAssignment:
    def test_9_4_values(self):
        alpha = sda.alpha_from_profile(sda.column_profile(sda.build_greedy(9, 4)))
        assert alpha.entries[(1, 2, 3, 4)] == Fraction(4, 9)
        small = [s for s in alpha.entries if s != (1, 2, 3, 4)]
        assert len(small) == 5
        assert all(alpha.entries[s] == Fraction(1, 9) for s in small)

    def test_cyclic_12_5_uniform(self):
        alpha = sda.alpha_from_profile(sda.column_profile(sda.build_equal_size(12, 5)))
        assert all(v == Fraction(1, 12) for v in alpha.entries.values())
        assert len(alpha.entries) == 12

    def test_full_replication(self):
        alpha = sda.alpha_from_profile(sda.column_profile(sda.build_greedy(5, 5)))
        assert alpha.entries == {(1, 2, 3, 4, 5): Fraction(1)}

    def test_entries_are_read_only(self):
        source = {(1, 2): Fraction(1, 2), (3, 4): Fraction(1, 2)}
        alpha = sda.AlphaAssignment(4, 2, source)
        with pytest.raises(TypeError):
            alpha.entries[(1, 2)] = Fraction(5)
        source[(1, 2)] = Fraction(5)  # the assignment holds its own copy
        assert alpha.entries[(1, 2)] == Fraction(1, 2)

    def test_replace_checks(self):
        alpha = sda.AlphaAssignment(4, 2, {(1, 2): Fraction(1, 2), (3, 4): Fraction(1, 2)})
        with pytest.raises(ValueError, match=re.escape("group (1, 2) does not have 3 distinct servers")):
            alpha._replace(m=3)
        again = alpha._replace(entries={(1, 3): Fraction(1, 2), (2, 4): Fraction(1, 2)})
        with pytest.raises(TypeError):
            again.entries[(1, 3)] = Fraction(1)  # read-only again

    def test_invariant_checker_rejects_bad_sums(self):
        with pytest.raises(ValueError):
            sda.AlphaAssignment(4, 2, {(1, 2): Fraction(1, 2), (3, 4): Fraction(1, 4)})

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({(1, 1): Fraction(1)}, "group (1, 1) does not have 2 distinct servers"),
            ({(1, 5): Fraction(1)}, "group (1, 5) has a server outside 1..4"),
            ({(1, 2): Fraction(0), (3, 4): Fraction(1)}, "group (1, 2) has non-positive size 0"),
            (
                {(1, 2): Fraction(3, 4), (3, 4): Fraction(1, 4)},
                "server 1 holds 3/4 of each file, expected 1/2",
            ),
            ({(1, 2): 0.5, (3, 4): 0.5}, "group (1, 2) has size 0.5, not an exact rational"),
            ({(1, 2): Fraction(1, 2), (0, 3): Fraction(1, 2)}, "group (0, 3) has a server outside 1..4"),
            ({(1, 2): Fraction(3, 2), (3, 4): Fraction(-1, 2)}, "group (3, 4) has non-positive size -1/2"),
            (
                {(1, 3): Fraction(1, 2), (2, 4): Fraction(1, 4), (3, 4): Fraction(1, 4)},
                "server 2 holds 1/4 of each file, expected 1/2",
            ),
            (
                {(1, 2): Fraction(1, 3), (3, 4): Fraction(2, 3)},
                "server 1 holds 1/3 of each file, expected 1/2",
            ),
        ],
    )
    def test_refusal_messages(self, entries, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sda.AlphaAssignment(4, 2, entries)


class TestEqualSize:
    def test_12_5_cyclic_windows(self):
        array = sda.build_equal_size(12, 5)
        assert [tuple(sorted(array.column_sets[j])) for j in range(12)] == CYCLIC_12_5

    def test_4_2_two_windows(self):
        array = sda.build_equal_size(4, 2)
        assert [array.column_sets[j] for j in range(2)] == [(1, 2), (3, 4)]

    def test_full_replication(self):
        array = sda.build_equal_size(6, 6)
        assert rows_of(array) == ["*"] * 6

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            sda.build_equal_size(3, 4)


class TestGreedy:
    def test_9_4_layout(self):
        assert rows_of(sda.build_greedy(9, 4)) == GREEDY_9_4

    def test_11_5_layout(self):
        array = sda.build_greedy(11, 5)
        assert rows_of(array) == GREEDY_11_5
        profile = sda.column_profile(array)
        assert profile.eta == 7
        assert profile.multiplicities == (5, 1, 1, 1, 1, 1, 1)

    def test_12_5_layout(self):
        # pins the whole recursion chain (12,5)->(7,5)->(5,3)->(3,1)->(2,1)->(1,1)
        assert rows_of(sda.build_greedy(12, 5)) == GREEDY_12_5

    def test_gcd_stacking(self):
        array = sda.build_greedy(4, 2)
        assert rows_of(array) == ["*.", ".*", "*.", ".*"]


class TestEtaRecursion:
    def test_12_5(self):
        assert sda.eta_recursion(12, 5) == 6

    def test_closed_forms_near_multiples(self):
        for d in range(2, 5):
            for m in range(2, 6):
                assert sda.eta_recursion(d * m + 1, m) == d + m
                assert sda.eta_recursion(d * m - 1, m) == d + m - 1

    def test_full_replication(self):
        for n in range(1, 10):
            assert sda.eta_recursion(n, n) == 1


class TestQArray:
    def test_q4(self):
        array = sda.build_q_array(4)
        assert rows_of(array) == Q_ARRAY_4
        profile = sda.column_profile(array)
        assert profile.eta == 5
        assert profile.multiplicities == (3, 2, 2, 1, 1)

    def test_q5(self):
        array = sda.build_q_array(5)
        assert rows_of(array) == Q_ARRAY_5
        profile = sda.column_profile(array)
        assert profile.eta == 6
        assert profile.multiplicities == (4, 2, 2, 1, 1, 1)

    def test_q2(self):
        array = sda.build_q_array(2)
        assert (array.n, array.m) == (5, 2)
        sda.validate(array)
        assert sda.column_profile(array).eta == 4  # ceil(2/2)+3

    def test_count_formula_and_validity(self):
        for m in range(2, 13):
            array = sda.build_q_array(m)
            sda.validate(array)
            assert sda.column_profile(array).eta == (m + 1) // 2 + 3

    def test_rejects_m_below_two(self):
        with pytest.raises(ValueError):
            sda.build_q_array(1)


class TestOpposite:
    def test_flipped_template_keeps_count(self):
        q4 = sda.build_q_array(4)
        flipped = sda.opposite(q4)
        assert (flipped.n, flipped.m) == (9, 5)
        assert sda.column_profile(flipped).eta == sda.column_profile(q4).eta == 5

    def test_full_replication_rejected(self):
        with pytest.raises(ValueError):
            sda.opposite(sda.build_greedy(4, 4))

    def test_involution(self):
        array = sda.build_greedy(9, 4)
        assert sda.opposite(sda.opposite(array)) == array


class TestImproved:
    def test_11_5_plus_case(self):
        array = sda.build_improved(11, 5)  # d=2, 11 = 2*5+1
        assert sda.column_profile(array).eta == 6  # 2 + ceil(5/2) + 1

    def test_9_5_minus_case(self):
        array = sda.build_improved(9, 5)  # d=2, 9 = 2*5-1
        assert sda.column_profile(array).eta == 5  # 2 + floor(5/2) + 1

    def test_9_4_is_the_template_itself(self):
        array = sda.build_improved(9, 4)  # d=2, zero leading blocks
        assert rows_of(array) == Q_ARRAY_4
        assert sda.column_profile(array).eta == 5

    def test_d_2_is_the_template_or_its_flip(self):
        # no full block, so the tail alone, built once: the template for
        # N = 2M+1, the flipped (M-1) template for N = 2M-1
        for m in range(3, 60):
            assert sda.build_improved(2 * m + 1, m) == sda.build_q_array(m)
            assert sda.build_improved(2 * m - 1, m) == sda.opposite(sda.build_q_array(m - 1))

    def test_leading_blocks(self):
        array = sda.build_improved(16, 5)  # d=3: one 5x5 block then the template
        assert sda.column_profile(array).eta == 3 + 3 + 1
        assert array.column_sets[0] == (1, 2, 3, 4, 5)

    def test_rejected_parameters(self):
        with pytest.raises(ValueError):
            sda.build_improved(10, 4)  # 10 is not 4d +/- 1
        with pytest.raises(ValueError):
            sda.build_improved(5, 2)  # M < 3 even though 5 = 2*2+1
        with pytest.raises(ValueError):
            sda.build_improved(4, 3)  # d=1 only


class TestEtaLowerBound:
    def test_values(self):
        assert sda.eta_lower_bound(12, 5) == 3  # max(ceil(12/5), ceil(12/7))
        assert sda.eta_lower_bound(9, 4) == 3
        assert sda.eta_lower_bound(7, 2) == 4
        assert sda.eta_lower_bound(6, 6) == 1


class TestClosedForms:
    def test_eta_equal(self):
        assert sda.eta_equal(12, 5) == 12
        assert sda.eta_equal(12, 4) == 3
        assert sda.eta_equal(6, 6) == 1

    def test_gap_bound(self):
        assert sda.gap_bound(12, 5) == 5  # min(5, 7) / gcd 1
        assert sda.gap_bound(12, 8) == 1  # min(8, 4) / gcd 4
        assert sda.gap_bound(7, 7) == 1  # full replication

    @pytest.mark.parametrize("closed_form", [sda.eta_equal, sda.gap_bound])
    @pytest.mark.parametrize("n, m", [(3, 4), (3, 0)])
    def test_parameter_range(self, closed_form, n, m):
        with pytest.raises(ValueError, match="need 1 <= M <= N"):
            closed_form(n, m)


class TestInvariantsSweep:
    def test_all_constructions_validate_to_14(self):
        for n in range(1, 15):
            for m in range(1, n + 1):
                for array in (sda.build_equal_size(n, m), sda.build_greedy(n, m)):
                    sda.validate(array)

    def test_greedy_profile_matches_recursion(self):
        for n in range(1, 15):
            for m in range(1, n + 1):
                assert sda.column_profile(sda.build_greedy(n, m)).eta == sda.eta_recursion(n, m)

    def test_equal_size_count_is_columns(self):
        for n in range(1, 15):
            for m in range(1, n + 1):
                assert sda.column_profile(sda.build_equal_size(n, m)).eta == n // gcd(n, m)

    def test_counts_sandwiched_by_bounds(self):
        for n in range(2, 15):
            for m in range(2, n + 1):
                lower = sda.eta_lower_bound(n, m)
                for array in (sda.build_equal_size(n, m), sda.build_greedy(n, m)):
                    eta = sda.column_profile(array).eta
                    assert lower <= eta <= n // gcd(n, m), (n, m)

    def test_improved_validates_and_never_trails_greedy(self):
        # strict win for the dM+1 family once M >= 4 and the dM-1 family once
        # M >= 5; the remaining template sizes tie the greedy count exactly
        for m in range(3, 8):
            for d in range(2, 5):
                for n, strict in ((d * m + 1, m >= 4), (d * m - 1, m >= 5)):
                    array = sda.build_improved(n, m)
                    sda.validate(array)
                    eta = sda.column_profile(array).eta
                    if strict:
                        assert eta < sda.eta_recursion(n, m), (n, m)
                    else:
                        assert eta == sda.eta_recursion(n, m), (n, m)

    def test_alpha_invariants_for_all_greedy_arrays(self):
        for n in range(2, 13):
            for m in range(2, n + 1):
                profile = sda.column_profile(sda.build_greedy(n, m))
                alpha = sda.alpha_from_profile(profile)
                alpha.check()
                assert all(len(s) == m for s in alpha.entries)


class TestTextFormat:
    def test_roundtrip(self):
        for builder, n, m in [
            (sda.build_greedy, 9, 4),
            (sda.build_equal_size, 12, 5),
            (sda.build_q_array, 4, None),
        ]:
            array = builder(n) if m is None else builder(n, m)
            assert sda.parse_sda(sda.render_sda(array)) == array

    def test_parser_rejections(self):
        good = sda.render_sda(sda.build_greedy(4, 2))
        for mangled in [
            "",
            "4\n*.\n.*\n*.\n.*",
            "4 2\n*.\n.*\n*.",
            "4 2\n*.\n.*\n*.\n.x",
            "4 2\n*..\n.*\n*.\n.*",
            good.replace("*", "#", 1),
        ]:
            with pytest.raises(ValueError):
                sda.parse_sda(mangled)

    def test_parser_rejects_invalid_array(self):
        # well-formed text, wrong star counts
        with pytest.raises(ValueError):
            sda.parse_sda("3 2\n**.\n**.\n.**")

    def test_parser_rejects_non_integer_header(self):
        with pytest.raises(ValueError, match="bad header '4 x', expected two integers"):
            sda.parse_sda("4 x\n*.\n.*\n*.\n.*")


def pinned_arrays():
    """Every greedy, equal-size and improved array with 1 <= M <= N <= 40,
    the opposite of each one with M < N, and the templates for 2 <= M < 20."""
    for n in range(1, 41):
        for m in range(1, n + 1):
            arrays = [("greedy", sda.build_greedy(n, m)), ("equal", sda.build_equal_size(n, m))]
            if sda.improved_family(n, m) is not None:
                arrays.append(("improved", sda.build_improved(n, m)))
            yield from arrays
            if m < n:
                for name, array in arrays:
                    yield f"opposite-{name}", sda.opposite(array)
    for m in range(2, 20):
        yield "q", sda.build_q_array(m)


# sha256 of every pinned array's text form, distinct columns and their
# multiplicities: pins the layouts, the column order and the profile order.
PINNED_LAYOUT_DIGEST = "b211512eaf010e90649ff3a871e6a2a79a47a20309ab362d865a3218e74ab5c9"


def test_layouts_match_pinned_digest():
    digest = hashlib.sha256()
    for name, array in pinned_arrays():
        profile = sda.column_profile(array)
        digest.update(f"{name} {array.n} {array.m}\n".encode())
        digest.update(sda.render_sda(array).encode())
        digest.update(f"{profile.subsets!r} {profile.multiplicities!r}\n".encode())
    assert digest.hexdigest() == PINNED_LAYOUT_DIGEST


def test_one_tuple_per_distinct_column():
    # repeated columns share one tuple, so an array holds eta*M server entries;
    # so does an array read back from its text form. Past N = 256, where
    # Python stops caching ints, every entry is one of at most N int objects,
    # so each costs a pointer
    def arrays():
        for name, array in pinned_arrays():
            yield name, array
            if array.n <= 16:
                yield f"parsed-{name}", sda.parse_sda(sda.render_sda(array))

    large = [
        ("equal", sda.build_equal_size(301, 150)),
        ("greedy", sda.build_greedy(300, 299)),  # gcd 1
        ("greedy", sda.build_greedy(600, 598)),  # gcd 2: the (300, 299) array stacked twice
        ("improved-plus", sda.build_improved(301, 100)),
        ("improved-minus", sda.build_improved(299, 100)),
        ("template", sda.build_q_array(150)),
        ("opposite-greedy", sda.opposite(sda.build_greedy(300, 1))),
        ("opposite-equal", sda.opposite(sda.build_equal_size(301, 150))),
        ("parsed-greedy", sda.parse_sda(sda.render_sda(sda.build_greedy(1000, 13)))),
    ]
    for name, array in [*arrays(), *large]:
        assert len({id(c) for c in array.column_sets}) == array.eta, (name, array.n, array.m)
    for name, array in large:
        servers = {id(s) for column in array.subsets for s in column}
        assert len(servers) <= array.n, (name, array.n, array.m, len(servers))


@pytest.mark.parametrize(
    "name, n, m, eta, build",
    [
        ("equal", 400, 399, 400, partial(sda.build_equal_size, 400, 399)),
        ("greedy", 400, 399, 400, partial(sda.build_greedy, 400, 399)),
        ("improved", 601, 300, 153, partial(sda.build_improved, 601, 300)),
        ("template", 601, 300, 153, partial(sda.build_q_array, 300)),
        ("opposite", 400, 399, 400, partial(sda.opposite, sda.build_greedy(400, 1))),
    ],
)
def test_each_construction_refuses_before_it_builds(monkeypatch, name, n, m, eta, build):
    # one entry over the bound is refused before a column is made, within
    # 256 KiB where building the equal (400, 399) array peaks near 3 MiB;
    # at the bound exactly the array builds
    monkeypatch.setattr(sda, "MAX_BUILD_ENTRIES", eta * m - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == (f"the {name} ({n}, {m}) array holds eta*M = {eta}*{m} = "
                                  f"{eta * m} server entries, over the bound of {eta * m - 1}")
    assert peak < 256 * 1024
    monkeypatch.setattr(sda, "MAX_BUILD_ENTRIES", eta * m)
    array = build()
    assert (array.n, array.m, array.eta) == (n, m, eta)
