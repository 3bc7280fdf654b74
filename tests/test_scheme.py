"""Placement planning and end-to-end retrieval on small instances."""

import hashlib
import random
import re
from fractions import Fraction
from itertools import product

import pytest

from scpir import sda
from scpir.audit import run_full_audit
from scpir.scheme import (
    FileLibrary,
    average_download,
    group_storage,
    minimal_length,
    plan_storage,
    random_library,
    retrieve,
)
from scpir.sfpir import enumerate_realizations, random_base_vector


# pinned while packets were still bytes inside the protocol round
PINNED_RETRIEVAL_DIGEST = "8770e8d02a7614b606ceadbc413973315725169741671a8d61b9c08b50566b78"


def greedy_alpha(n, m):
    return sda.alpha_from_profile(sda.column_profile(sda.build_greedy(n, m)))


class TestFileLibrary:
    def test_rejects_wrong_file_count(self):
        with pytest.raises(ValueError, match="expected 2 files, got 1"):
            FileLibrary(2, 3, (b"abc",))

    def test_rejects_wrong_file_length(self):
        with pytest.raises(ValueError, match="every file must have exactly 3 symbols"):
            FileLibrary(2, 3, (b"abc", b"ab"))

    def test_replace_and_make_check(self):
        library = FileLibrary(2, 3, (b"abc", b"def"))
        with pytest.raises(ValueError, match="every file must have exactly 2 symbols"):
            library._replace(file_len=2)
        with pytest.raises(ValueError, match="expected 3 files, got 2"):
            FileLibrary._make((3, 3, library.data))
        assert library._replace(data=(b"xyz", b"def")).file(1) == b"xyz"


class TestMinimalLength:
    def test_values(self):
        assert minimal_length(2, 2) == 1
        assert minimal_length(4, 2) == 2
        assert minimal_length(6, 3) == 4
        assert minimal_length(9, 4) == 27
        assert minimal_length(12, 5) == 48


class TestPlanStorage:
    def test_greedy_12_5(self):
        layout, plan = plan_storage(greedy_alpha(12, 5), k=2, file_len=48)
        assert [g.group_bytes for g in layout.groups] == [20, 8, 8, 4, 4, 4]
        assert [g.packet_bytes for g in layout.groups] == [5, 2, 2, 1, 1, 1]
        assert [g.file_offset for g in layout.groups] == [0, 20, 28, 36, 40, 44]
        # every server's budget is exactly M*K*L/N = 5*2*48/12
        assert all(v == Fraction(40) for v in plan.capacity_used.values())
        for region in layout.groups:
            assert len(set(region.servers)) == len(region.servers) == 5
            assert set(region.servers) <= set(range(1, 13))

    def test_rejects_off_granularity_lengths(self):
        with pytest.raises(ValueError):
            plan_storage(greedy_alpha(12, 5), k=2, file_len=24)
        with pytest.raises(ValueError):
            plan_storage(greedy_alpha(9, 4), k=2, file_len=18)

    def test_9_4_regions(self):
        layout, _ = plan_storage(greedy_alpha(9, 4), k=2, file_len=27)
        assert [g.group_bytes for g in layout.groups] == [12, 3, 3, 3, 3, 3]
        assert [g.packet_bytes for g in layout.groups] == [4, 1, 1, 1, 1, 1]

    def test_full_replication_single_group(self):
        n = 4
        layout, plan = plan_storage(greedy_alpha(n, n), k=1, file_len=n - 1)
        assert len(layout.groups) == 1
        assert layout.groups[0].servers == (1, 2, 3, 4)
        assert all(v == Fraction(n - 1) for v in plan.capacity_used.values())

    def test_rejects_single_server_budget(self):
        with pytest.raises(ValueError):
            plan_storage(greedy_alpha(3, 1), k=2, file_len=3)

    @pytest.mark.parametrize("build", [sda.build_greedy, sda.build_equal_size])
    @pytest.mark.parametrize("n, m", [(9, 4), (12, 5), (1000, 13)])
    def test_each_storage_fact_checked_once(self, monkeypatch, build, n, m):
        calls = {"validate": 0, "check": 0}
        validate, check = sda.validate, sda.AlphaAssignment.check

        def counted_validate(array):
            calls["validate"] += 1
            return validate(array)

        def counted_check(alpha):
            calls["check"] += 1
            return check(alpha)

        monkeypatch.setattr(sda, "validate", counted_validate)
        monkeypatch.setattr(sda.AlphaAssignment, "check", counted_check)
        alpha = sda.alpha_from_profile(sda.column_profile(build(n, m)))
        plan_storage(alpha, k=2, file_len=minimal_length(n, m))
        assert calls == {"validate": 1, "check": 1}

    def test_rejects_alpha_with_bad_sums(self):
        with pytest.raises(ValueError, match="do not sum to 1"):
            broken = sda.AlphaAssignment(4, 2, {(1, 2): Fraction(1, 2), (3, 4): Fraction(1, 4)})
            plan_storage(broken, k=2, file_len=minimal_length(4, 2))

    def test_rejects_fraction_off_granularity(self):
        # a valid alpha, but 1/4 is not a multiple of gcd(4,2)/4, so no
        # file length makes the packets of (1, 2) and (1, 3) integral
        quarters = {s: Fraction(1, 4) for s in [(1, 2), (3, 4), (1, 3), (2, 4)]}
        alpha = sda.AlphaAssignment(4, 2, quarters)
        message = "group (1, 2) fraction 1/4 is not a multiple of 2/4"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            plan_storage(alpha, k=2, file_len=minimal_length(4, 2))


class TestRetrieve:
    def test_hand_traced_2_2(self):
        layout, plan = plan_storage(greedy_alpha(2, 2), k=2, file_len=1)
        library = random_library(2, 1, seed=5)
        downloads = []
        for base in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            t = retrieve(1, plan, layout, library, [base])
            assert t.decoded_file == library.file(1)
            downloads.append(t.downloaded_symbols)
        # interference holder is silent in half the realizations
        assert downloads == [2, 1, 2, 1]

    def test_every_theta_every_joint_realization(self):
        for n, m, k in [(3, 2, 2), (4, 2, 2), (6, 3, 2)]:
            file_len = minimal_length(n, m)
            layout, plan = plan_storage(greedy_alpha(n, m), k, file_len)
            library = random_library(k, file_len, seed=n * 10 + m)
            bases = list(enumerate_realizations(m, k))
            for theta in range(1, k + 1):
                for combo in product(bases, repeat=len(layout.groups)):
                    t = retrieve(theta, plan, layout, library, list(combo))
                    assert t.decoded_file == library.file(theta)

    def test_download_ledger_matches_answers(self):
        layout, plan = plan_storage(greedy_alpha(9, 4), k=2, file_len=27)
        library = random_library(2, 27, seed=1)
        t = retrieve(2, plan, layout, library, [(0, 0)] * len(layout.groups))
        expected = sum(
            sum(layout.groups[g.group].packet_bytes for a in g.answers if not a.silent)
            for g in t.groups
        )
        assert t.downloaded_symbols == expected

    def test_large_packets_decode_to_bytes(self):
        # packets of 256, 512 and 1280 B: answers and decoded files are bytes,
        # never views of the library
        k, file_len = 8, 256 * 48
        layout, plan = plan_storage(greedy_alpha(12, 5), k, file_len)
        library = random_library(k, file_len, seed=3)
        rng = random.Random(3)
        for theta in range(1, k + 1):
            # group 0's all-(M-1) base makes its interference holder silent
            bases = [(4,) * k] + [random_base_vector(rng, 5, k) for _ in layout.groups[1:]]
            t = retrieve(theta, plan, layout, library, bases)
            assert type(t.decoded_file) is bytes
            assert t.decoded_file == library.file(theta)
            payloads = [a.payload for g in t.groups for a in g.answers if not a.silent]
            assert all(type(p) is bytes for p in payloads)
            assert t.downloaded_symbols == sum(map(len, payloads))
            assert any(a.silent for a in t.groups[0].answers)

    def test_retrievals_match_pinned_digest(self):
        # sha256 over the decoded file, the download count and every answer's
        # payload (None when silent) of seeded retrievals of every file; group
        # 0's all-(M-1) base silences its interference holder
        digest = hashlib.sha256()
        for build, n, m, k, l_mult in [
            (sda.build_greedy, 9, 4, 3, 2),
            (sda.build_greedy, 12, 5, 2, 1),
            (sda.build_greedy, 7, 3, 4, 3),
            (sda.build_equal_size, 6, 4, 2, 2),
            (sda.build_equal_size, 5, 2, 3, 4),
        ]:
            alpha = sda.alpha_from_profile(sda.column_profile(build(n, m)))
            file_len = l_mult * minimal_length(n, m)
            layout, plan = plan_storage(alpha, k, file_len)
            library = random_library(k, file_len, seed=n * m + k)
            rng = random.Random(100 * n + m)
            for theta in range(1, k + 1):
                bases = [(m - 1,) * k] + [random_base_vector(rng, m, k) for _ in layout.groups[1:]]
                t = retrieve(theta, plan, layout, library, bases)
                payloads = [a.payload for g in t.groups for a in g.answers]
                digest.update(repr((t.decoded_file, t.downloaded_symbols, payloads)).encode())
        assert digest.hexdigest() == PINNED_RETRIEVAL_DIGEST

    def test_argument_validation(self):
        layout, plan = plan_storage(greedy_alpha(2, 2), k=2, file_len=1)
        library = random_library(2, 1, seed=0)
        with pytest.raises(ValueError):
            retrieve(3, plan, layout, library, [(0, 0)])
        with pytest.raises(ValueError):
            retrieve(1, plan, layout, library, [])
        # a library off the plan's K or L is refused before any group is read,
        # so the full audit raises rather than blame the protocol for it
        for k_files, file_len in [(2, 2), (3, 1)]:
            other = random_library(k_files, file_len, seed=0)
            message = f"a library of {k_files} files of {file_len} symbols does not match K=2 and L=1"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                retrieve(1, plan, layout, other, [(0, 0)])
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run_full_audit(layout, plan, other)


class TestGroupStorage:
    def test_slices_are_contiguous(self):
        layout, _ = plan_storage(greedy_alpha(9, 4), k=2, file_len=27)
        library = random_library(2, 27, seed=2)
        storage = group_storage(layout, 0, library)
        region = layout.groups[0]
        joined = b"".join(storage.packets[0])
        assert joined == library.file(1)[region.file_offset : region.file_offset + 12]

    @pytest.mark.parametrize("file_len", [9, 54])
    def test_library_of_the_wrong_length_refused(self, file_len):
        # unchecked, a 9-symbol library gives empty packets and a 54-symbol
        # one the packets of its first 27 symbols
        layout, _ = plan_storage(greedy_alpha(9, 4), k=2, file_len=27)
        message = f"a library of {file_len}-symbol files does not match L=27"
        with pytest.raises(ValueError, match=message):
            group_storage(layout, 0, random_library(2, file_len, seed=2))


class TestAverageDownload:
    def test_2_2(self):
        layout, _ = plan_storage(greedy_alpha(2, 2), k=2, file_len=1)
        assert average_download(layout, 2) == Fraction(3, 2)

    def test_single_file_costs_the_file(self):
        for n, m in [(4, 2), (9, 4), (12, 5)]:
            file_len = minimal_length(n, m)
            layout, _ = plan_storage(greedy_alpha(n, m), k=1, file_len=file_len)
            assert average_download(layout, 1) == file_len

    def test_m5_k3(self):
        layout, _ = plan_storage(greedy_alpha(12, 5), k=3, file_len=48)
        assert average_download(layout, 3) == 48 * Fraction(31, 25)  # 1 + 1/5 + 1/25


class TestSubpacketization:
    def test_greedy_vs_equal_12_5(self):
        greedy, _ = plan_storage(greedy_alpha(12, 5), k=2, file_len=48)
        assert len(greedy.groups) * (greedy.m - 1) == 24
        equal_alpha = sda.alpha_from_profile(sda.column_profile(sda.build_equal_size(12, 5)))
        equal, _ = plan_storage(equal_alpha, k=2, file_len=48)
        assert len(equal.groups) * (equal.m - 1) == 48

    def test_full_replication(self):
        for n in (2, 5, 8):
            layout, _ = plan_storage(greedy_alpha(n, n), k=2, file_len=n - 1)
            assert len(layout.groups) * (layout.m - 1) == n - 1
