"""One protocol group: queries, answers, decoding, and the exact counts
the construction promises."""

import random
from fractions import Fraction

import pytest

from scpir.sfpir import (
    SILENT,
    Answer,
    GroupStorage,
    ProtocolViolation,
    answer,
    decode,
    enumerate_realizations,
    make_queries,
    random_base_vector,
)


def storage_2_2(w10=b"\x11", w20=b"\x22"):
    # M=2, K=2: one real packet per file
    return GroupStorage(2, ((w10,), (w20,)))


class TestMakeQueries:
    def test_shift_on_wanted_coordinate(self):
        assert make_queries(1, (0, 1), 2) == [(0, 1), (1, 1)]

    def test_server_zero_gets_base(self):
        for theta in (1, 2, 3):
            assert make_queries(theta, (2, 0, 1), 3)[0] == (2, 0, 1)

    def test_mod_wraparound(self):
        assert make_queries(1, (2,), 3) == [(2,), (0,), (1,)]

    def test_range_checks(self):
        with pytest.raises(ValueError):
            make_queries(0, (0, 0), 2)
        with pytest.raises(ValueError):
            make_queries(3, (0, 0), 2)
        with pytest.raises(ValueError):
            make_queries(1, (0, 2), 2)


class TestAnswer:
    def test_all_virtual_keeps_silence(self):
        assert answer((1, 1), storage_2_2()) is SILENT

    def test_single_real_packet(self):
        assert answer((0, 1), storage_2_2()) == Answer(b"\x11")

    def test_sum_of_real_packets(self):
        assert answer((0, 0), storage_2_2()) == Answer(b"\x33")  # 0x11 ^ 0x22

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            answer((0, 2), storage_2_2())

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="query length 1 != K=2"):
            answer((0,), storage_2_2())


class TestGroupStorage:
    def test_needs_two_servers(self):
        with pytest.raises(ValueError, match="need M >= 2, got M=1"):
            GroupStorage(1, ((),))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="every file needs exactly 2 packets"):
            GroupStorage(3, ((b"a", b"b"), (b"c",)))

    def test_rejects_mixed_packet_lengths(self):
        with pytest.raises(ValueError, match="packets in one group must have equal length"):
            GroupStorage(3, ((b"a", b"bc"), (b"d", b"e")))


class TestDecode:
    def test_silent_holder_means_empty_interference(self):
        # theta=1, q=(0,1): server 1 holds the virtual packet and is silent
        packets = decode(1, (0, 1), [Answer(b"\x11"), SILENT])
        assert packets == [b"\x11"]

    def test_interference_subtraction(self):
        # theta=1, q=(0,0): server 1 returns the interference W20
        packets = decode(1, (0, 0), [Answer(b"\x33"), Answer(b"\x22")])
        assert packets == [b"\x11"]

    def test_single_file_group(self):
        # K=1, M=3: the two real packets arrive untouched, one server silent
        storage = GroupStorage(3, ((b"\xaa", b"\xbb"),))
        for q in range(3):
            answers = [answer(vec, storage) for vec in make_queries(1, (q,), 3)]
            assert sum(a.silent for a in answers) == 1
            assert decode(1, (q,), answers) == [b"\xaa", b"\xbb"]

    def test_unexpected_silence_is_a_violation(self):
        with pytest.raises(ProtocolViolation, match=r"^server 1 with query \(1, 0\) stayed silent unexpectedly$"):
            decode(1, (0, 0), [Answer(b"\x33"), SILENT])

    def test_missing_silence_is_a_violation(self):
        with pytest.raises(ProtocolViolation, match=r"^server 1 with query \(1, 1\) answered unexpectedly$"):
            decode(1, (0, 1), [Answer(b"\x11"), Answer(b"\x00")])

    def test_rejects_bad_theta_and_base(self):
        with pytest.raises(ValueError, match=r"^theta=3 out of range 1\.\.2$"):
            decode(3, (0, 0), [Answer(b"\x33"), Answer(b"\x22")])
        with pytest.raises(ValueError, match=r"^base vector \(0, 2\) has entries outside 0\.\.1$"):
            decode(1, (0, 2), [Answer(b"\x33"), Answer(b"\x22")])

    def test_mixed_lengths_are_a_violation(self):
        with pytest.raises(ProtocolViolation):
            decode(1, (0, 0), [Answer(b"\x33\x00"), Answer(b"\x22")])


class TestEnumerateRealizations:
    def test_2_2(self):
        assert list(enumerate_realizations(2, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_3_1(self):
        assert list(enumerate_realizations(3, 1)) == [(0,), (1,), (2,)]


def random_storage(rng, m, k, length=3):
    return GroupStorage(m, tuple(tuple(rng.randbytes(length) for _ in range(m - 1)) for _ in range(k)))


class TestExhaustiveProtocolProperties:
    def test_decode_recovers_storage_everywhere(self):
        rng = random.Random(7)
        for m in range(2, 7):
            for k in range(1, 4):
                storage = random_storage(rng, m, k)
                for theta in range(1, k + 1):
                    for base in enumerate_realizations(m, k):
                        answers = [answer(q, storage) for q in make_queries(theta, base, m)]
                        assert decode(theta, base, answers) == list(storage.packets[theta - 1])

    def test_transmitted_answer_count_identity(self):
        # summed over all M^K base vectors: M^(K+1) - M transmitted answers
        rng = random.Random(8)
        for m in range(2, 7):
            for k in range(1, 4):
                storage = random_storage(rng, m, k, length=1)
                for theta in range(1, k + 1):
                    sent = sum(
                        not answer(q, storage).silent
                        for base in enumerate_realizations(m, k)
                        for q in make_queries(theta, base, m)
                    )
                    assert sent == m ** (k + 1) - m, (m, k, theta)

    def test_count_identity_gives_capacity_rate(self):
        for m in range(2, 7):
            for k in range(1, 4):
                rate = Fraction((m - 1) * m**k, m ** (k + 1) - m)
                assert rate == 1 / sum(Fraction(1, m**i) for i in range(k))

    def test_each_server_sees_uniform_queries(self):
        # the shift map permutes base vectors, so every server's received
        # query sweeps [0:M-1]^K exactly once per wanted file
        for m in range(2, 6):
            for k in range(1, 3):
                space = set(enumerate_realizations(m, k))
                for theta in range(1, k + 1):
                    for server in range(m):
                        seen = [
                            make_queries(theta, base, m)[server]
                            for base in enumerate_realizations(m, k)
                        ]
                        assert len(seen) == len(set(seen))
                        assert set(seen) == space


def test_random_base_vector_in_range_and_seeded():
    rng = random.Random(123)
    vecs = [random_base_vector(rng, 4, 3) for _ in range(50)]
    assert all(len(v) == 3 and all(0 <= x < 4 for x in v) for v in vecs)
    rng2 = random.Random(123)
    assert vecs == [random_base_vector(rng2, 4, 3) for _ in range(50)]
