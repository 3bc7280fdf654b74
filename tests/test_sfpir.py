"""One protocol group: queries, answers, decoding, and the exact counts
the construction promises."""

import copy
import pickle
import random
import re
from array import array
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpir.sfpir import (
    SILENT,
    Answer,
    GroupStorage,
    ProtocolViolation,
    answer,
    decode,
    enumerate_realizations,
    make_queries,
    query_positions,
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

    def test_refuses_a_single_server(self):
        # the same rule, and the same message, as GroupStorage
        with pytest.raises(ValueError, match="^need M >= 2, got M=1$"):
            make_queries(1, (0,), 1)

    @pytest.mark.parametrize("base", [(0, 1.0), (0, True), (False, 1), (2.0, 0)])
    def test_refuses_entries_other_than_ints(self, base):
        # equal to an index, so inside the range, but not copied into queries
        with pytest.raises(ValueError, match=re.escape(f"base vector {base} has entries other than ints")):
            make_queries(1, base, 3)


def test_query_positions_are_make_queries_over_every_base():
    # the audit walks `query_positions`; it must be `make_queries` on every
    # base, written as positions in `enumerate_realizations` order, for
    # every file of every (M, K) with M^K <= 256
    for m in range(2, 257):
        k = 1
        while m**k <= 256:
            index = {q: i for i, q in enumerate(enumerate_realizations(m, k))}
            for theta in range(1, k + 1):
                sent = [index[q] for base in enumerate_realizations(m, k) for q in make_queries(theta, base, m)]
                assert query_positions(theta, m, k) == sent, (theta, m, k)
            k += 1


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

    def test_equality_hash_and_repr(self):
        # a payload converts to the int reply `answer` builds for the same bytes
        assert Answer(b"\x01\x00") == Answer(1, 2)
        assert hash(Answer(b"\x01\x00")) == hash(Answer(1, 2))
        assert Answer(1, 2) != Answer(1, 3)
        assert repr(Answer(b"\x01\x00")) == "Answer(value=1, size=2)"

    def test_copy_and_pickle_keep_the_reply(self):
        for reply in (Answer(b"\x01\x00"), SILENT):
            assert copy.copy(reply) == pickle.loads(pickle.dumps(reply)) == reply

    @pytest.mark.parametrize("field", ["value", "size"])
    def test_fields_are_read_only(self, field):
        reply = Answer(5, 1)
        with pytest.raises(AttributeError):
            setattr(reply, field, 0)
        with pytest.raises(AttributeError):
            setattr(SILENT, field, 7)
        with pytest.raises(AttributeError):
            reply.extra = 1  # slots: no other attribute either
        assert (reply.value, reply.size) == (5, 1)
        assert (SILENT.value, SILENT.size) == (None, 0) and SILENT.silent


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

    def test_replace_checks_and_recomputes_size(self):
        storage = GroupStorage(3, ((b"a", b"b"), (b"c", b"d")))
        with pytest.raises(ValueError, match="every file needs exactly 2 packets"):
            storage._replace(packets=((b"a",),))
        wider = storage._replace(packets=((b"ab", b"cd"),))
        assert (wider.size, wider.k) == (2, 1)
        assert repr(wider) == "GroupStorage(m=3, packets=((b'ab', b'cd'),))"


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

    @pytest.mark.parametrize("answers, m", [([Answer(1, 1)], 1), ([], 0)])
    def test_refuses_fewer_than_two_answers(self, answers, m):
        # the round's M is the number of answers; fewer than two is no group
        with pytest.raises(ValueError, match=f"^need M >= 2, got M={m}$"):
            decode(1, (0,), answers)


class TestIntegerPackets:
    """Inside a round a packet is an int; widths come from the packet size,
    so zero bytes at the end and empty packets survive."""

    @pytest.mark.parametrize(
        "rows",
        [
            ((b"\x05\x00\x00", b"\x00\x00\x00"), (b"\x00\x00\x00", b"\x00\x07\x00")),
            ((bytes(4), bytes(4)), (bytes(4), bytes(4))),
            ((b"", b""), (b"", b"")),
        ],
        ids=["zero-tails", "all-zero", "zero-length"],
    )
    def test_replies_and_packets_keep_their_length(self, rows):
        storage = GroupStorage(3, rows)
        size = len(rows[0][0])
        for theta in (1, 2):
            for base in enumerate_realizations(3, 2):
                answers = [answer(q, storage) for q in make_queries(theta, base, 3)]
                assert all(len(a.payload) == size for a in answers if not a.silent)
                assert decode(theta, base, answers) == list(rows[theta - 1])

    @pytest.mark.parametrize("payload", [b"", b"\x00", b"\x00\x01", b"\x01\x00", bytes(5)])
    def test_answer_from_bytes_round_trips(self, payload):
        assert Answer(payload).payload == payload
        assert type(Answer(payload).payload) is bytes
        assert not Answer(payload).silent

    def test_answer_from_bytes_equals_computed_reply(self):
        storage = storage_2_2(b"\x11\x00", b"\x00\x00")
        assert answer((0, 1), storage) == Answer(b"\x11\x00")
        assert answer((0, 0), storage) == Answer(b"\x11\x00")
        assert answer((1, 0), storage) == Answer(b"\x00\x00")
        assert Answer(b"\x00\x00") != Answer(b"\x00") != Answer(b"") != SILENT
        assert SILENT.payload is None and SILENT.silent

    def test_longer_reply_of_equal_value_is_mixed_length(self):
        # b"\x33" and b"\x33\x00" are the same int; only their sizes differ
        with pytest.raises(ProtocolViolation, match=re.escape("mixed lengths [1, 2]")):
            decode(1, (0, 0), [Answer(b"\x33\x00"), Answer(b"\x22")])
        with pytest.raises(ProtocolViolation, match=re.escape("mixed lengths [1, 2]")):
            decode(1, (0, 0), [Answer(b"\x33"), Answer(b"\x22\x00")])

    @pytest.mark.parametrize("value, size", [(0, 0), (255, 1), (2**16 - 1, 2), (1, 5)])
    def test_answer_accepts_values_that_fit(self, value, size):
        reply = Answer(value, size)
        assert int.from_bytes(reply.payload, "little") == value and len(reply.payload) == size

    @pytest.mark.parametrize("value, size", [(-1, 1), (-(2**20), 4), (-1, 0)])
    def test_answer_rejects_negative_values(self, value, size):
        with pytest.raises(ValueError, match="^answer value is negative$"):
            Answer(value, size)

    @pytest.mark.parametrize("value, size", [(1 << 20, 1), (256, 1), (1, 0), (2**16, 2)])
    def test_answer_rejects_values_wider_than_size(self, value, size):
        bits = value.bit_length()
        with pytest.raises(ValueError, match=f"^answer value of {bits} bits does not fit in {size} bytes$"):
            Answer(value, size)

    @pytest.mark.parametrize(
        "payload, size",
        [(b"ab", 5), (b"ab", 1), (bytearray(b"abc"), 2), (memoryview(b"a"), 3), (b"", 1)],
    )
    def test_answer_rejects_payload_of_another_size(self, payload, size):
        with pytest.raises(ValueError, match=f"^answer payload of {len(payload)} bytes given size {size}$"):
            Answer(payload, size)

    @pytest.mark.parametrize("size", [1, 5, -1])
    def test_silent_answer_rejects_a_size(self, size):
        with pytest.raises(ValueError, match=f"^a silent answer has size 0, not {size}$"):
            Answer(None, size)

    def test_silent_answer_is_the_one_silence(self):
        assert Answer(None) == Answer(None, 0) == SILENT

    @pytest.mark.parametrize("payload", [b"ab", bytearray(b"ab"), memoryview(b"xab")[1:]])
    def test_answer_payload_keeps_its_own_size(self, payload):
        assert Answer(payload, 2) == Answer(payload) == Answer(int.from_bytes(b"ab", "little"), 2)

    def test_answer_sizes_a_wide_buffer_in_bytes(self):
        # a memoryview of 2-byte items: its len counts items, its size is bytes
        view = memoryview(array("H", [0x1234]))
        assert len(view) == 1
        assert Answer(view) == Answer(view, 2) == Answer(0x1234, 2)
        assert Answer(view).payload == bytes(view)
        with pytest.raises(ValueError, match="^answer payload of 2 bytes given size 1$"):
            Answer(view, 1)

    @pytest.mark.parametrize("value", [1.5, "ab", [1], Fraction(1), (1,)])
    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_answer_rejects_other_values(self, value, size):
        kind = type(value).__name__
        with pytest.raises(ValueError, match=f"^answer value must be None, an int or bytes-like, not {kind}$"):
            Answer(value, size)


def reference_make_queries(theta, base, m):
    """The per-entry query builder that `make_queries` replaced: one list
    copy of the base per server."""
    queries = []
    for server in range(m):
        vec = list(base)
        vec[theta - 1] = (base[theta - 1] + server) % m
        queries.append(tuple(vec))
    return queries


def reference_decode(theta, base, answers):
    """The per-server `decode` that the one-pass silence test replaced,
    with the range checks written per entry."""
    m = len(answers)
    if not 1 <= theta <= len(base):
        raise ValueError(f"theta={theta} out of range 1..{len(base)}")
    if any(not 0 <= q < m for q in base):
        raise ValueError(f"base vector {base} has entries outside 0..{m - 1}")
    shift = base[theta - 1]
    holder = (m - 1 - shift) % m
    expect_silent = base.count(m - 1) - (shift == m - 1) == len(base) - 1
    for server, reply in enumerate(answers):
        silent = reply.value is None
        if silent != (server == holder and expect_silent):
            raise ProtocolViolation(
                f"server {server} with query {reference_make_queries(theta, base, m)[server]} "
                f"{'stayed silent' if silent else 'answered'} unexpectedly"
            )
    sizes = {a.size for a in answers if a.value is not None}
    if len(sizes) > 1:
        raise ProtocolViolation(f"answer payloads have mixed lengths {sorted(sizes)}")
    interference = answers[holder].value or 0
    packets = []
    for index in range(m - 1):
        reply = answers[(index - shift) % m]
        packets.append((reply.value ^ interference).to_bytes(reply.size, "little"))
    return packets


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", fn(*args)
    except (ValueError, ProtocolViolation) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def protocol_rounds(draw):
    """A group of M <= 7 servers and K <= 6 files with packets of 0..3
    bytes, and one base vector."""
    m, k = draw(st.integers(2, 7)), draw(st.integers(1, 6))
    length = draw(st.integers(0, 3))
    rows = tuple(
        tuple(draw(st.binary(min_size=length, max_size=length)) for _ in range(m - 1))
        for _ in range(k)
    )
    base = tuple(draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k)))
    return GroupStorage(m, rows), base


@settings(max_examples=25, deadline=None)
@given(protocol_rounds())
def test_queries_and_decode_match_reference(instance):
    # every theta, on the drawn base and on the base whose holder must stay
    # silent; every pattern of silent and answering servers, and each reply
    # made a byte longer, each as a list (as `retrieve` sends it) and as a
    # tuple (as the audit walk does): the same packets, or the same
    # exception naming the same server, as the per-server reference
    storage, drawn = instance
    m, k = storage.m, storage.k
    spoken = Answer(0, storage.size)  # a reply from a server that should stay silent
    for theta, base in product(range(1, k + 1), (drawn, None)):
        base = base or (m - 1,) * (theta - 1) + (drawn[theta - 1],) + (m - 1,) * (k - theta)
        queries = make_queries(theta, base, m)
        assert queries == reference_make_queries(theta, base, m)
        answers = [answer(q, storage) for q in queries]
        assert decode(theta, base, answers) == reference_decode(theta, base, answers)
        variants = [answers]
        variants += [[SILENT if hush else spoken if a.silent else a for a, hush in zip(answers, silenced)]
                     for silenced in product((False, True), repeat=m)]
        variants += [answers[:server] + [Answer(a.value, a.size + 1)] + answers[server + 1 :]
                     for server, a in enumerate(answers) if not a.silent]
        for sent in variants:
            expected = outcome(reference_decode, theta, base, sent)
            assert outcome(decode, theta, base, sent) == expected
            assert outcome(decode, theta, base, tuple(sent)) == expected


@st.composite
def zero_tailed_storages(draw):
    """A group of M <= 6 servers and K <= 4 files whose packets of 0..40
    bytes end in a forced run of zero bytes."""
    m, k = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    length = draw(st.integers(0, 40))
    tail = draw(st.integers(0, length))
    rows = tuple(
        tuple(draw(st.binary(min_size=length - tail, max_size=length - tail)) + bytes(tail)
              for _ in range(m - 1))
        for _ in range(k)
    )
    return GroupStorage(m, rows)


@settings(max_examples=30, deadline=None)
@given(zero_tailed_storages())
def test_every_round_decodes_zero_tailed_packets(storage):
    m, k = storage.m, storage.k
    replies = {q: answer(q, storage) for q in enumerate_realizations(m, k)}
    for theta in range(1, k + 1):
        for base in enumerate_realizations(m, k):
            answers = [replies[q] for q in make_queries(theta, base, m)]
            assert decode(theta, base, answers) == list(storage.packets[theta - 1])


def out_of_range_reference(vec, m):
    """The per-entry range test: the reference for the subset test in
    `make_queries`, `decode` and `answer`."""
    return any(not 0 <= q < m for q in vec)


@pytest.mark.parametrize("m, k", [(2, 1), (2, 3), (3, 2), (4, 3)])
def test_range_checks_match_per_entry_reference(m, k):
    storage = random_storage(random.Random(m * 10 + k), m, k)
    outside = f"outside 0..{m - 1}"
    for vec in product((-1, 0, m - 1, m, m + 1), repeat=k):
        bad = out_of_range_reference(vec, m)
        for theta in range(1, k + 1):
            if bad:
                with pytest.raises(ValueError, match=re.escape(f"base vector {vec} has entries {outside}")):
                    make_queries(theta, vec, m)
                with pytest.raises(ValueError, match=re.escape(f"base vector {vec} has entries {outside}")):
                    decode(theta, vec, [SILENT] * m)
            else:
                answers = [answer(q, storage) for q in make_queries(theta, vec, m)]
                assert decode(theta, vec, answers) == list(storage.packets[theta - 1])
        if bad:
            with pytest.raises(ValueError, match=re.escape(f"query {vec} has entries {outside}")):
                answer(vec, storage)
        else:
            answer(vec, storage)


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


@pytest.mark.parametrize("m", [2, 3, 40, 1000])  # 40 and 1000 are past the prebuilt index sets
def test_non_integer_entries_are_outside_the_range(m):
    # a fractional entry lies between two server indices, so it is refused
    # as out of range, not left to fail later at an index; a list entry is
    # refused the same way, not with an unhashable-type TypeError
    storage = random_storage(random.Random(m), m, 2)
    outside = f"has entries outside 0..{m - 1}"
    for vec in ((0, 1.5), (0, [1])):
        with pytest.raises(ValueError, match=re.escape(f"base vector {vec} {outside}")):
            make_queries(1, vec, m)
        with pytest.raises(ValueError, match=re.escape(f"base vector {vec} {outside}")):
            decode(1, vec, [SILENT] * m)
        with pytest.raises(ValueError, match=re.escape(f"query {vec} {outside}")):
            answer(vec, storage)
