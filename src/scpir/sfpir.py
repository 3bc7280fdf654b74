"""The (M, K) storage-full retrieval protocol with M-1 packets per file.

One instance runs over a group of M servers (relabeled 0..M-1) that each
hold all K packet sets. Every file is split into M-1 real packets; a
virtual all-zero packet at index M-1 is never stored or sent. The user
draws one base vector q uniformly from [0:M-1]^K and sends server m the
base vector with the wanted file's coordinate shifted by m modulo M. That
rule is stated here alone: `make_queries` builds one round's queries, and
`query_positions` gives every round of one file as positions in
`enumerate_realizations` order, the form the audit walks. A server adds
up the packets its query points at (index M-1 contributes nothing) and
stays silent when every coordinate points at the virtual packet. Exactly one server's shifted coordinate lands on M-1; its answer
is the interference term shared by all the others, which then peel out
the M-1 wanted packets.

Inside a round a packet is one little-endian int. Every coefficient is 0
or 1 over the order-256 field, whose addition is bytewise XOR, so every
answer and every decoded packet is an int XOR of whole packets. A group's
storage holds each packet once, as the bytes it was given; `answer` reads
into an int only the packets its query names, replies carry an int and
the packet size, and `decode` turns each decoded packet back into bytes
once. Widths always come from the packet size, never from an int's bit
length, so zero bytes at either end survive.

Servers never see the wanted index: `answer` takes only the query and the
stored packets. Download cost varies by realization; over all M^K base
vectors the group transmits M^(K+1) - M packets in total. Walks over
them are priced by their caller (`audit`), not by the enumerator.
"""

import random
from collections import namedtuple
from collections.abc import Sequence
from itertools import product


class ProtocolViolation(RuntimeError):
    """Answers are inconsistent with the protocol's transcript structure."""


_set = object.__setattr__  # the slots' one writer, past Answer's read-only __setattr__


class Answer:
    """A server's reply: one packet as the little-endian int `value` of
    `size` bytes, or silence (`value` None, `size` 0).

    `answer` builds replies from ints as `Answer(value, size)`;
    `Answer(payload)` takes a bytes-like payload (or None for silence) and
    converts it once. Replies are equal when their value and size are, so
    `Answer(b)` equals the reply `answer` computes to the same bytes. An
    int value must fit in `size` bytes: a negative or wider one raises
    ValueError here, so reading `payload` or decoding never overflows. A
    payload's size is its byte count; a nonzero `size` that differs from it,
    or a value that is neither None, an int nor bytes-like, raises
    ValueError too, as does silence with a nonzero `size`, so `SILENT` is
    the one silent reply. A reply is read-only: its two fields are slots,
    set once by `__init__`, and assigning to either raises AttributeError.
    One is built per answered query, and slot reads keep `decode` fast.
    """

    __slots__ = ("value", "size")

    def __init__(self, value: int | bytes | None, size: int = 0):
        if value is None:
            if size:
                raise ValueError(f"a silent answer has size 0, not {size}")
        elif isinstance(value, int):
            if value < 0:
                raise ValueError("answer value is negative")
            if value.bit_length() > 8 * size:
                raise ValueError(f"answer value of {value.bit_length()} bits does not fit in {size} bytes")
        elif isinstance(value, (bytes, bytearray, memoryview)):
            payload = bytes(value)  # counts bytes, not items, for any buffer format
            if size and size != len(payload):
                raise ValueError(f"answer payload of {len(payload)} bytes given size {size}")
            value, size = int.from_bytes(payload, "little"), len(payload)
        else:
            raise ValueError(f"answer value must be None, an int or bytes-like, not {type(value).__name__}")
        _set(self, "value", value)
        _set(self, "size", size)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a read-only Answer")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value and self.size == other.size

    def __hash__(self):
        return hash((self.value, self.size))

    def __repr__(self):
        return f"Answer(value={self.value!r}, size={self.size!r})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, not by assignment
        return Answer, (self.value, self.size)

    @property
    def silent(self) -> bool:
        return self.value is None

    @property
    def payload(self) -> bytes | None:
        """The packet as `size` bytes, built on each read; None when silent."""
        return None if self.value is None else self.value.to_bytes(self.size, "little")


SILENT = Answer(None)


class GroupStorage(namedtuple("GroupStorage", "m packets size")):
    """K x (M-1) packet grid held by every server of one group, as a
    read-only named tuple (m, packets, size).

    packets[k][i] is packet i of file k+1; all packets have equal length,
    kept as the derived trailing field `size` (0 when there are no
    packets), which the constructor computes and `repr` leaves out.
    Construction, `_make` and `_replace` all check the grid and recompute
    `size`, so no path makes an unchecked grid. Packets are bytes-like:
    `scheme.group_storage` hands out memoryview slices of the library
    rather than copies, and `answer` reads each packet it needs in place.
    The virtual packet at index M-1 is represented by its absence.
    """

    __slots__ = ()

    def __new__(cls, m: int, packets: tuple[tuple[bytes | memoryview, ...], ...]):
        if m < 2:
            raise ValueError(f"need M >= 2, got M={m}")
        lengths = {len(p) for row in packets for p in row}
        if any(len(row) != m - 1 for row in packets):
            raise ValueError(f"every file needs exactly {m - 1} packets")
        if len(lengths) > 1:
            raise ValueError("packets in one group must have equal length")
        return tuple.__new__(cls, (m, packets, lengths.pop() if lengths else 0))

    @classmethod
    def _make(cls, fields):
        m, packets, _size = fields
        return cls(m, packets)

    def __getnewargs__(self):  # copy and pickle rebuild through __new__ from these
        return self[:2]

    def __repr__(self):
        return f"GroupStorage(m={self.m!r}, packets={self.packets!r})"

    @property
    def k(self) -> int:
        return len(self.packets)


_SERVER_SETS = tuple(frozenset(range(m)) for m in range(33))  # built once, for M <= 32
_INT = frozenset((int,))  # the one entry type a query copies: not bool, not float


def _in_range(entries, m: int) -> bool:
    """Whether every entry is a server index 0..M-1: a subset test, or past
    the prebuilt sets one `range` membership test per entry, which costs
    O(K) rather than building M-entry sets. Either way a non-integer entry
    such as 1.5, or an unhashable one such as a list, is outside too."""
    if m < len(_SERVER_SETS):
        try:
            return _SERVER_SETS[m].issuperset(entries)
        except TypeError:
            return False
    return all(map(range(m).__contains__, entries))


def _check_round(theta: int, base: tuple[int, ...], m: int) -> None:
    """Raise ValueError unless the group has M >= 2 servers, theta is a
    1-based file index into base and every base entry lies in 0..M-1."""
    if m < 2:
        raise ValueError(f"need M >= 2, got M={m}")
    k = len(base)
    if not 1 <= theta <= k:
        raise ValueError(f"theta={theta} out of range 1..{k}")
    if not _in_range(base, m):
        raise ValueError(f"base vector {base} has entries outside 0..{m - 1}")


def make_queries(theta: int, base: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Queries for servers 0..M-1: the base vector with coordinate theta
    (1-based) shifted by the server index modulo M. Every base entry must
    be an int: a float or bool equal to an index is refused with ValueError
    rather than copied into the queries."""
    _check_round(theta, base, m)
    if not _INT.issuperset(map(type, base)):
        raise ValueError(f"base vector {base} has entries other than ints")
    vec, wanted, queries = list(base), theta - 1, []
    shift = base[wanted]
    for shifted in range(shift, shift + m):  # one list, overwritten at the wanted coordinate
        vec[wanted] = shifted % m
        queries.append(tuple(vec))
    return queries


def query_positions(theta: int, m: int, k: int) -> list[int]:
    """`make_queries(theta, base, m)` applied to every base in
    `enumerate_realizations(m, k)` order, each query written as its own
    position in that order: M positions per round, building and hashing no
    query. With stride = M^(K-theta), server s's positions in base order
    are each block of M*stride positions rotated left by s*stride; each
    block, or each column where blocks outnumber columns, is one slice into
    every M-th entry from s."""
    table = list(range(m**k))
    n = len(table)
    width = n // m ** (theta - 1)  # M * stride
    flat = [None] * (m * n)
    for s in range(m):
        shift = s * width // m
        if n <= width * width:
            for lo in range(0, n, width):
                flat[lo * m + s : (lo + width) * m : m] = table[lo + shift : lo + width] + table[lo : lo + shift]
        else:
            for column in range(width):
                flat[column * m + s :: width * m] = table[(column + shift) % width :: width]
    return flat


def answer(query: tuple[int, ...], storage: GroupStorage) -> Answer:
    """A server's reply to one query; independent of which file is wanted.
    It XORs, as little-endian ints, the stored packets its query points at."""
    m, packets, size = storage  # one unpacking, not three field reads
    if not _in_range(query, m):  # an empty query passes, and is left to the K check
        raise ValueError(f"query {query} has entries outside 0..{m - 1}")
    if len(query) != len(packets):
        raise ValueError(f"query length {len(query)} != K={len(packets)}")
    virtual = m - 1
    if query.count(virtual) == len(query):
        return SILENT
    value = 0
    for row, q in zip(packets, query):
        if q != virtual:
            value ^= int.from_bytes(row[q], "little")
    return Answer(value, size)


def decode(theta: int, base: tuple[int, ...], answers: Sequence[Answer]) -> list[bytes]:
    """Recover the M-1 packets of file theta from one round of answers.

    The server whose shifted coordinate landed on M-1 supplied the
    interference term (or stayed silent when the term is empty, which the
    base vector predicts exactly); subtracting it from every other answer
    yields the wanted packets in index order. When the holder's silence is
    the predicted one, and its size a sender's if it speaks, one pass over
    the other M-1 replies checks that each speaks at that size and XORs it
    out. The first anomaly ends that pass, and a second walk of the servers
    names the first whose silence is wrong, or else the mixed lengths.
    `answers` may be a list or a tuple.
    """
    m = len(answers)
    _check_round(theta, base, m)
    shift = base[theta - 1]
    holder = (m - 1 - shift) % m
    # the holder is silent exactly when every other coordinate points at M-1
    expect_silent = base.count(m - 1) - (shift == m - 1) == len(base) - 1
    size = answers[holder - 1].size  # a sender's, once only the holder may be silent
    interference = answers[holder].value
    if (interference is None) == expect_silent and (expect_silent or answers[holder].size == size):
        interference = interference or 0
        packets = []
        # packet index i comes from server (i - shift) % M: the servers after the holder
        for reply in answers[holder + 1 :] + answers[:holder]:
            if (value := reply.value) is None or reply.size != size:
                break
            packets.append((value ^ interference).to_bytes(size, "little"))
        else:
            return packets
    for server, reply in enumerate(answers):  # name the first server whose silence is wrong
        silent = reply.value is None
        if silent != (server == holder and expect_silent):
            raise ProtocolViolation(
                f"server {server} with query {make_queries(theta, base, m)[server]} "
                f"{'stayed silent' if silent else 'answered'} unexpectedly"
            )
    # every silence is the predicted one, so a sender's size differs
    sizes = sorted({a.size for a in answers if a.value is not None})
    raise ProtocolViolation(f"answer payloads have mixed lengths {sizes}")


def enumerate_realizations(m: int, k: int):
    """All M^K base vectors in lexicographic order, each carrying
    probability 1/M^K under the protocol's uniform draw."""
    return product(range(m), repeat=k)


def random_base_vector(rng: random.Random, m: int, k: int) -> tuple[int, ...]:
    """One uniform draw from [0:M-1]^K."""
    return tuple(rng.randrange(m) for _ in range(k))
