"""The (M, K) storage-full retrieval protocol with M-1 packets per file.

One instance runs over a group of M servers (relabeled 0..M-1) that each
hold all K packet sets. Every file is split into M-1 real packets; a
virtual all-zero packet at index M-1 is never stored or sent. The user
draws one base vector q uniformly from [0:M-1]^K and sends server m the
base vector with the wanted file's coordinate shifted by m modulo M. A
server adds up the packets its query points at (index M-1 contributes
nothing) and stays silent when every coordinate points at the virtual
packet. Exactly one server's shifted coordinate lands on M-1; its answer
is the interference term shared by all the others, which then peel out
the M-1 wanted packets.

Inside a round a packet is one little-endian int. Every coefficient is 0
or 1 over the order-256 field, whose addition is bytewise XOR, so every
answer and every decoded packet is an int XOR of whole packets. A group's
storage reads each packet into an int once when it is built, answers
carry an int and the packet size, and `decode` turns each decoded packet
back into bytes once. Widths always come from the packet size, never from
an int's bit length, so zero bytes at either end survive.

Servers never see the wanted index: `answer` takes only the query and the
stored packets. Download cost varies by realization; over all M^K base
vectors the group transmits M^(K+1) - M packets in total. Walks over
them are priced by their caller (`audit`), not by the enumerator.
"""

import random
from dataclasses import dataclass, field
from itertools import product


class ProtocolViolation(RuntimeError):
    """Answers are inconsistent with the protocol's transcript structure."""


@dataclass(frozen=True)
class Answer:
    """A server's reply: one packet as the little-endian int `value` of
    `size` bytes, or silence (`value` None, `size` 0).

    `answer` builds replies from ints as `Answer(value, size)`;
    `Answer(payload)` takes a bytes-like payload (or None for silence) and
    converts it once. Replies are equal when their value and size are, so
    `Answer(b)` equals the reply `answer` computes to the same bytes.
    """

    value: int | None
    size: int = 0

    def __post_init__(self):
        if self.value is not None and not isinstance(self.value, int):
            object.__setattr__(self, "size", len(self.value))
            object.__setattr__(self, "value", int.from_bytes(self.value, "little"))

    @property
    def silent(self) -> bool:
        return self.value is None

    @property
    def payload(self) -> bytes | None:
        """The packet as `size` bytes, built on each read; None when silent."""
        return None if self.value is None else self.value.to_bytes(self.size, "little")


SILENT = Answer(None)


@dataclass(frozen=True)
class GroupStorage:
    """K x (M-1) packet grid held by every server of one group.

    packets[k][i] is packet i of file k+1; all packets have equal length.
    Packets are bytes-like: `scheme.group_storage` hands out memoryview
    slices of the library rather than copies. Building the grid reads each
    packet once into values[k][i], a little-endian int, and keeps the
    common length as `size` (0 when there are no packets); `answer` reads
    only those. The virtual packet at index M-1 is represented by its
    absence.
    """

    m: int
    packets: tuple[tuple[bytes | memoryview, ...], ...]
    values: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need M >= 2, got M={self.m}")
        lengths = {len(p) for row in self.packets for p in row}
        if any(len(row) != self.m - 1 for row in self.packets):
            raise ValueError(f"every file needs exactly {self.m - 1} packets")
        if len(lengths) > 1:
            raise ValueError("packets in one group must have equal length")
        object.__setattr__(self, "size", lengths.pop() if lengths else 0)
        object.__setattr__(self, "values", tuple(
            tuple(int.from_bytes(p, "little") for p in row) for row in self.packets
        ))

    @property
    def k(self) -> int:
        return len(self.packets)


def _check_round(theta: int, base: tuple[int, ...], m: int) -> None:
    """Raise ValueError unless theta is a 1-based file index into base and
    every base entry lies in 0..M-1."""
    k = len(base)
    if not 1 <= theta <= k:
        raise ValueError(f"theta={theta} out of range 1..{k}")
    if min(base) < 0 or max(base) >= m:  # base is not empty: theta indexes it
        raise ValueError(f"base vector {base} has entries outside 0..{m - 1}")


def make_queries(theta: int, base: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Queries for servers 0..M-1: the base vector with coordinate theta
    (1-based) shifted by the server index modulo M."""
    _check_round(theta, base, m)
    queries = []
    for server in range(m):
        vec = list(base)
        vec[theta - 1] = (base[theta - 1] + server) % m
        queries.append(tuple(vec))
    return queries


def answer(query: tuple[int, ...], storage: GroupStorage) -> Answer:
    """A server's reply to one query; independent of which file is wanted.
    It XORs the stored ints its query points at."""
    m = storage.m
    if query and (min(query) < 0 or max(query) >= m):  # empty: left to the K check
        raise ValueError(f"query {query} has entries outside 0..{m - 1}")
    if len(query) != storage.k:
        raise ValueError(f"query length {len(query)} != K={storage.k}")
    if all(q == m - 1 for q in query):
        return SILENT
    value = 0
    for row, q in zip(storage.values, query):
        if q != m - 1:
            value ^= row[q]
    return Answer(value, storage.size)


def decode(theta: int, base: tuple[int, ...], answers: list[Answer]) -> list[bytes]:
    """Recover the M-1 packets of file theta from one round of answers.

    The server whose shifted coordinate landed on M-1 supplied the
    interference term (or stayed silent when the term is empty, which the
    base vector predicts exactly); subtracting it from every other answer
    yields the wanted packets in index order.
    """
    m = len(answers)
    _check_round(theta, base, m)
    shift = base[theta - 1]
    holder = (m - 1 - shift) % m
    # the holder is silent exactly when every other coordinate points at M-1
    expect_silent = base.count(m - 1) - (shift == m - 1) == len(base) - 1
    for server, reply in enumerate(answers):
        silent = reply.value is None
        if silent != (server == holder and expect_silent):
            raise ProtocolViolation(
                f"server {server} with query {make_queries(theta, base, m)[server]} "
                f"{'stayed silent' if silent else 'answered'} unexpectedly"
            )
    sizes = {a.size for a in answers if a.value is not None}
    if len(sizes) > 1:
        raise ProtocolViolation(f"answer payloads have mixed lengths {sorted(sizes)}")
    interference = answers[holder].value or 0
    packets = []
    for index in range(m - 1):  # packet index (shift + server) % M comes from server
        reply = answers[(index - shift) % m]
        packets.append((reply.value ^ interference).to_bytes(reply.size, "little"))
    return packets


def enumerate_realizations(m: int, k: int):
    """All M^K base vectors in lexicographic order, each carrying
    probability 1/M^K under the protocol's uniform draw."""
    return product(range(m), repeat=k)


def random_base_vector(rng: random.Random, m: int, k: int) -> tuple[int, ...]:
    """One uniform draw from [0:M-1]^K."""
    return tuple(rng.randrange(m) for _ in range(k))
