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

Servers never see the wanted index: `answer` takes only the query and the
stored packets. Download cost varies by realization; over all M^K base
vectors the group transmits M^(K+1) - M packets in total. Walks over
them are priced by their caller (`audit`), not by the enumerator.
"""

import random
from dataclasses import dataclass
from itertools import product

from .packets import DUMMY, add_packets, sum_packets


class ProtocolViolation(RuntimeError):
    """Answers are inconsistent with the protocol's transcript structure."""


@dataclass(frozen=True)
class Answer:
    """A server's reply: a packet payload, or None when it kept silent."""

    payload: bytes | None

    @property
    def silent(self) -> bool:
        return self.payload is None


SILENT = Answer(None)


@dataclass(frozen=True)
class GroupStorage:
    """K x (M-1) packet grid held by every server of one group.

    packets[k][i] is packet i of file k+1; all packets have equal length.
    Packets are bytes-like: `scheme.group_storage` hands out memoryview
    slices of the library rather than copies, while answers built from
    them are always `bytes`. The virtual packet at index M-1 is
    represented by its absence.
    """

    m: int
    packets: tuple[tuple[bytes | memoryview, ...], ...]

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need M >= 2, got M={self.m}")
        lengths = {len(p) for row in self.packets for p in row}
        if any(len(row) != self.m - 1 for row in self.packets):
            raise ValueError(f"every file needs exactly {self.m - 1} packets")
        if len(lengths) > 1:
            raise ValueError("packets in one group must have equal length")

    @property
    def k(self) -> int:
        return len(self.packets)


def _check_round(theta: int, base: tuple[int, ...], m: int) -> None:
    """Raise ValueError unless theta is a 1-based file index into base and
    every base entry lies in 0..M-1."""
    k = len(base)
    if not 1 <= theta <= k:
        raise ValueError(f"theta={theta} out of range 1..{k}")
    if any(not 0 <= q < m for q in base):
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
    """A server's reply to one query; independent of which file is wanted."""
    m = storage.m
    if any(not 0 <= q < m for q in query):
        raise ValueError(f"query {query} has entries outside 0..{m - 1}")
    if len(query) != storage.k:
        raise ValueError(f"query length {len(query)} != K={storage.k}")
    if all(q == m - 1 for q in query):
        return SILENT
    return Answer(sum_packets(storage.packets[k][q] for k, q in enumerate(query) if q != m - 1))


def decode(theta: int, base: tuple[int, ...], answers: list[Answer]) -> list[bytes]:
    """Recover the M-1 packets of file theta from one round of answers.

    The server whose shifted coordinate landed on M-1 supplied the
    interference term (or stayed silent when the term is empty, which the
    base vector predicts exactly); subtracting it from every other answer
    yields the wanted packets in index order.
    """
    m = len(answers)
    _check_round(theta, base, m)
    holder = (m - 1 - base[theta - 1]) % m
    expect_silent = all(q == m - 1 for i, q in enumerate(base) if i != theta - 1)
    for server, reply in enumerate(answers):
        should = server == holder and expect_silent
        if reply.silent != should:
            raise ProtocolViolation(
                f"server {server} with query {make_queries(theta, base, m)[server]} "
                f"{'stayed silent' if reply.silent else 'answered'} unexpectedly"
            )
    interference = DUMMY if answers[holder].silent else answers[holder].payload
    lengths = {len(a.payload) for a in answers if not a.silent}
    if len(lengths) > 1:
        raise ProtocolViolation(f"answer payloads have mixed lengths {sorted(lengths)}")
    packets = [DUMMY] * (m - 1)
    for server in range(m):
        if server == holder:
            continue
        index = (base[theta - 1] + server) % m
        packets[index] = add_packets(answers[server].payload, interference)
    return packets


def enumerate_realizations(m: int, k: int):
    """All M^K base vectors in lexicographic order, each carrying
    probability 1/M^K under the protocol's uniform draw."""
    return product(range(m), repeat=k)


def random_base_vector(rng: random.Random, m: int, k: int) -> tuple[int, ...]:
    """One uniform draw from [0:M-1]^K."""
    return tuple(rng.randrange(m) for _ in range(k))
