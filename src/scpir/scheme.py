"""Composition of per-group retrievals into a storage-constrained scheme.

Each file is cut into contiguous regions, one region per distinct column
of the storage design array, sized by that group's fraction; the region
is further split into M-1 equal packets and replicated on the group's M
servers. Retrieval runs one independent storage-full instance per group
and concatenates the decoded regions. All cost accounting is exact.

File lengths must be multiples of N*(M-1)/gcd(N,M) symbols: every group
fraction is a multiple of gcd(N,M)/N and every region splits M-1 ways, so
this granularity (and nothing smaller) makes all packet sizes integral
for every array this package constructs.
"""

import random
from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import sda
from .sfpir import Answer, GroupStorage, answer, decode, make_queries


class FileLibrary(namedtuple("FileLibrary", "k_files file_len data")):
    """K files of exactly file_len symbols each (one symbol = one byte), as
    a read-only named tuple. Construction, `_make` and `_replace` all check
    the file count and lengths."""

    __slots__ = ()

    def __new__(cls, k_files: int, file_len: int, data: tuple[bytes, ...]):
        if len(data) != k_files:
            raise ValueError(f"expected {k_files} files, got {len(data)}")
        if any(len(f) != file_len for f in data):
            raise ValueError(f"every file must have exactly {file_len} symbols")
        return tuple.__new__(cls, (k_files, file_len, data))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def file(self, index: int) -> bytes:
        """File by 1-based index."""
        return self.data[index - 1]


class GroupRegion(NamedTuple):
    """One group's slice of every file: which servers hold it and where
    in the file it lives."""

    servers: tuple[int, ...]
    group_bytes: int
    packet_bytes: int
    file_offset: int


class PacketLayout(NamedTuple):
    n: int
    m: int
    file_len: int
    groups: tuple[GroupRegion, ...]


class StoragePlan(NamedTuple):
    """What K files cost each server under a `PacketLayout`, which owns N,
    M, L and which servers hold each region: capacity_used[s] is server
    s's exact symbol count, which always equals M*K*L/N."""

    k: int
    capacity_used: dict[int, int]


class GroupTranscript(NamedTuple):
    group: int
    servers: tuple[int, ...]
    base: tuple[int, ...]
    queries: tuple[tuple[int, ...], ...]
    answers: tuple[Answer, ...]


class RetrievalTranscript(NamedTuple):
    theta: int
    groups: tuple[GroupTranscript, ...]
    downloaded_symbols: int
    decoded_file: bytes


def minimal_length(n: int, m: int) -> int:
    """Smallest admissible file length: N*(M-1)/gcd(N,M) symbols."""
    return n * (m - 1) // gcd(n, m)


def random_library(k: int, file_len: int, seed: int) -> FileLibrary:
    """K pseudo-random files, reproducible from the seed."""
    rng = random.Random(seed)
    return FileLibrary(k, file_len, tuple(rng.randbytes(file_len) for _ in range(k)))


def require_retrieval_params(m: int, k: int) -> None:
    """Raise ValueError unless M >= 2 servers per group and K >= 1 files."""
    if m < 2:
        raise ValueError("M=1 retrieval is out of scope: the user would download every file")
    if k < 1:
        raise ValueError(f"need at least one file, got K={k}")


def plan_storage(alpha: sda.AlphaAssignment, k: int, file_len: int):
    """Turn a group-fraction assignment into a packet layout and the
    storage plan that prices it per server.

    Groups receive contiguous file regions in assignment order. alpha is
    valid by construction, whether it came from an array, an oracle
    witness or a hand-built dict. Raises ValueError when M < 2, K < 1,
    file_len is not a multiple of the layout granularity, or a fraction is
    not a multiple of gcd(N,M)/N.
    """
    n, m = alpha.n, alpha.m
    require_retrieval_params(m, k)
    base = minimal_length(n, m)
    if file_len <= 0 or file_len % base:
        raise ValueError(
            f"file length {file_len} is not a positive multiple of {base} = N(M-1)/gcd(N,M)"
        )
    g = gcd(n, m)
    groups = []
    offset = 0
    capacity = dict.fromkeys(range(1, n + 1), 0)
    for servers, fraction in alpha.entries.items():
        # a region of multiplicity * gcd(N,M)/N of the file splits into M-1
        # packets of multiplicity * file_len/base symbols each; the
        # fractions sum to 1, so the regions cover the file
        multiplicity, rest = divmod(fraction.numerator * n, fraction.denominator * g)
        if rest:
            raise ValueError(f"group {servers} fraction {fraction} is not a multiple of {g}/{n}")
        packet_bytes = multiplicity * (file_len // base)
        group_bytes = packet_bytes * (m - 1)
        groups.append(GroupRegion(tuple(sorted(servers)), group_bytes, packet_bytes, offset))
        offset += group_bytes
        for server in servers:
            capacity[server] += k * group_bytes
    return PacketLayout(n, m, file_len, tuple(groups)), StoragePlan(k, capacity)


def group_storage(layout: PacketLayout, group: int, library: FileLibrary) -> GroupStorage:
    """The K x (M-1) packet grid every server of one group holds, as
    zero-copy memoryview slices of the library's files. Raises ValueError
    when the library's files are not the layout's L symbols long."""
    if library.file_len != layout.file_len:
        raise ValueError(f"a library of {library.file_len}-symbol files "
                         f"does not match L={layout.file_len}")
    region = layout.groups[group]
    p = region.packet_bytes
    packets = tuple(
        tuple(
            view[region.file_offset + i * p : region.file_offset + (i + 1) * p]
            for i in range(layout.m - 1)
        )
        for view in map(memoryview, library.data)
    )
    return GroupStorage(layout.m, packets)


def retrieve(
    theta: int,
    plan: StoragePlan,
    layout: PacketLayout,
    library: FileLibrary,
    base_vectors: list[tuple[int, ...]],
) -> RetrievalTranscript:
    """Run one full private retrieval of file theta.

    Each group gets its own base vector and an independent protocol round
    over its M servers; the decoded regions concatenate to the file. The
    servers' answer rule never sees theta.
    """
    if not 1 <= theta <= plan.k:
        raise ValueError(f"theta={theta} out of range 1..{plan.k}")
    if len(base_vectors) != len(layout.groups):
        raise ValueError(f"need one base vector per group ({len(layout.groups)})")
    if (library.k_files, library.file_len) != (plan.k, layout.file_len):
        raise ValueError(f"a library of {library.k_files} files of {library.file_len} symbols "
                         f"does not match K={plan.k} and L={layout.file_len}")
    rounds = []
    segments = []
    downloaded = 0
    for index, region in enumerate(layout.groups):
        storage = group_storage(layout, index, library)
        base = tuple(base_vectors[index])
        queries = make_queries(theta, base, layout.m)
        answers = [answer(q, storage) for q in queries]
        segments.append(b"".join(decode(theta, base, answers)))
        downloaded += sum(a.size for a in answers)
        rounds.append(
            GroupTranscript(index, region.servers, base, tuple(queries), tuple(answers))
        )
    return RetrievalTranscript(theta, tuple(rounds), downloaded, b"".join(segments))


def average_download(layout: PacketLayout, k: int) -> Fraction:
    """The paper's closed form for the expected download in symbols over the
    uniform base-vector draw: L * (1 + 1/M + ... + 1/M^(K-1)) with L the
    layout's file_len, i.e. file length over capacity."""
    return layout.file_len * sum(Fraction(1, layout.m**i) for i in range(k))
