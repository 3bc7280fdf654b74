"""Composition of per-group retrievals into a storage-constrained scheme.

Each file is cut into contiguous regions, one region per distinct column
of the storage design array, sized by that group's fraction; the region
is further split into M-1 equal packets and replicated on the group's M
servers. Retrieval runs one independent storage-full instance per group
and concatenates the decoded regions. All cost accounting is exact.
`greedy_scheme` alone builds and prices the scheme `simulate` and `audit` run.

File lengths must be multiples of N*(M-1)/gcd(N,M) symbols: every group
fraction is a multiple of gcd(N,M)/N and every region splits M-1 ways, so
this granularity (and nothing smaller) makes all packet sizes integral
for every array this package constructs.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import sda
from .sfpir import Answer, GroupStorage, answer, decode, make_queries


@dataclass(frozen=True)
class FileLibrary:
    """K files of exactly file_len symbols each (one symbol = one byte)."""

    k_files: int
    file_len: int
    data: tuple[bytes, ...]

    def __post_init__(self):
        if len(self.data) != self.k_files:
            raise ValueError(f"expected {self.k_files} files, got {len(self.data)}")
        if any(len(f) != self.file_len for f in self.data):
            raise ValueError(f"every file must have exactly {self.file_len} symbols")

    def file(self, index: int) -> bytes:
        """File by 1-based index."""
        return self.data[index - 1]


@dataclass(frozen=True)
class GroupRegion:
    """One group's slice of every file: which servers hold it and where
    in the file it lives."""

    servers: tuple[int, ...]
    group_bytes: int
    packet_bytes: int
    file_offset: int


@dataclass(frozen=True)
class PacketLayout:
    n: int
    m: int
    file_len: int
    groups: tuple[GroupRegion, ...]


@dataclass(frozen=True)
class StoragePlan:
    """Per-server inventory: which groups a server stores and the exact
    symbol count that costs, which always equals M*K*L/N."""

    n: int
    m: int
    k: int
    file_len: int
    per_server: dict[int, tuple[int, ...]]
    capacity_used: dict[int, int]


@dataclass(frozen=True)
class GroupTranscript:
    group: int
    servers: tuple[int, ...]
    base: tuple[int, ...]
    queries: tuple[tuple[int, ...], ...]
    answers: tuple[Answer, ...]


@dataclass(frozen=True)
class RetrievalTranscript:
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


# One retrieval over the greedy (N, M) array runs eta_recursion(N, M) rounds of
# M queries of K symbols on a K x L-byte library. Whole `scpir simulate` runs
# (Python 3.11, shared 2-CPU host) cost about 4.6 KB per round at M = 2, K = 1,
# the dearest shape per query symbol, and about three times the library bytes:
# (32768, 2, 1) with --l-mult 1024 meets both bounds and took 1.8 s and 143 MiB.
MAX_ROUND_SYMBOLS = 2**15
MAX_LIBRARY_BYTES = 2**24


def plan_storage(alpha: sda.AlphaAssignment, k: int, file_len: int):
    """Turn a group-fraction assignment into a packet layout and a
    per-server storage plan.

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
    for servers, fraction in alpha.entries.items():
        # a region of multiplicity * gcd(N,M)/N of the file splits into M-1
        # packets of multiplicity * file_len/base symbols each; the
        # fractions sum to 1, so the regions cover the file
        multiplicity, rest = divmod(fraction.numerator * n, fraction.denominator * g)
        if rest:
            raise ValueError(f"group {servers} fraction {fraction} is not a multiple of {g}/{n}")
        packet_bytes = multiplicity * (file_len // base)
        groups.append(
            GroupRegion(
                servers=tuple(sorted(servers)),
                group_bytes=packet_bytes * (m - 1),
                packet_bytes=packet_bytes,
                file_offset=offset,
            )
        )
        offset += packet_bytes * (m - 1)
    layout = PacketLayout(n, m, file_len, tuple(groups))

    stored: dict[int, list[int]] = {server: [] for server in range(1, n + 1)}
    capacity = dict.fromkeys(stored, 0)
    for i, region in enumerate(groups):
        for server in region.servers:
            stored[server].append(i)
            capacity[server] += k * region.group_bytes
    per_server = {server: tuple(held) for server, held in stored.items()}
    return layout, StoragePlan(n, m, k, file_len, per_server, capacity)


def greedy_scheme(n: int, m: int, k: int, l_mult: int, seed: int):
    """(layout, plan, library) over the greedy (N, M) array, with K seeded
    files of l_mult minimal lengths. Refuses from closed forms, before
    building, in this order: bad (N, M), M < 2 or K < 1, an l_mult that is
    not a positive integer, then more than MAX_ROUND_SYMBOLS query symbols
    (groups * M * K) or MAX_LIBRARY_BYTES."""
    sda.require_params(n, m)
    require_retrieval_params(m, k)
    if not isinstance(l_mult, int) or l_mult < 1:
        raise ValueError("l-mult must be a positive integer")
    symbols = sda.eta_recursion(n, m) * m * k
    file_len = l_mult * minimal_length(n, m)
    library = k * file_len
    if symbols > MAX_ROUND_SYMBOLS or library > MAX_LIBRARY_BYTES:
        raise ValueError(
            f"a retrieval over ({n}, {m}) with K={k} sends {symbols} query symbols and draws a "
            f"{library}-byte library; the bounds are {MAX_ROUND_SYMBOLS} and {MAX_LIBRARY_BYTES}"
        )
    alpha = sda.alpha_from_profile(sda.column_profile(sda.build_greedy(n, m)))
    layout, plan = plan_storage(alpha, k, file_len)
    return layout, plan, random_library(k, file_len, seed)


def group_storage(layout: PacketLayout, group: int, library: FileLibrary) -> GroupStorage:
    """The K x (M-1) packet grid every server of one group holds, as
    zero-copy memoryview slices of the library's files."""
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
    rounds = []
    segments = []
    downloaded = 0
    for index, region in enumerate(layout.groups):
        storage = group_storage(layout, index, library)
        base = tuple(base_vectors[index])
        queries = make_queries(theta, base, layout.m)
        answers = [answer(q, storage) for q in queries]
        segments.append(b"".join(decode(theta, base, answers)))
        downloaded += sum(a.size for a in answers if not a.silent)
        rounds.append(
            GroupTranscript(index, region.servers, base, tuple(queries), tuple(answers))
        )
    return RetrievalTranscript(theta, tuple(rounds), downloaded, b"".join(segments))


def average_download(layout: PacketLayout, k: int) -> Fraction:
    """The paper's closed form for the expected download in symbols over the
    uniform base-vector draw: L * (1 + 1/M + ... + 1/M^(K-1)) with L the
    layout's file_len, i.e. file length over capacity."""
    return layout.file_len * sum(Fraction(1, layout.m**i) for i in range(k))
