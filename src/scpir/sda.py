"""Storage design arrays: construction, analysis, and serialization.

An (N, M) storage design array has N/gcd(N,M) columns, each a set of
exactly M of the N servers, and puts every server in exactly
M/gcd(N,M) columns. Each distinct column names a group of M servers that
jointly store one slice of every file; the column multiplicities fix the
slice sizes. An array is held as its column sequence; the N-row
star/blank grid exists only in the text format. Three constructions live
here:

* an equal-size construction whose columns are cyclic server windows
  (all columns distinct),
* a greedy construction that repeats columns as much as possible, and
* an improved block construction for N = d*M +/- 1 built from a fixed
  (2M+1, M) template and its star/blank complement.

Every sub-packetization closed form in (N, M) lives here alone:
`eta_equal`, `eta_recursion` (greedy) and `improved_family` count each
construction's distinct columns, `eta_lower_bound` is the floor for any
array, and `gap_bound` is greedy's worst-case factor over that floor.
`closed_forms` computes all but the improved family's from one
validation and one gcd, and the four per-quantity functions read their
entry of it.

Everything is pure and exact; alpha values are `fractions.Fraction`.

Arrays and alphas are valid by construction: `StorageDesignArray` runs
`validate` and `AlphaAssignment` runs `check` whenever one is made, by
its constructor, `_make` or `_replace` alike, so each fact is checked
once, and every function that reads one trusts it. `validate`
reads the columns once, in column order, and the array keeps the groups
it finds: the distinct columns as `subsets`, their counts as
`multiplicities`. Every construction, and every array `parse_sda` reads,
holds one tuple per distinct column, shared by its repeats, and fills its
columns from one pool of the N server ints: a builder slices each column
from one tuple of them, made once per build after the price check, and
`opposite` takes them from one set. So a built or parsed array holds at
most N int objects, and a held server entry costs one 8-byte pointer.
Each builder, `opposite` included, refuses an array of over
MAX_BUILD_ENTRIES server entries (eta*M) before making a column.
"""

import re
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain, groupby
from math import gcd, lcm
from types import MappingProxyType

Columns = tuple[tuple[int, ...], ...]
_INT = frozenset((int,))  # the one server type: not bool, not float


class StorageDesignArray(namedtuple("StorageDesignArray", "n m column_sets subsets multiplicities")):
    """An (N, M) array as its column sequence: column_sets[j] is the sorted
    tuple of 1-based servers starred in column j. It is a read-only named
    tuple whose two trailing fields are derived, not given: construction
    raises ValueError unless the array passes `validate`, and keeps the
    groups `validate` read, the distinct columns in first-occurrence order
    as `subsets` and their counts as `multiplicities`. `repr` leaves the
    derived fields out, and `_make` and `_replace` rebuild through the
    constructor, so they validate again and recompute them."""

    __slots__ = ()

    def __new__(cls, n: int, m: int, column_sets: Columns):
        # validate reads N, M and the columns of a provisional array with no groups yet
        subsets, multiplicities = validate(tuple.__new__(cls, (n, m, column_sets, (), ())))
        return tuple.__new__(cls, (n, m, column_sets, subsets, multiplicities))

    @classmethod
    def _make(cls, fields):
        n, m, column_sets, _subsets, _multiplicities = fields
        return cls(n, m, column_sets)

    def __getnewargs__(self):  # copy and pickle rebuild through __new__ from these
        return self[:3]

    def __repr__(self):
        return f"StorageDesignArray(n={self.n!r}, m={self.m!r}, column_sets={self.column_sets!r})"

    @property
    def columns(self) -> int:
        return len(self.column_sets)

    @property
    def eta(self) -> int:
        return len(self.subsets)


class AlphaAssignment(namedtuple("AlphaAssignment", "n m entries")):
    """Normalized per-group file fractions keyed by server subset, as a
    read-only named tuple.

    entries preserves group order (first occurrence in the source array).
    Every subset has size m, every value is a positive rational, each
    server's values sum to exactly m/n, and the whole map sums to 1;
    construction, `_make` and `_replace` raise ValueError unless `check`
    passes, and entries is a read-only copy of the given map.
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int, entries: Mapping[tuple[int, ...], Fraction]):
        self = tuple.__new__(cls, (n, m, MappingProxyType(dict(entries))))
        self.check()
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def check(self) -> None:
        """Raise ValueError if any invariant fails."""
        for subset, value in self.entries.items():
            if not isinstance(value, (int, Fraction)):
                raise ValueError(f"group {subset} has size {value}, not an exact rational")
        # exact integer arithmetic in units of 1/den of a file
        den = lcm(*(value.denominator for value in self.entries.values()))
        n, m = self.n, self.m
        held = [0] * (n + 1)  # held[s]: server s's units of each file
        total = 0
        for subset, value in self.entries.items():
            if len(set(subset)) != m:
                raise ValueError(f"group {subset} does not have {m} distinct servers")
            if subset and not 1 <= min(subset) <= max(subset) <= n:
                raise ValueError(f"group {subset} has a server outside 1..{n}")
            units = value.numerator * (den // value.denominator)
            if units <= 0:  # den > 0, so units has the sign of value
                raise ValueError(f"group {subset} has non-positive size {value}")
            total += units
            for s in subset:
                held[s] += units
        if total != den:
            raise ValueError("group sizes do not sum to 1")
        if n and not m * den % n and held.count(m * den // n) == n:
            return  # one C pass: every server holds m/n of each file
        for server in range(1, n + 1):  # names the first server that does not
            if held[server] * n != m * den:
                raise ValueError(
                    f"server {server} holds {Fraction(held[server], den)} of each file, "
                    f"expected {Fraction(m, n)}"
                )


def require_params(n: int, m: int) -> None:
    """Raise ValueError unless 1 <= M <= N."""
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= M <= N, got N={n}, M={m}")


def _ints(column) -> bool:
    """Whether the column is a tuple of ints, counting no bool or float as one."""
    return isinstance(column, tuple) and _INT.issuperset(map(type, column))


def validate(sda: StorageDesignArray) -> tuple[Columns, tuple[int, ...]]:
    """Raise ValueError unless the array has N/gcd(N,M) columns, each a
    sorted tuple of exactly M distinct servers in 1..N, and stars every
    server in exactly M/gcd(N,M) columns. Columns are read once, in column
    order, a run of equal columns as one, and a repeat of a column already
    read is only counted, so a message names the first bad column; rows are
    checked once every column is good, and a message names the first bad
    row. Servers are ints, never bools or floats. A repeat is only counted
    when it is the very tuple checked for its column, as in every array the
    builders and `parse_sda` make; any other equal tuple, such as
    (1.0, 2.0) for (1, 2), gets the int test. Returns the distinct columns
    it checked, in first-occurrence order, and their counts: the array's
    `subsets` and `multiplicities`."""
    require_params(sda.n, sda.m)
    g = gcd(sda.n, sda.m)
    if sda.columns != sda.n // g:
        raise ValueError(f"array has {sda.columns} columns, expected {sda.n // g}")
    invalid = f"not a valid ({sda.n},{sda.m}) storage design array: "
    not_servers = f" is not a sorted tuple of distinct servers in 1..{sda.n}"
    groups = {}  # distinct column -> [the tuple checked for it, multiplicity], in first-occurrence order
    j = 1  # the first column of the run
    for _, run in groupby(sda.column_sets, id):  # a run of one tuple object, counted in C
        run = list(run)
        column = run[0]
        try:
            group = groups.get(column)
        except TypeError:  # unhashable, such as a list: the tuple check refuses it
            group = None
        if group is None:  # not read before, so checked where it stands
            canonical = _ints(column) and list(column) == sorted(set(column))
            # sorted and distinct, so its first and last servers bound the rest
            if not canonical or column and not 1 <= column[0] <= column[-1] <= sda.n:
                raise ValueError(f"column {j}{not_servers}")
            if len(column) != sda.m:
                raise ValueError(invalid + f"column {j} has {len(column)} stars, expected {sda.m}")
            group = groups[column] = [column, 0]
        elif column is not group[0] and not _ints(column):  # equal to a checked column, but of other types
            raise ValueError(f"column {j}{not_servers}")
        group[1] += len(run)
        j += len(run)
    stars = [0] * (sda.n + 1)
    for column, count in groups.values():
        for s in column:
            stars[s] += count
    per_row = sda.m // g
    if stars.count(per_row) != sda.n:  # one C pass; the loop names the first bad row
        for server in range(1, sda.n + 1):
            if stars[server] != per_row:
                problem = f"row {server} has {stars[server]} stars, expected {per_row}"
                raise ValueError(invalid + problem)
    return tuple(groups), tuple(count for _, count in groups.values())


def column_profile(sda: StorageDesignArray) -> StorageDesignArray:
    """The array itself, which carries its groups and counts; kept only
    because the benchmark (`perfbench/workloads.py`) calls and traces it."""
    return sda


def alpha_from_profile(sda: StorageDesignArray) -> AlphaAssignment:
    """Per-group file fractions of an array: multiplicity * gcd(N,M)/N for
    each of its groups, checked once, as the assignment is made."""
    g = gcd(sda.n, sda.m)
    entries = {
        subset: Fraction(count * g, sda.n)
        for subset, count in zip(sda.subsets, sda.multiplicities)
    }
    return AlphaAssignment(sda.n, sda.m, entries)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def build_equal_size(n: int, m: int) -> StorageDesignArray:
    """Array whose column j stars the cyclic window of M servers starting
    at (j-1)*M mod N; all N/gcd(N,M) columns are distinct, and priced first."""
    require_params(n, m)
    eta = _priced("equal", n, m, n // gcd(n, m))
    servers = tuple(range(n + 1))
    starts = (j * m % n for j in range(eta))  # each window holds servers start+1..start+M
    windows = (servers[start + 1 : start + m + 1] if start + m <= n
               else servers[1 : start + m - n + 1] + servers[start + 1 :] for start in starts)
    return StorageDesignArray(n, m, tuple(windows))


def eta_equal(n: int, m: int) -> int:
    """Distinct-column count of `build_equal_size`: N/gcd(N,M), as no window repeats."""
    return closed_forms(n, m)[1]


def build_greedy(n: int, m: int) -> StorageDesignArray:
    """Greedy array: repeat each column as often as the row constraint
    allows, then continue on the uncovered corner.

    For coprime (n, m) with n >= 2m, the first m columns star servers 1..m
    and the (n-m, m) array follows on servers m+1..n. For m < n < 2m, the
    first n-m columns star servers 1..m and the (m, 2m-n) array follows on
    servers 1..m, with servers m+1..n added to each of its columns. These
    are the steps `closed_forms` counts, one distinct column each, priced
    first. When gcd(N,M) = g > 1 the (N/g, M/g) array is stacked g times.
    """
    g, _, eta, *_ = closed_forms(n, m)
    _priced("greedy", n, m, eta)
    servers = tuple(range(n + 1))
    block = n // g

    # the corner left to fill is the (a, b) array on servers shift+1..shift+a,
    # and every server above it, up to the block's end, is added to each of
    # its columns: a strip moves shift and a together, and a flip hands the
    # corner's top a-b servers to that tail
    a, b = block, m // g
    shift, columns = 0, []

    def column(stars):  # the corner's first stars servers and the tail, on each block
        return tuple(chain.from_iterable(
            servers[r + shift + 1 : r + shift + stars + 1] + servers[r + shift + a + 1 : r + block + 1]
            for r in range(0, n, block)))

    while a > 1:
        if a >= 2 * b:
            columns += [column(b)] * b
            shift, a = shift + b, a - b
        else:
            columns += [column(b)] * (a - b)
            a, b = b, 2 * b - a
    columns.append(column(1))
    return StorageDesignArray(n, m, tuple(columns))


def eta_recursion(n: int, m: int) -> int:
    """Distinct-column count of the greedy construction, in closed recursive
    form: strip a repeated block, recurse on the remainder, count one per step.
    A run of strips is one division, so this takes O(log N) steps like Euclid."""
    return closed_forms(n, m)[2]


def build_q_array(m: int) -> StorageDesignArray:
    """The fixed (2M+1, M) template with ceil(M/2)+3 distinct columns, priced first.

    With h = floor(M/2), D = 2 (even M) or 3 (odd M) and N = 2M+1, the
    columns are, in order:
      M-1 columns      servers 1..M
      2h columns       the band M+1..N-h plus every bottom server
                       N-h+1..N but the t-th, for t = 1..h, twice over
      D columns        column c takes servers c, c+D, ... up to
                       D*ceil(M/2), plus every bottom server
    In the grid, the last D columns are ceil(M/2) stacked DxD diagonal
    blocks over the top rows, and the bottom h rows of the band columns
    are two square blocks starred everywhere except the diagonal.
    """
    if m < 2:
        raise ValueError(f"need M >= 2, got M={m}")
    n = 2 * m + 1
    _priced("template", n, m, (m + 1) // 2 + 3)
    servers = tuple(range(n + 1))
    half, spread = m // 2, 2 + m % 2
    band, bottom = servers[m + 1 : n - half + 1], servers[n - half + 1 :]
    columns = [servers[1 : m + 1]] * (m - 1)
    columns += [band + bottom[:t] + bottom[t + 1 :] for t in range(half)] * 2
    top = spread * (m - half)
    columns += [servers[c : top + 1 : spread] + bottom for c in range(1, spread + 1)]
    return StorageDesignArray(n, m, tuple(columns))


def opposite(sda: StorageDesignArray) -> StorageDesignArray:
    """Swap stars and blanks: an (N, M) array becomes an (N, N-M) array,
    priced first, with the same distinct columns, each flipped once."""
    if sda.m == sda.n:
        raise ValueError("opposite of a full-replication array has empty columns")
    _priced("opposite", sda.n, sda.n - sda.m, sda.eta)
    servers = frozenset(range(1, sda.n + 1))
    flipped = {c: tuple(sorted(servers.difference(c))) for c in sda.subsets}
    return StorageDesignArray(sda.n, sda.n - sda.m, tuple(flipped[c] for c in sda.column_sets))


def improved_family(n: int, m: int) -> tuple[int, bool, int] | None:
    """(d, plus, eta) when N = d*M + 1 (plus) or N = d*M - 1 (minus) for
    some d >= 2 and M >= 3; None when (N, M) is outside the family.

    eta is the distinct-column count of `build_improved`:
    d + ceil(M/2) + 1 (plus) or d + floor(M/2) + 1 (minus).
    """
    if m < 3:
        return None
    if n % m == 1 and n // m >= 2:
        return n // m, True, n // m + (m + 1) // 2 + 1
    if n % m == m - 1 and (n + 1) // m >= 2:
        return (n + 1) // m, False, (n + 1) // m + m // 2 + 1
    return None


def build_improved(n: int, m: int) -> StorageDesignArray:
    """Block-diagonal array for the `improved_family` (N, M): d-2 full MxM
    star blocks followed by the fixed template (plus case) or the
    complement of the (M-1) template (minus case); priced by its eta first."""
    if m < 3:
        raise ValueError(f"need M >= 3, got M={m}")
    family = improved_family(n, m)
    if family is None:
        raise ValueError(f"N={n} is not d*{m}+1 or d*{m}-1 for any d >= 2")
    d, plus, eta = family
    _priced("improved", n, m, eta)
    servers = tuple(range(n + 1))
    tail = build_q_array(m) if plus else opposite(build_q_array(m - 1))
    if d == 2:  # no full block: the tail is the whole array, on servers 1..N already
        return tail
    columns = []
    for block in range(0, (d - 2) * m, m):
        columns += [servers[block + 1 : block + m + 1]] * m
    shifted = servers[(d - 2) * m :]  # shifted[s] is the template's server s here
    moved = {c: tuple(map(shifted.__getitem__, c)) for c in tail.subsets}
    columns += [moved[c] for c in tail.column_sets]
    return StorageDesignArray(n, m, tuple(columns))


def eta_lower_bound(n: int, m: int) -> int:
    """Floor on the distinct-column count of any feasible group support:
    max(ceil(N/M), ceil(N/(N-M))), or 1 for full replication."""
    return closed_forms(n, m)[4]


def gap_bound(n: int, m: int) -> int:
    """Greedy's worst-case factor over the floor: min(M, N-M)/gcd(N,M), or 1 if M = N."""
    return closed_forms(n, m)[5]


def closed_forms(n: int, m: int) -> tuple[int, int, int, int | None, int, int]:
    """(gcd, eta_equal, eta_recursion, eta_improved, eta_lower_bound,
    gap_bound) of (N, M) from one `require_params` and one gcd;
    eta_improved is `improved_family`'s eta, or None outside the family.

    The one place each of these forms is computed: the per-quantity
    functions read their entry, `analyze` reads all six per row, and
    `audit.subpacketization_audit` reads its five once.
    """
    require_params(n, m)
    g = gcd(n, m)
    # greedy: strip a run of repeated b-blocks off the coprime (a, b)
    # corner, or flip it to (b, 2b - a); one distinct column per step
    a, b = n // g, m // g
    steps = 1
    while a > 1:
        if a >= 2 * b:
            strips = a // b - 1  # each strip of b leaves a >= b
            a, steps = a - strips * b, steps + strips
        else:
            a, b = b, 2 * b - a
            steps += 1
    family = improved_family(n, m)
    if m == n:
        lower, gap = 1, 1
    else:
        lower, gap = max(-(-n // m), -(-n // (n - m))), min(m, n - m) // g
    return g, n // g, steps, None if family is None else family[2], lower, gap


# ---------------------------------------------------------------------------
# Size bounds and text format
# ---------------------------------------------------------------------------


# A built array holds eta*M server entries, one tuple per distinct column,
# at one 8-byte pointer each into the shared server ints (tracemalloc reads
# 8.1 B per entry for greedy (1000, 999) and equal (2000, 999)). Whole
# `scpir build` runs of greedy (N, N-1), which also render the text grid
# (Python 3.11, shared 2-CPU host), took 0.24-0.35 s and 27 MiB at
# N = 1000, 0.9 s and 69 MiB at N = 2236 (4,997,460 entries, the largest
# under this bound) and 1.6 s and 111 MiB at N = 3000 with the bound
# raised; N = 10^4 would hold about 10^8 entries.
MAX_BUILD_ENTRIES = 5 * 10**6
MAX_RENDER_CELLS = 10**8  # 100 MB of text; rendering holds about 3 bytes per cell


def _priced(name: str, n: int, m: int, eta: int) -> int:
    """Price an array: eta, or ValueError if its eta*M entries exceed MAX_BUILD_ENTRIES."""
    if eta * m > MAX_BUILD_ENTRIES:
        raise ValueError(f"the {name} ({n}, {m}) array holds eta*M = {eta}*{m} = {eta * m} "
                         f"server entries, over the bound of {MAX_BUILD_ENTRIES}")
    return eta


def check_renderable(n: int, m: int) -> None:
    """Raise ValueError unless 1 <= M <= N and the (N, M) star grid,
    N x N/gcd(N,M) cells, is within MAX_RENDER_CELLS; needs no array."""
    require_params(n, m)
    columns = n // gcd(n, m)
    if n * columns > MAX_RENDER_CELLS:
        raise ValueError(
            f"the {n} x {columns} star grid has {n * columns} cells, "
            f"over the text format's bound of {MAX_RENDER_CELLS}"
        )


def render_sda(sda: StorageDesignArray) -> str:
    """Serialize as a header line "N M" plus one '*'/'.' line per server;
    raise ValueError for a grid of more than MAX_RENDER_CELLS cells."""
    check_renderable(sda.n, sda.m)
    rows = [bytearray(b"." * sda.columns) for _ in range(sda.n)]
    for j, column in enumerate(sda.column_sets):
        for s in column:
            rows[s - 1][j] = ord("*")
    return "\n".join([f"{sda.n} {sda.m}"] + [row.decode() for row in rows]) + "\n"


def parse_sda(text: str) -> StorageDesignArray:
    """Parse the render_sda format; reject anything malformed or invalid."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header {lines[0]!r}, expected 'N M'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"bad header {lines[0]!r}, expected two integers") from None
    require_params(n, m)
    body = lines[1:]
    if len(body) != n:
        raise ValueError(f"expected {n} rows, got {len(body)}")
    cols = n // gcd(n, m)
    columns = [[] for _ in range(cols)]
    for server, line in enumerate(body, 1):
        if len(line) != cols:
            raise ValueError(f"row {server} has {len(line)} entries, expected {cols}")
        if set(line) - {"*", "."}:
            raise ValueError(f"row {server} contains characters other than '*' and '.'")
        for star in re.finditer(r"\*", line):
            columns[star.start()].append(server)
    seen = {}  # column -> the first tuple built for it, shared by its repeats
    return StorageDesignArray(n, m, tuple(seen.setdefault(c, c) for c in map(tuple, columns)))
