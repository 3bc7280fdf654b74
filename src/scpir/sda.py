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

Everything is pure and exact; alpha values are `fractions.Fraction`.

Arrays and alphas are valid by construction: `StorageDesignArray` runs
`validate` and `AlphaAssignment` runs `check` when made, so each fact is
checked once, and every function that reads one trusts it.
"""

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Columns = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class StorageDesignArray:
    """An (N, M) array as its column sequence: column_sets[j] is the sorted
    tuple of 1-based servers starred in column j. Construction raises
    ValueError unless the array passes `validate`."""

    n: int
    m: int
    column_sets: Columns

    def __post_init__(self):
        validate(self)

    @property
    def columns(self) -> int:
        return len(self.column_sets)


@dataclass(frozen=True)
class ColumnProfile:
    """Distinct columns of an array in first-occurrence order, with counts."""

    n: int
    m: int
    subsets: tuple[tuple[int, ...], ...]
    multiplicities: tuple[int, ...]

    @property
    def eta(self) -> int:
        return len(self.subsets)


@dataclass(frozen=True)
class AlphaAssignment:
    """Normalized per-group file fractions keyed by server subset.

    entries preserves group order (first occurrence in the source array).
    Every subset has size m, every value is a positive rational, each
    server's values sum to exactly m/n, and the whole map sums to 1;
    construction raises ValueError unless `check` passes.
    """

    n: int
    m: int
    entries: dict[tuple[int, ...], Fraction]

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Raise ValueError if any invariant fails."""
        # exact integer arithmetic in units of 1/den of a file
        den = lcm(*(value.denominator for value in self.entries.values()))
        held = [0] * (self.n + 1)  # held[s]: server s's units of each file
        total = 0
        for subset, value in self.entries.items():
            if len(set(subset)) != self.m:
                raise ValueError(f"group {subset} does not have {self.m} distinct servers")
            if not all(1 <= s <= self.n for s in subset):
                raise ValueError(f"group {subset} has a server outside 1..{self.n}")
            if value <= 0:
                raise ValueError(f"group {subset} has non-positive size {value}")
            units = value.numerator * (den // value.denominator)
            total += units
            for s in subset:
                held[s] += units
        if total != den:
            raise ValueError("group sizes do not sum to 1")
        for server in range(1, self.n + 1):
            if held[server] * self.n != self.m * den:
                raise ValueError(
                    f"server {server} holds {Fraction(held[server], den)} of each file, "
                    f"expected {Fraction(self.m, self.n)}"
                )


def require_params(n: int, m: int) -> None:
    """Raise ValueError unless 1 <= M <= N."""
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= M <= N, got N={n}, M={m}")


def validate(sda: StorageDesignArray) -> None:
    """Raise ValueError unless the array has N/gcd(N,M) columns, each a
    sorted tuple of exactly M distinct servers in 1..N, and stars every
    server in exactly M/gcd(N,M) columns. A star-count message names the
    first violation."""
    require_params(sda.n, sda.m)
    g = gcd(sda.n, sda.m)
    if sda.columns != sda.n // g:
        raise ValueError(f"array has {sda.columns} columns, expected {sda.n // g}")
    # repeated columns share one check; the first bad one in first-occurrence
    # order is also the first bad column in column order
    invalid = f"not a valid ({sda.n},{sda.m}) storage design array: "
    counts = Counter(sda.column_sets)
    stars = [0] * (sda.n + 1)
    for column, count in counts.items():
        canonical = list(column) == sorted(set(column))
        # sorted and distinct, so its first and last servers bound the rest
        if not canonical or column and not 1 <= column[0] <= column[-1] <= sda.n:
            j = sda.column_sets.index(column) + 1
            raise ValueError(f"column {j} is not a sorted tuple of distinct servers in 1..{sda.n}")
        if len(column) != sda.m:
            j = sda.column_sets.index(column) + 1
            raise ValueError(invalid + f"column {j} has {len(column)} stars, expected {sda.m}")
        for s in column:
            stars[s] += count
    per_row = sda.m // g
    for server in range(1, sda.n + 1):
        if stars[server] != per_row:
            problem = f"row {server} has {stars[server]} stars, expected {per_row}"
            raise ValueError(invalid + problem)


def column_profile(sda: StorageDesignArray) -> ColumnProfile:
    """Distinct columns (as 1-based server subsets) in first-occurrence
    order."""
    counts = Counter(sda.column_sets)
    return ColumnProfile(sda.n, sda.m, tuple(counts), tuple(counts.values()))


def alpha_from_profile(profile: ColumnProfile) -> AlphaAssignment:
    """Per-group file fractions: multiplicity * gcd(N,M)/N for each group,
    checked once, as the assignment is made."""
    g = gcd(profile.n, profile.m)
    entries = {
        subset: Fraction(count * g, profile.n)
        for subset, count in zip(profile.subsets, profile.multiplicities)
    }
    return AlphaAssignment(profile.n, profile.m, entries)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def build_equal_size(n: int, m: int) -> StorageDesignArray:
    """Array whose column j stars the cyclic window of M servers starting
    at (j-1)*M mod N; all N/gcd(N,M) columns are distinct."""
    require_params(n, m)
    windows = (tuple(sorted((j * m + i) % n + 1 for i in range(m))) for j in range(n // gcd(n, m)))
    return StorageDesignArray(n, m, tuple(windows))


def build_greedy(n: int, m: int) -> StorageDesignArray:
    """Greedy array: repeat each column as often as the row constraint
    allows, then continue on the uncovered corner.

    For coprime (n, m) with n >= 2m, the first m columns star servers 1..m
    and the (n-m, m) array follows on servers m+1..n. For m < n < 2m, the
    first n-m columns star servers 1..m and the (m, 2m-n) array follows on
    servers 1..m, with servers m+1..n added to each of its columns. These
    are the (n, m) steps `eta_recursion` counts, one distinct column each.
    When gcd(N,M) = g > 1 the (N/g, M/g) array is stacked g times.
    """
    require_params(n, m)
    g = gcd(n, m)
    block = n // g

    def stacked(column):  # one copy on each of the g blocks of servers
        return tuple(s + r * block for r in range(g) for s in column)

    a, b = block, m // g

    # the corner left to fill is the (a, b) array on servers shift+1..shift+a,
    # with the servers in tail added to each of its columns
    columns = []
    shift, tail = 0, ()
    while a > 1:
        column = stacked(tuple(range(shift + 1, shift + b + 1)) + tail)
        if a >= 2 * b:
            columns += [column] * b
            shift, a = shift + b, a - b
        else:
            columns += [column] * (a - b)
            tail = tuple(range(shift + b + 1, shift + a + 1)) + tail
            a, b = b, 2 * b - a
    columns.append(stacked((shift + 1,) + tail))
    return StorageDesignArray(n, m, tuple(columns))


def eta_recursion(n: int, m: int) -> int:
    """Distinct-column count of the greedy construction, in closed recursive
    form: strip a repeated block, recurse on the remainder, count one per step.
    A run of strips is one division, so this takes O(log N) steps like Euclid."""
    require_params(n, m)
    g = gcd(n, m)
    n, m = n // g, m // g
    steps = 0
    while n > 1:
        if n >= 2 * m:
            strips = n // m - 1  # each strip of m leaves n >= m
            n, steps = n - strips * m, steps + strips
        else:
            n, m = m, 2 * m - n
            steps += 1
    return steps + 1


def build_q_array(m: int) -> StorageDesignArray:
    """The fixed (2M+1, M) template with ceil(M/2)+3 distinct columns.

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
    half, spread = m // 2, 2 + m % 2
    band = tuple(range(m + 1, n - half + 1))
    bottom = tuple(range(n - half + 1, n + 1))
    columns = [tuple(range(1, m + 1))] * (m - 1)
    columns += [band + bottom[:t] + bottom[t + 1 :] for t in range(half)] * 2
    top = spread * (m - half)
    columns += [tuple(range(c, top + 1, spread)) + bottom for c in range(1, spread + 1)]
    return StorageDesignArray(n, m, tuple(columns))


def opposite(sda: StorageDesignArray) -> StorageDesignArray:
    """Swap stars and blanks: an (N, M) array becomes an (N, N-M) array with
    the same distinct-column count."""
    if sda.m == sda.n:
        raise ValueError("opposite of a full-replication array has empty columns")
    servers = frozenset(range(1, sda.n + 1))
    flipped = (tuple(sorted(servers.difference(c))) for c in sda.column_sets)
    return StorageDesignArray(sda.n, sda.n - sda.m, tuple(flipped))


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
    complement of the (M-1) template (minus case)."""
    if m < 3:
        raise ValueError(f"need M >= 3, got M={m}")
    family = improved_family(n, m)
    if family is None:
        raise ValueError(f"N={n} is not d*{m}+1 or d*{m}-1 for any d >= 2")
    d, plus, _ = family
    tail = build_q_array(m) if plus else opposite(build_q_array(m - 1))
    columns = []
    for block in range(d - 2):
        columns += [tuple(range(block * m + 1, block * m + m + 1))] * m
    offset = (d - 2) * m
    columns += [tuple(s + offset for s in column) for column in tail.column_sets]
    return StorageDesignArray(n, m, tuple(columns))


def eta_lower_bound(n: int, m: int) -> int:
    """Floor on the distinct-column count of any feasible group support:
    max(ceil(N/M), ceil(N/(N-M))), or 1 for full replication."""
    require_params(n, m)
    if m == n:
        return 1
    return max(-(-n // m), -(-n // (n - m)))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


MAX_RENDER_CELLS = 10**8  # 100 MB of text; rendering holds about 3 bytes per cell


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
    return StorageDesignArray(n, m, tuple(map(tuple, columns)))
