"""Storage design arrays: construction, analysis, and serialization.

An (N, M) storage design array is an N x (N/gcd(N,M)) star/blank grid in
which every column carries exactly M stars and every row exactly
M/gcd(N,M) stars. Each distinct column names a group of M servers that
jointly store one slice of every file; the column multiplicities fix the
slice sizes. Three constructions live here:

* an equal-size construction whose columns are cyclic server windows
  (all columns distinct),
* a greedy recursive construction that repeats columns as much as
  possible, and
* an improved block construction for N = d*M +/- 1 built from a fixed
  (2M+1, M) template and its star/blank complement.

Everything is pure and exact; alpha values are `fractions.Fraction`.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

Cells = tuple[tuple[bool, ...], ...]


@dataclass(frozen=True)
class StorageDesignArray:
    """An N x (N/gcd(N,M)) star pattern; cells[i][j] is True for a star."""

    n: int
    m: int
    cells: Cells

    @property
    def columns(self) -> int:
        return self.n // gcd(self.n, self.m)

    def column_set(self, j: int) -> tuple[int, ...]:
        """1-based server indices holding a star in column j (0-based j)."""
        return tuple(i + 1 for i in range(self.n) if self.cells[i][j])


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
    server's values sum to exactly m/n, and the whole map sums to 1.
    """

    n: int
    m: int
    entries: dict[tuple[int, ...], Fraction]

    def check(self) -> None:
        """Raise ValueError if any invariant fails."""
        mu = Fraction(self.m, self.n)
        for subset, value in self.entries.items():
            if len(set(subset)) != self.m:
                raise ValueError(f"group {subset} does not have {self.m} distinct servers")
            if not all(1 <= s <= self.n for s in subset):
                raise ValueError(f"group {subset} has a server outside 1..{self.n}")
            if value <= 0:
                raise ValueError(f"group {subset} has non-positive size {value}")
        if sum(self.entries.values(), Fraction(0)) != 1:
            raise ValueError("group sizes do not sum to 1")
        for server in range(1, self.n + 1):
            total = sum((v for s, v in self.entries.items() if server in s), Fraction(0))
            if total != mu:
                raise ValueError(f"server {server} holds {total} of each file, expected {mu}")


def _require_params(n: int, m: int) -> None:
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= M <= N, got N={n}, M={m}")


def validate(sda: StorageDesignArray) -> str | None:
    """Check the column/row star counts; None if fine, else the first violation.

    Raises ValueError when the grid is not N x (N/gcd(N,M)) to begin with.
    """
    _require_params(sda.n, sda.m)
    g = gcd(sda.n, sda.m)
    cols = sda.n // g
    if len(sda.cells) != sda.n or any(len(row) != cols for row in sda.cells):
        raise ValueError(f"grid is not {sda.n} x {cols}")
    for j in range(cols):
        stars = sum(1 for i in range(sda.n) if sda.cells[i][j])
        if stars != sda.m:
            return f"column {j + 1} has {stars} stars, expected {sda.m}"
    per_row = sda.m // g
    for i in range(sda.n):
        stars = sum(sda.cells[i])
        if stars != per_row:
            return f"row {i + 1} has {stars} stars, expected {per_row}"
    return None


def _checked(sda: StorageDesignArray) -> StorageDesignArray:
    problem = validate(sda)
    if problem is not None:
        raise ValueError(f"not a valid ({sda.n},{sda.m}) storage design array: {problem}")
    return sda


def column_profile(sda: StorageDesignArray) -> ColumnProfile:
    """Distinct columns (as 1-based server subsets) in first-occurrence order."""
    _checked(sda)
    subsets: list[tuple[int, ...]] = []
    counts: list[int] = []
    for j in range(sda.columns):
        s = sda.column_set(j)
        try:
            counts[subsets.index(s)] += 1
        except ValueError:
            subsets.append(s)
            counts.append(1)
    return ColumnProfile(sda.n, sda.m, tuple(subsets), tuple(counts))


def alpha_from_profile(profile: ColumnProfile) -> AlphaAssignment:
    """Per-group file fractions: multiplicity * gcd(N,M)/N for each group."""
    g = gcd(profile.n, profile.m)
    entries = {
        subset: Fraction(count * g, profile.n)
        for subset, count in zip(profile.subsets, profile.multiplicities)
    }
    assignment = AlphaAssignment(profile.n, profile.m, entries)
    assignment.check()
    return assignment


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def _empty(rows: int, cols: int) -> list[list[bool]]:
    return [[False] * cols for _ in range(rows)]


def _fill(grid: list[list[bool]], r0: int, c0: int, rows: int, cols: int) -> None:
    for i in range(r0, r0 + rows):
        for j in range(c0, c0 + cols):
            grid[i][j] = True


def _paste(grid: list[list[bool]], r0: int, c0: int, block: list[list[bool]]) -> None:
    for i, row in enumerate(block):
        for j, cell in enumerate(row):
            if cell:
                grid[r0 + i][c0 + j] = True


def _freeze(n: int, m: int, grid: list[list[bool]]) -> StorageDesignArray:
    return _checked(StorageDesignArray(n, m, tuple(tuple(row) for row in grid)))


def build_equal_size(n: int, m: int) -> StorageDesignArray:
    """Array whose column j stars the cyclic window of M servers starting
    at (j-1)*M mod N; all N/gcd(N,M) columns are distinct."""
    _require_params(n, m)
    cols = n // gcd(n, m)
    grid = _empty(n, cols)
    for j in range(cols):
        for offset in range(m):
            grid[(j * m + offset) % n][j] = True
    return _freeze(n, m, grid)


def _greedy_coprime(n: int, m: int) -> list[list[bool]]:
    # n x n grid for gcd(n, m) == 1
    if n == 1:
        return [[True]]
    grid = _empty(n, n)
    if n >= 2 * m:
        _fill(grid, 0, 0, m, m)
        _paste(grid, m, m, _greedy_coprime(n - m, m))
    else:
        _fill(grid, 0, 0, m, n - m)
        _paste(grid, 0, n - m, _greedy_coprime(m, 2 * m - n))
        _fill(grid, m, n - m, n - m, m)
    return grid


def build_greedy(n: int, m: int) -> StorageDesignArray:
    """Greedy recursive array: repeat each column as often as the row
    constraint allows, then recurse on the uncovered corner.

    When gcd(N,M) = g > 1 the (N/g, M/g) array is stacked g times.
    """
    _require_params(n, m)
    g = gcd(n, m)
    base = _greedy_coprime(n // g, m // g)
    grid = [row[:] for _ in range(g) for row in base]
    return _freeze(n, m, grid)


def eta_recursion(n: int, m: int) -> int:
    """Distinct-column count of the greedy construction, in closed recursive
    form: strip a repeated block, recurse on the remainder, count one per step."""
    _require_params(n, m)
    g = gcd(n, m)
    n, m = n // g, m // g
    steps = 0
    while n > 1:
        if n >= 2 * m:
            n = n - m
        else:
            n, m = m, 2 * m - n
        steps += 1
    return steps + 1


def build_q_array(m: int) -> StorageDesignArray:
    """The fixed (2M+1, M) template with ceil(M/2)+3 distinct columns.

    Layout (0-based), for even M:
      rows 0..M-1,   cols 0..M-2      all stars
      rows 0..M-1,   last 2 cols      M/2 stacked 2x2 diagonal blocks
      rows M..M+M/2, cols M-1..2M-2   all stars
      last M/2 rows, cols M-1..2M-2   two square blocks starred everywhere
                                      except the diagonal
      last M/2 rows, last 2 cols      all stars
    Odd M is analogous with 3x3 diagonal blocks (running into the middle
    band), an (M+3)/2-row middle band of width M-1, and (M-1)/2-sized
    off-diagonal blocks.
    """
    if m < 2:
        raise ValueError(f"need M >= 2, got M={m}")
    n = 2 * m + 1
    grid = _empty(n, n)
    if m % 2 == 0:
        half = m // 2
        _fill(grid, 0, 0, m, m - 1)
        for i in range(m):  # half stacked 2x2 diagonal blocks
            grid[i][2 * m - 1 + (i % 2)] = True
        _fill(grid, m, m - 1, half + 1, m)
        for t in range(half):  # two blocks of all-but-diagonal stars
            row = m + half + 1 + t
            for j in range(half):
                if j != t:
                    grid[row][m - 1 + j] = True
                    grid[row][m - 1 + half + j] = True
            grid[row][2 * m - 1] = True
            grid[row][2 * m] = True
    else:
        half = (m - 1) // 2
        _fill(grid, 0, 0, m, m - 1)
        for i in range(3 * (m + 1) // 2):  # (m+1)/2 stacked 3x3 diagonal blocks
            grid[i][2 * m - 2 + (i % 3)] = True
        _fill(grid, m, m - 1, (m + 3) // 2, m - 1)
        for t in range(half):
            row = (3 * m + 3) // 2 + t
            for j in range(half):
                if j != t:
                    grid[row][m - 1 + j] = True
                    grid[row][m - 1 + half + j] = True
            for j in range(3):
                grid[row][2 * m - 2 + j] = True
    return _freeze(n, m, grid)


def opposite(sda: StorageDesignArray) -> StorageDesignArray:
    """Swap stars and blanks: an (N, M) array becomes an (N, N-M) array with
    the same distinct-column count."""
    _checked(sda)
    if sda.m == sda.n:
        raise ValueError("opposite of a full-replication array has empty columns")
    flipped = tuple(tuple(not cell for cell in row) for row in sda.cells)
    return _checked(StorageDesignArray(sda.n, sda.n - sda.m, flipped))


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
    grid = _empty(n, n)
    for block in range(d - 2):
        _fill(grid, block * m, block * m, m, m)
    offset = (d - 2) * m
    _paste(grid, offset, offset, [list(row) for row in tail.cells])
    return _freeze(n, m, grid)


def eta_lower_bound(n: int, m: int) -> int:
    """Floor on the distinct-column count of any feasible group support:
    max(ceil(N/M), ceil(N/(N-M))), or 1 for full replication."""
    _require_params(n, m)
    if m == n:
        return 1
    return max(-(-n // m), -(-n // (n - m)))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def render_sda(sda: StorageDesignArray) -> str:
    """Serialize as a header line "N M" plus one '*'/'.' line per server."""
    rows = ["".join("*" if cell else "." for cell in row) for row in sda.cells]
    return "\n".join([f"{sda.n} {sda.m}"] + rows) + "\n"


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
    _require_params(n, m)
    body = lines[1:]
    if len(body) != n:
        raise ValueError(f"expected {n} rows, got {len(body)}")
    cols = n // gcd(n, m)
    cells = []
    for i, line in enumerate(body):
        if len(line) != cols:
            raise ValueError(f"row {i + 1} has {len(line)} cells, expected {cols}")
        if set(line) - {"*", "."}:
            raise ValueError(f"row {i + 1} contains characters other than '*' and '.'")
        cells.append(tuple(ch == "*" for ch in line))
    return _checked(StorageDesignArray(n, m, tuple(cells)))
