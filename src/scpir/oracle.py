"""Exact reference solvers for the group-support minimization problems.

Two questions are answered exactly on desk-scale instances:

* the smallest number of M-server groups that can carry positive file
  fractions while filling every server's budget of M/N exactly
  (`min_eta_star`), and
* the smallest number of groups when all fractions are forced equal
  (`min_eta_equal`).

`min_eta_star` is the LP over group fractions of Attia-Kumar-Tandon
(uncoded storage-constrained PIR) and Woolsey-Chen-Ji (storage-constrained
PIR designs). Every candidate support is decided by an exact integer
feasibility kernel: measured in units of 1/N, the per-server budget M/N is
the integer M, so unit propagation runs on integers and the phase-1
simplex under Bland's rule is fraction-free (Bareiss, Math. Comp. 1968).
`Fraction` appears only in the returned witness, and the results are
certificates, not estimates. The candidates are a canonical family that
meets every relabeling orbit of supports; that is sound because of two
symmetries of the per-server equalities sum_{s ∋ i} alpha_s = M/N:

* Relabeling. Permuting server labels maps feasible supports to feasible
  supports, so every feasible support has an image that contains [M] and,
  with j the largest overlap of another group with [M], also
  {1..j} ∪ {M+1..2M-j}; see `_canonical_supports`.
* Complement. Summing the equalities over all servers gives sum alpha = 1,
  so replacing every group by its complement turns server i's load into
  1 - M/N = (N-M)/N with alpha unchanged: (N, M) and (N, N-M) have the same
  feasible supports up to complement, the duality `sda.opposite` uses.
  Instances with 2M > N are searched on the smaller side.

Instances are hard-capped at N <= 8; the combinatorics explode beyond that
and these solvers exist to certify bounds, not to scale.
"""

from fractions import Fraction
from itertools import combinations

from .sda import eta_lower_bound

Subset = tuple[int, ...]

MAX_SERVERS = 8
MAX_CAP = 12


class OracleBudgetError(RuntimeError):
    """Raised when the requested search exceeds the desk-scale budget."""


# ---------------------------------------------------------------------------
# Feasibility kernel
# ---------------------------------------------------------------------------


def _propagate(subsets: list[Subset], n: int, side: int):
    """Unit propagation on the per-server equality constraints, in integer
    units of 1/N: every server's budget, side/N, is `side` units.

    Returns (alpha, remaining) where alpha[j] is a decided value or None,
    and remaining[i] is server i+1's still-unassigned budget; returns None
    when a contradiction is reached. Only forced deductions are made, so
    the reduced system is equivalent to the original.
    """
    alpha: list[int | None] = [None] * len(subsets)
    remaining = [side] * n
    covers: list[list[int]] = [[] for _ in range(n)]
    for j, s in enumerate(subsets):
        for server in s:
            covers[server - 1].append(j)
    progress = True
    while progress:
        progress = False
        for i in range(n):
            live = [j for j in covers[i] if alpha[j] is None]
            if not live:
                if remaining[i] != 0:
                    return None
                continue
            if remaining[i] == 0:
                # exhausted server: every remaining group through it is forced to 0
                for j in live:
                    alpha[j] = 0
                progress = True
            elif len(live) == 1:
                j = live[0]
                value = remaining[i]
                alpha[j] = value
                for server in subsets[j]:
                    remaining[server - 1] -= value
                    if remaining[server - 1] < 0:
                        return None
                progress = True
    return alpha, remaining


def _phase1_simplex(rows: list[list[int]], rhs: list[int]):
    """Solve A x = b, x >= 0 (integer A, b >= 0) exactly; returns x as
    Fractions, or None if infeasible.

    Phase-1 simplex: minimize the sum of one artificial variable per
    constraint, pivoting by Bland's rule so termination is guaranteed. The
    tableau is fraction-free (Bareiss): it holds d times the rational
    tableau, where d, the last pivot, is the determinant of the current
    basis. So every entry stays an integer and every update divides
    exactly by d; the ratio test pivots only on positive entries, so d > 0
    and every sign is the rational tableau's.
    """
    p = len(rows)
    s = len(rows[0]) if p else 0
    total = s + p
    tab = [rows[r] + [int(i == r) for i in range(p)] + [rhs[r]] for r in range(p)]
    # last row: reduced costs of the artificial objective, column sums minus
    # costs, so 0 on the artificials; its last entry is the objective's value
    tab.append([sum(col) for col in zip(*rows)] + [0] * p + [sum(rhs)])
    basis = [s + r for r in range(p)]
    d = 1
    while True:
        enter = next((j for j in range(total) if tab[-1][j] > 0), None)
        if enter is None:
            break
        leave = None
        for r in range(p):
            coeff = tab[r][enter]
            if coeff > 0:
                if leave is None:
                    leave = r
                    continue
                # ratio test by cross-multiplication; both pivots are positive
                ratio = tab[r][-1] * tab[leave][enter]
                best = tab[leave][-1] * coeff
                if ratio < best or (ratio == best and basis[r] < basis[leave]):
                    leave = r
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded")  # cannot happen: bounded by 0
        pivot_row = tab[leave]
        pivot = pivot_row[enter]
        for r, row in enumerate(tab):
            if r != leave:
                factor = row[enter]
                tab[r] = [(pivot * v - factor * w) // d for v, w in zip(row, pivot_row)]
        d = pivot
        basis[leave] = enter
    if tab[-1][-1] != 0:
        return None
    x: list[int | Fraction] = [0] * s
    for r, var in enumerate(basis):
        if var < s:
            x[var] = Fraction(tab[r][-1], d)
    return x


def _solve_support(subsets: list[Subset], n: int, side: int):
    """Nonnegative solution of the per-server equalities (budget side/N)
    on this support, or None. Propagation first, simplex only on the
    undecided remainder, both in units of 1/N; scaled back once here.
    Propagation already rejects a server left with budget but no undecided
    group, so a fully decided support needs no further check."""
    state = _propagate(subsets, n, side)
    if state is None:
        return None
    alpha, remaining = state
    open_idx = [j for j, v in enumerate(alpha) if v is None]
    if open_idx:
        live_servers = [i for i in range(n) if any(i + 1 in subsets[j] for j in open_idx)]
        rows = [[int(i + 1 in subsets[j]) for j in open_idx] for i in live_servers]
        solution = _phase1_simplex(rows, [remaining[i] for i in live_servers])
        if solution is None:
            return None
        for j, value in zip(open_idx, solution):
            alpha[j] = value
    return [Fraction(v) / n for v in alpha]


def _as_subsets(candidate, n: int, m: int) -> list[Subset]:
    subsets = [tuple(sorted(s)) for s in candidate]
    if not subsets:
        raise ValueError("candidate support is empty")
    for s in subsets:
        if len(set(s)) != m:
            raise ValueError(f"candidate group {s} does not have {m} distinct servers")
        if not all(1 <= v <= n for v in s):
            raise ValueError(f"candidate group {s} has a server outside 1..{n}")
    if len(set(subsets)) != len(subsets):
        raise ValueError("candidate groups are not pairwise distinct")
    return subsets


def lp_feasible(candidate, n: int, m: int) -> dict[Subset, Fraction] | None:
    """Decide whether the per-server budget equalities admit a nonnegative
    solution supported on the candidate groups: a witness mapping groups to
    their fractions if so, None if not.

    Zero entries of the vertex solution are dropped from the witness, so a
    feasible witness is strictly positive on a (possibly smaller) support.
    This makes feasibility monotone under adding groups; the minimum-size
    searches are unaffected because a witness on a strict sub-support would
    already have been found at the smaller size.
    """
    subsets = _as_subsets(candidate, n, m)
    solution = _solve_support(subsets, n, m)
    if solution is None:
        return None
    return {s: v for s, v in zip(subsets, solution) if v > 0}


# ---------------------------------------------------------------------------
# Minimum-support searches
# ---------------------------------------------------------------------------


def _check_scale(n: int, m: int) -> None:
    if not (2 <= m <= n):
        raise ValueError(f"need 2 <= M <= N, got N={n}, M={m}")
    if n > MAX_SERVERS:
        raise ValueError(f"oracle is desk-scale only: N={n} exceeds {MAX_SERVERS}")


def _canonical_supports(n: int, m: int, size: int):
    """Size-`size` supports of M-subsets of 1..N, one or more per relabeling
    orbit of supports that cover every server.

    For M < N any support of size >= 2 can be relabeled so that it holds
    [M] and, with j the largest overlap any other group has with [M], the
    group {1..j} ∪ {M+1..2M-j}: permute inside [M] and inside its
    complement, which keeps every overlap with [M]. So j runs from M-1 down
    to max(0, 2M-N), and the other `size` - 2 groups are drawn only from
    groups meeting [M] in at most j servers. Supports missing a server are
    skipped, since unit propagation rejects them anyway.
    """
    universe = list(combinations(range(1, n + 1), m))
    if m == n:
        if size == 1:
            yield universe
        return
    first = universe[0]
    full = (1 << n) - 1
    mask = {s: sum(1 << (i - 1) for i in s) for s in universe}
    for j in range(m - 1, max(0, 2 * m - n) - 1, -1):
        second = tuple(range(1, j + 1)) + tuple(range(m + 1, 2 * m - j + 1))
        pool = [s for s in universe if s != second and sum(i <= m for i in s) <= j]
        base = mask[first] | mask[second]
        for rest in combinations(pool, size - 2):
            covered = base
            for s in rest:
                covered |= mask[s]
            if covered == full:
                yield [first, second, *rest]


def min_eta_star(n: int, m: int):
    """Smallest feasible support size, with a strictly positive witness.

    Searches sizes upward from the combinatorial lower bound to MAX_CAP,
    over the canonical supports of `_canonical_supports`; a witness on a
    strict sub-support would have been found at a smaller size, so the
    witness has exactly eta* positive groups. When 2M > N and N-M >= 2 the
    search runs on (N, N-M) and every witness group is complemented: server
    i's load becomes 1 - (N-M)/N = M/N with the fractions unchanged.
    """
    _check_scale(n, m)
    dual = 2 * m > n and n - m >= 2
    side = n - m if dual else m
    tried = 0
    for size in range(eta_lower_bound(n, m), MAX_CAP + 1):
        for candidate in _canonical_supports(n, side, size):
            tried += 1
            solution = _solve_support(candidate, n, side)
            if solution is not None:
                witness = {s: v for s, v in zip(candidate, solution) if v > 0}
                return size, (_complement(witness, n) if dual else witness)
    raise OracleBudgetError(
        f"no feasible support of size <= {MAX_CAP} for N={n}, M={m} ({tried} candidates tried)"
    )


def _complement(witness: dict[Subset, Fraction], n: int) -> dict[Subset, Fraction]:
    """The same fractions on the complementary groups."""
    servers = range(1, n + 1)
    return {tuple(i for i in servers if i not in s): v for s, v in witness.items()}


def min_eta_equal(n: int, m: int):
    """Smallest eta for which some eta-multiset of M-subsets covers every
    server exactly M*eta/N times (all group fractions equal 1/eta).

    Sizes up to MAX_CAP that make M*eta/N non-integral are impossible and
    skipped; the rest are decided by depth-first search over multisets.
    """
    _check_scale(n, m)
    universe = list(combinations(range(1, n + 1), m))
    for eta in range(1, MAX_CAP + 1):
        if (m * eta) % n:
            continue
        target = m * eta // n
        witness = _equal_cover(universe, n, eta, target)
        if witness is not None:
            return eta, witness
    raise OracleBudgetError(f"no equal-size cover of size <= {MAX_CAP} for N={n}, M={m}")


def _equal_cover(universe: list[Subset], n: int, picks: int, target: int):
    """Multiset of `picks` subsets covering each server exactly `target`
    times, or None. Chosen indices are nondecreasing, so each multiset is
    visited once."""
    deficit = [target] * n
    chosen: list[Subset] = []

    def dfs(start: int, left: int) -> bool:
        if left == 0:
            return not any(deficit)
        if max(deficit) > left:
            return False
        for j in range(start, len(universe)):
            s = universe[j]
            if all(deficit[i - 1] > 0 for i in s):
                for i in s:
                    deficit[i - 1] -= 1
                chosen.append(s)
                if dfs(j, left - 1):
                    return True
                chosen.pop()
                for i in s:
                    deficit[i - 1] += 1
        return False

    return list(chosen) if dfs(0, picks) else None
