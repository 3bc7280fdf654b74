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
the integer M, so unit propagation runs on integers, over bitmasks of the
groups through each server, and the phase-1 simplex under Bland's rule is
fraction-free (Bareiss, Math. Comp. 1968). `Fraction` appears only in the
returned witness, and the results are certificates, not estimates. The
candidates are a canonical family that meets every relabeling orbit of
supports, drawn depth-first over one server bitmask per group; M = N, full
replication, is one group and needs no draw. The family is sound because
of two symmetries of the per-server equalities sum_{s ∋ i} alpha_s = M/N,
and one forced deduction:

* Relabeling. Permuting server labels maps feasible supports to feasible
  supports, so every feasible support has an image that contains [M] and,
  with j the largest overlap of another group with [M], also
  {1..j} ∪ {M+1..2M-j}; see `_canonical_supports`.
* Complement. Summing the equalities over all servers gives sum alpha = 1,
  so replacing every group by its complement turns server i's load into
  1 - M/N = (N-M)/N with alpha unchanged: (N, M) and (N, N-M) have the same
  feasible supports up to complement, the duality `sda.opposite` uses.
  Instances with 2M > N are searched on the smaller side.
* Forced groups. A server held by one group alone pins that group's
  fraction to the whole budget M/N, so two such groups that share a
  server load it twice over: a support where they do is infeasible and
  is dropped before it is decided.

Both answers rest on bounds the paper proves, read from
`sda.closed_forms`. `min_eta_star` tries sizes from the combinatorial floor
up to greedy's eta: greedy's array is a feasible support of that size and
the canonical family meets its orbit, so the search returns by then.
`min_eta_equal` needs M*eta/N integral, so N/gcd(N, M) divides eta, and
the equal-size array covers at that eta, so it is the answer and its
columns are the witness, with nothing searched.
`MAX_SERVERS` caps N at 10 as the runtime bound: the candidate count
explodes beyond that, and these solvers certify bounds, not scale.
"""

from fractions import Fraction
from itertools import combinations

from .sda import build_equal_size, closed_forms

Subset = tuple[int, ...]

MAX_SERVERS = 10


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

    Groups are bits: covers[i] has bit j set when group j holds server i+1,
    and `undecided` has the bits of the groups whose alpha is still None,
    so a server's live groups are one AND and a forced group is a live mask
    with one bit set.
    """
    alpha: list[int | None] = [None] * len(subsets)
    remaining = [side] * n
    covers = [0] * n
    for j, s in enumerate(subsets):
        for server in s:
            covers[server - 1] |= 1 << j
    undecided = (1 << len(subsets)) - 1
    progress = True
    while progress:
        progress = False
        for i, cover in enumerate(covers):
            live = cover & undecided
            if not live:
                if remaining[i] != 0:
                    return None
                continue
            if remaining[i] == 0:
                # exhausted server: every remaining group through it is forced to 0
                undecided &= ~live
                while live:
                    low = live & -live
                    alpha[low.bit_length() - 1] = 0
                    live ^= low
                progress = True
            elif live & (live - 1) == 0:
                undecided &= ~live
                j = live.bit_length() - 1
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


def _solve_support(subsets: list[Subset], n: int, side: int) -> dict[Subset, Fraction] | None:
    """Positive witness of the per-server equalities (budget side/N) on this
    support, its zero groups dropped, or None. Propagation first, simplex only
    on the undecided remainder, both in units of 1/N; scaled back once here.
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
    return {s: Fraction(v, n) for s, v in zip(subsets, alpha) if v > 0}


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
    return _solve_support(_as_subsets(candidate, n, m), n, m)


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
    orbit of supports that cover every server. Callers pass M < N: at
    M = N the one group [N] is the whole support (`min_eta_star`).

    Any support of size >= 2 can be relabeled so that it holds [M] and,
    with j the largest overlap any other group has with [M], the group
    {1..j} ∪ {M+1..2M-j}: permute inside [M] and inside its complement,
    which keeps every overlap with [M]. So j runs from M-1 down
    to max(0, 2M-N), and the other `size` - 2 groups are drawn only from
    groups meeting [M] in at most j servers. Two filters drop supports
    that unit propagation would reject anyway: coverage drops a support
    missing a server, and forced clash one in which two forced groups,
    each holding a server no other group holds, share a server
    (`_forced_clash`).

    A group is held only as its server bitmask; `group` maps it back to its
    server tuple when a candidate is yielded. The draw walks the pool
    depth-first in `combinations` order, carrying each prefix's masks,
    their union and the mask of servers two or more of them hold, so the
    last pick's coverage test is one AND with the servers its prefix
    leaves uncovered. A prefix is dropped whole when its uncovered servers
    outnumber the M per pick that its remaining picks can add: every
    completion of it would miss a server. The clash test runs only on
    complete supports, since a later pick can cover a prefix's private
    server. So the candidates and their order are those of `combinations`
    filtered by both rules.
    """
    group = {sum(1 << (i - 1) for i in s): s for s in combinations(range(1, n + 1), m)}
    first = (1 << m) - 1
    full = (1 << n) - 1
    for j in range(m - 1, max(0, 2 * m - n) - 1, -1):
        second = ((1 << j) - 1) | ((1 << (m - j)) - 1) << m  # {1..j} ∪ {M+1..2M-j}
        pool = [g for g in group if g != second and (g & first).bit_count() <= j]

        def extend(start: int, covered: int, multi: int, left: int, held: list[int]):
            uncovered = full & ~covered
            if uncovered.bit_count() > left * m:
                return  # each pick covers at most M more servers
            if left == 0:
                if not _forced_clash(held, multi, full):
                    yield list(map(group.get, held))
            elif left == 1:  # the last pick must cover every uncovered server
                for k in range(start, len(pool)):
                    g = pool[k]
                    if g & uncovered == uncovered and not _forced_clash(
                        [*held, g], multi | (covered & g), full
                    ):
                        yield [*map(group.get, held), group[g]]
            else:
                for k in range(start, len(pool) - left + 1):
                    g = pool[k]
                    yield from extend(
                        k + 1, covered | g, multi | (covered & g), left - 1, [*held, g]
                    )

        yield from extend(0, first | second, first & second, size - 2, [first, second])


def _forced_clash(held: list[int], multi: int, full: int) -> bool:
    """Whether two forced groups of a complete support share a server.

    `held` has the support's group masks and `multi` the servers two or
    more of them hold. A group holding a server no other group holds is
    forced to that server's whole budget, so two forced groups through a
    common server load it twice over and propagation rejects the support.
    """
    once = full & ~multi
    forced = 0
    for g in held:
        if g & once:
            if g & forced:
                return True
            forced |= g
    return False


def min_eta_star(n: int, m: int):
    """Smallest feasible support size, with a strictly positive witness.

    Searches sizes upward from the combinatorial lower bound to greedy's
    eta, both from one `sda.closed_forms` call, over the canonical supports
    of `_canonical_supports`; a witness on a strict sub-support would have
    been found at a smaller size, so the witness has exactly eta* positive
    groups. When 2M > N and N-M >= 2 the search runs on (N, N-M) and every
    witness group is complemented: server i's load becomes
    1 - (N-M)/N = M/N with the fractions unchanged. No feasible size up to
    greedy's eta raises RuntimeError: the oracle and the closed form
    disagree. M = N is full replication: the one group [N], at fraction 1,
    with nothing searched.
    """
    _check_scale(n, m)
    if m == n:
        return 1, {tuple(range(1, n + 1)): Fraction(1)}
    dual = 2 * m > n and n - m >= 2
    side = n - m if dual else m
    _, _, greedy, _, lower, _ = closed_forms(n, m)
    for size in range(lower, greedy + 1):
        for candidate in _canonical_supports(n, side, size):
            witness = _solve_support(candidate, n, side)
            if witness is not None:
                return size, (_complement(witness, n) if dual else witness)
    raise RuntimeError(f"no feasible support of size <= greedy's eta {greedy} for N={n}, M={m}")


def _complement(witness: dict[Subset, Fraction], n: int) -> dict[Subset, Fraction]:
    """The same fractions on the complementary groups."""
    servers = range(1, n + 1)
    return {tuple(i for i in servers if i not in s): v for s, v in witness.items()}


def min_eta_equal(n: int, m: int):
    """Smallest eta for which some eta-multiset of M-subsets covers every
    server exactly M*eta/N times (all group fractions equal 1/eta).

    That eta is N/gcd(N, M), `sda.closed_forms`' eta_equal (module
    docstring), and the witness is the paper's equal-size array: its
    N/gcd(N, M) distinct cyclic windows hold every server M/gcd(N, M)
    times, a cover `sda.StorageDesignArray` validates.
    """
    _check_scale(n, m)
    return closed_forms(n, m)[1], list(build_equal_size(n, m).column_sets)
