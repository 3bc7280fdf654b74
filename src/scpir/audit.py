"""Exhaustive audits of constructed schemes, with exact bookkeeping.

Every check enumerates the full (finite, uniform) randomness of the
protocol instead of sampling, and every comparison is an integer or
rational identity; there are no tolerances anywhere. Each check records
what was measured and what was expected, so a report line is a complete
claim on its own.

Each audit enumerates only the statistic that decides it, and groups run
independently, so one (M, K) round stands for every group: each group
draws its own base vector, the query builder never sees the group, and
`answer` is a deterministic function of (query, stored packets). Hence

* a server's view in a group is its round's query multiset, and a server
  in several groups sees independent rounds, so equal per-round views
  give equal joint views;
* a group's download is its packet size times its round's non-silent
  answers, since silence depends on the query alone and every other
  answer carries one packet;
* a retrieval decodes exactly when every group round does, since the
  regions concatenate.

The protocol is also linear: every answer and every decoded packet is an
XOR of stored packets with 0/1 coefficients fixed by (theta, base) alone.
On the one-hot basis, where packet i of file f+1 is the single bit
f*(M-1)+i, an answer's payload is its coefficient row, and a round that
decodes the basis decodes every group of every library. Every round-level
audit walks the same K*M^K (theta, base) rounds, refused up front here
when their K*M^(K+1) queries are over MAX_REALIZATIONS. Those rounds hold
only M^K distinct queries, so the walk answers each once on the basis and
replays the reply from a memo that ends with the walk.

The query-builder hooks exist so the audits themselves can be tested:
deliberately broken builders (offset dropped from the wanted coordinate,
two servers sharing a shift) must make the privacy and independence
checks fail.
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from . import sda, sfpir
from .scheme import (
    FileLibrary,
    PacketLayout,
    StoragePlan,
    average_download,
    greedy_scheme,
    require_retrieval_params,
    retrieve,
)
from .sfpir import ProtocolViolation, answer, decode, enumerate_realizations, make_queries


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    measured: object
    expected: object
    tag: str
    detail: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"


@dataclass
class AuditReport:
    checks: list[AuditCheck] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def table(self) -> str:
        rows = [("check", "status", "measured", "expected", "property")]
        for c in self.checks:
            rows.append((c.name, c.status, str(c.measured), str(c.expected), c.tag))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        for c in self.checks:
            if not c.passed and c.detail:
                lines.append(f"  {c.name}: {c.detail}")
        lines.append(f"overall: {'pass' if self.overall else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Broken query builders, used to prove the audits can fail
# ---------------------------------------------------------------------------


def queries_missing_offset(theta: int, base: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Faulty builder: the wanted coordinate is the bare server index, so
    the uniform masking offset never enters and servers can tell which
    coordinate was overwritten."""
    return [base[: theta - 1] + (server,) + base[theta:] for server in range(m)]


def queries_duplicate_shift(theta: int, base: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Faulty builder: servers 0 and 1 receive the same shift, so two
    answers carry the same wanted packet and one packet is never served."""
    queries = make_queries(theta, base, m)
    return [queries[0], queries[0]] + queries[2:]


# ---------------------------------------------------------------------------
# Individual audits
# ---------------------------------------------------------------------------

MAX_REALIZATIONS = 10**6  # walked queries one audit may count or check


def _check_bill(m: int, k: int) -> None:
    """Refuse a round walk whose bill, K*M^(K+1) walked queries, is over
    MAX_REALIZATIONS. The walk answers only its M^K distinct queries, but
    each walked query is still counted or checked once, and the bill bounds
    the M^K base vectors enumerated. M^64 alone exceeds the budget for
    M >= 2, so the power stops there."""
    if k * m ** min(k + 1, 64) > MAX_REALIZATIONS:
        raise ValueError(
            f"auditing (M, K) = ({m}, {k}) answers K*M^(K+1) = {k}*{m}^{k + 1} queries, "
            f"over the budget of {MAX_REALIZATIONS}"
        )


def _rounds(m: int, k: int, query_fn=make_queries):
    """Yield (theta, base, queries) for every wanted file and base vector
    of one (M, K) group, after checking the walk's bill of K*M^(K+1)
    walked queries."""
    _check_bill(m, k)
    for theta in range(1, k + 1):
        for base in enumerate_realizations(m, k):
            yield theta, base, query_fn(theta, base, m)


def _basis(m: int, k: int) -> sfpir.GroupStorage:
    """One group's storage in which packet i of file f+1 is the single bit
    f*(M-1)+i, so an answer's payload is its coefficient row."""
    width = m - 1
    bits = [(1 << b).to_bytes((k * width + 7) // 8, "little") for b in range(k * width)]
    return sfpir.GroupStorage(m, tuple(tuple(bits[f * width : (f + 1) * width]) for f in range(k)))


def _basis_rounds(basis: sfpir.GroupStorage, query_fn=make_queries):
    """Yield (theta, base, answers) for every round of `_rounds`, answered
    on `basis`. A reply is a function of its query and the storage alone,
    so each distinct query (at most M^K of them) is answered once; the
    memo lives only as long as this walk."""
    replies = {}
    for theta, base, queries in _rounds(basis.m, basis.k, query_fn):
        for q in queries:
            if q not in replies:
                replies[q] = answer(q, basis)
        yield theta, base, [replies[q] for q in queries]


def privacy_audit(layout: PacketLayout, library: FileLibrary, query_fn=make_queries) -> AuditCheck:
    """Per server position, the multiset of received queries over all M^K
    base vectors must be the same for every wanted file as for file 1.
    That one (M, K) round decides every server's whole view, in every
    group and jointly over its groups (see the module docstring).
    """
    mismatches = []  # (position, file) whose view differs from file 1's
    reference = None  # only file 1's views and the current file's are held
    for theta, rounds in groupby(_rounds(layout.m, library.k_files, query_fn), itemgetter(0)):
        views = [Counter() for _ in range(layout.m)]
        for _, _, queries in rounds:
            for view, query in zip(views, queries):
                view[query] += 1
        reference = reference or views
        mismatches += [(pos, theta) for pos in range(layout.m) if views[pos] != reference[pos]]
    detail = "the server at position {} of every group can separate requests for file 1 and file {}"
    return AuditCheck(
        name="privacy",
        passed=not mismatches,
        measured=len(mismatches),
        expected=0,
        tag="query-answer-indistinguishability",
        detail=detail.format(*mismatches[0]) if mismatches else "",
    )


def correctness_audit(
    plan: StoragePlan, layout: PacketLayout, library: FileLibrary, tamper=lambda g, pos, a: a
) -> AuditCheck:
    """Every wanted file decodes exactly, for every realization.

    Every (theta, base) round is decoded once on the one-hot basis, where
    returning theta's basis packets proves that round exact for every
    group and every library (see the module docstring). Real bytes then
    check the slicing: the assembled retrieval of each file at base
    (0,)*K, with each of its group rounds decoded again after
    `tamper(group, server_pos, answer)`, by default the identity; tests
    pass a hook that corrupts an answer.
    """
    failures = runs = 0
    first = ""

    def check(theta, base, answers, want, where):
        nonlocal failures, runs, first
        runs += 1
        try:
            if b"".join(decode(theta, base, answers)) == want:
                return
        except ProtocolViolation:
            where += " (protocol violation)"
        failures += 1
        first = first or f"file {theta} mis-decoded at {where}"

    basis = _basis(layout.m, plan.k)
    for theta, base, answers in _basis_rounds(basis):
        check(theta, base, answers, b"".join(basis.packets[theta - 1]), f"base {base}")
    zero = (0,) * plan.k
    for theta in range(1, plan.k + 1):
        t = retrieve(theta, plan, layout, library, [zero] * len(layout.groups))
        runs += len(t.groups)  # retrieve decodes each group round once
        for g, region in zip(t.groups, layout.groups):
            answers = [tamper(g.group, pos, a) for pos, a in enumerate(g.answers)]
            want = library.file(theta)[region.file_offset : region.file_offset + region.group_bytes]
            check(theta, zero, answers, want, f"group {g.group} base {zero}")
        if t.decoded_file != library.file(theta):
            failures += 1
            first = first or f"file {theta} mis-decoded at assembled retrieval"
    return AuditCheck(
        name="correctness",
        passed=failures == 0,
        measured=f"{failures} failures in {runs} decodes",
        expected="0 failures",
        tag="exact-decoding",
        detail=first,
    )


def rate_audit(layout: PacketLayout, library: FileLibrary) -> AuditCheck:
    """The enumerated average download must equal the closed form
    L * (1 + 1/M + ... + 1/M^(K-1)) exactly, for every wanted file, with L
    the layout's file length. A group's download is its packet size times
    one (M, K) round's non-silent answers (see the module docstring),
    counted once per file on the one-hot basis.
    """
    k, m = library.k_files, layout.m
    expected = average_download(layout, k)
    sent = Counter(
        theta for theta, _, answers in _basis_rounds(_basis(m, k)) for a in answers if not a.silent
    )
    packet_bytes = sum(region.packet_bytes for region in layout.groups)
    measured = [Fraction(packet_bytes * sent[theta], m**k) for theta in range(1, k + 1)]
    passed = all(v == expected for v in measured)
    return AuditCheck(
        name="rate",
        passed=passed,
        measured=str(measured[0]) if len(set(measured)) == 1 else str(measured),
        expected=str(expected),
        tag="exact-average-download",
        detail="" if passed else f"per-file averages {measured} vs {expected} symbols",
    )


def storage_audit(plan: StoragePlan, layout: PacketLayout) -> AuditCheck:
    """Placement and capacity are exact: every group (hence every packet)
    sits on exactly M servers, and every server's stored symbol count is
    exactly M*K*L/N."""
    problems = []
    holders = Counter(gi for stored in plan.per_server.values() for gi in set(stored))
    for gi in range(len(layout.groups)):
        if holders[gi] != plan.m:
            problems.append(f"group {gi} stored on {holders[gi]} servers, expected {plan.m}")
    budget = Fraction(plan.m * plan.k * plan.file_len, plan.n)
    for server in range(1, plan.n + 1):
        used = plan.k * sum(layout.groups[gi].group_bytes for gi in plan.per_server.get(server, ()))
        if used != budget:
            problems.append(f"server {server} stores {used} symbols, expected {budget}")
    return AuditCheck(
        name="storage",
        passed=not problems,
        measured=f"{len(problems)} violations",
        expected="0 violations",
        tag="exact-placement-and-capacity",
        detail=problems[0] if problems else "",
    )


def _gf2_independent(rows) -> bool:
    pivots: dict[int, int] = {}
    for row in rows:
        cur = row
        while cur:
            lead = cur.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = cur
                break
            cur ^= pivots[lead]
        if cur == 0:
            return False
    return True


def conditions_audit(m: int, k: int, query_fn=make_queries) -> AuditCheck:
    """Structural conditions on the answer coefficients, checked for every
    wanted file and every base vector of one (M, K) group:

    * the wanted-file coefficient rows of the transmitted answers, zero
      rows dropped, are linearly independent over GF(2);
    * the same holds for the rows restricted to all files but any one
      unwanted file;
    * the residual rows (all files except the wanted one and any one other
      file) are identical across all transmitted answers.

    The rows are the answers themselves, taken on the one-hot basis.
    """
    width = m - 1  # coefficient bits per file; the virtual packet has none
    violations = 0
    first = ""
    blocks = [((1 << width) - 1) << (f * width) for f in range(k)]  # bits of file f+1

    def note(kind, theta, base):
        nonlocal violations, first
        violations += 1
        first = first or f"{kind} violated for file {theta}, base {base}"

    for theta, base, answers in _basis_rounds(_basis(m, k), query_fn):
        rows = [int.from_bytes(a.payload, "little") for a in answers if not a.silent]
        wanted = [r & blocks[theta - 1] for r in rows]
        if not _gf2_independent([r for r in wanted if r]):
            note("retrieved-independence", theta, base)
        spread = 0  # the bits on which some row differs from the first
        for r in rows:
            spread |= r ^ rows[0]
        for other in range(1, k + 1):
            if other == theta:
                continue
            kept = [r & ~blocks[other - 1] for r in rows]
            if not _gf2_independent([r for r in kept if r]):
                note("requested-independence", theta, base)
            if spread & ~(blocks[theta - 1] | blocks[other - 1]):
                note("residual-identity", theta, base)
    return AuditCheck(
        name="conditions",
        passed=violations == 0,
        measured=violations,
        expected=0,
        tag="coefficient-structure",
        detail=first,
    )


def subpacketization_audit(n: int, m: int) -> list[AuditCheck]:
    """Sub-packetization of each built construction versus its closed form
    in `sda`, the combinatorial floor, and the worst-case gap."""

    def compare(name, build, closed_form, tag) -> tuple[int, AuditCheck]:
        eta = sda.column_profile(build(n, m)).eta
        return eta, AuditCheck(name, eta == closed_form, eta * (m - 1), closed_form * (m - 1), tag)

    eta_equal, equal = compare("equal-size-subpacketization", sda.build_equal_size,
                               sda.eta_equal(n, m), "distinct-cyclic-columns")
    eta_greedy, greedy = compare("greedy-subpacketization", sda.build_greedy,
                                 sda.eta_recursion(n, m), "greedy-recursion-value")
    checks = [
        equal,
        greedy,
        AuditCheck(
            name="greedy-beats-equal",
            passed=eta_greedy <= eta_equal,
            measured=eta_greedy * (m - 1),
            expected=f"<= {eta_equal * (m - 1)}",
            tag="unequal-packets-never-worse",
        ),
    ]
    family = sda.improved_family(n, m)
    if family is not None:
        checks.append(compare("improved-subpacketization", sda.build_improved,
                              family[2], "block-template-value")[1])
    lower = sda.eta_lower_bound(n, m)
    bound = sda.gap_bound(n, m)
    ratio = Fraction(eta_greedy, lower)
    checks.append(
        AuditCheck(
            name="gap-bound",
            passed=ratio <= bound,
            measured=str(ratio),
            expected=f"<= {bound}",
            tag="greedy-within-gap-of-floor",
        )
    )
    if m == n or n % min(m, n - m) == 0:
        checks.append(
            AuditCheck(
                name="optimal-case",
                passed=eta_greedy == lower,
                measured=eta_greedy * (m - 1),
                expected=lower * (m - 1),
                tag="floor-met-when-divisible",
            )
        )
    return checks


def run_full_audit(n: int, m: int, k: int, seed: int = 0) -> AuditReport:
    """Run every audit on the greedy scheme for (N, M, K) at minimal length,
    refusing bad (N, M), out-of-scope (M, K), over-budget walks and then
    oversized retrievals (`scheme.greedy_scheme`) before building it."""
    sda.require_params(n, m)
    require_retrieval_params(m, k)
    _check_bill(m, k)
    layout, plan, library = greedy_scheme(n, m, k, 1, seed)
    return AuditReport(
        [
            storage_audit(plan, layout),
            privacy_audit(layout, library),
            correctness_audit(plan, layout, library),
            rate_audit(layout, library),
            conditions_audit(m, k),
            *subpacketization_audit(n, m),
        ]
    )
