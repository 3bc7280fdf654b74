"""Exhaustive audits of constructed schemes, with exact bookkeeping.

Every check enumerates the full (finite, uniform) randomness of the
protocol instead of sampling, and every comparison is an integer or
rational identity; there are no tolerances anywhere. Each check records
what was measured and what was expected, so a report line is a complete
claim on its own.

Each audit enumerates only the statistic that decides it. Groups draw
independent base vectors, `answer` is a deterministic function of (query,
stored packets), and the query builder never sees the group. So a
server's view is decided by one (M, K) round's query multiset, a group's
download by its count of non-silent answers, and a retrieval by its
per-group decodes, since regions concatenate.

The query-builder hooks exist so the audits themselves can be tested:
deliberately broken builders (offset dropped from the wanted coordinate,
two servers sharing a shift) must make the privacy and independence
checks fail.
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import sda
from .scheme import (
    FileLibrary,
    PacketLayout,
    StoragePlan,
    average_download,
    group_storage,
    minimal_length,
    plan_storage,
    random_library,
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

    def extend(self, checks) -> None:
        self.checks.extend(checks)

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
    queries = []
    for server in range(m):
        vec = list(base)
        vec[theta - 1] = server
        queries.append(tuple(vec))
    return queries


def queries_duplicate_shift(theta: int, base: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Faulty builder: servers 0 and 1 receive the same shift, so two
    answers carry the same wanted packet and one packet is never served."""
    queries = make_queries(theta, base, m)
    return [queries[0], queries[0]] + queries[2:]


# ---------------------------------------------------------------------------
# Individual audits
# ---------------------------------------------------------------------------


def privacy_audit(layout: PacketLayout, library: FileLibrary, query_fn=make_queries) -> AuditCheck:
    """Per server position and per pair of wanted files, the multiset of
    received queries over all M^K base vectors must coincide.

    This is the server's whole view: its answer is a function of the
    query and its storage alone, so equal query multisets give equal
    (query, answer) multisets. The queries do not depend on the group, so
    one (M, K) round covers every group, and a server in several groups
    sees independent rounds, so its joint view is identical too.
    """
    k = library.k_files
    m = layout.m
    views = []
    for theta in range(1, k + 1):
        per_server = [Counter() for _ in range(m)]
        for base in enumerate_realizations(m, k):
            for pos, query in enumerate(query_fn(theta, base, m)):
                per_server[pos][query] += 1
        views.append(per_server)
    mismatches = 0
    first = ""
    for pos in range(m):
        for a in range(k):
            for b in range(a + 1, k):
                if views[a][pos] != views[b][pos]:
                    mismatches += 1
                    if not first:
                        first = (
                            f"the server at position {pos} of every group can separate "
                            f"requests for file {a + 1} and file {b + 1}"
                        )
    return AuditCheck(
        name="privacy",
        passed=mismatches == 0,
        measured=mismatches,
        expected=0,
        tag="query-answer-indistinguishability",
        detail=first,
    )


def correctness_audit(
    plan: StoragePlan, layout: PacketLayout, library: FileLibrary, tamper=None
) -> AuditCheck:
    """Every wanted file decodes exactly, for every realization.

    Groups run independent rounds and their decoded regions concatenate,
    so each group is enumerated on its own: every (file, group, base)
    round is decoded and compared with its region. One full retrieval per
    file then checks the assembly. `tamper(group, server_pos, answer)`
    lets tests corrupt an answer.
    """
    k = plan.k
    m = layout.m
    storages = [group_storage(layout, gi, library) for gi in range(len(layout.groups))]
    failures = 0
    runs = 0
    first = ""

    def note(theta, where):
        nonlocal failures, first
        failures += 1
        if not first:
            first = f"file {theta} mis-decoded at {where}"

    for theta in range(1, k + 1):
        for gi, (region, storage) in enumerate(zip(layout.groups, storages)):
            want = library.file(theta)[region.file_offset : region.file_offset + region.group_bytes]
            for base in enumerate_realizations(m, k):
                runs += 1
                answers = [answer(q, storage) for q in make_queries(theta, base, m)]
                if tamper is not None:
                    answers = [tamper(gi, pos, a) for pos, a in enumerate(answers)]
                try:
                    segment = b"".join(decode(theta, base, answers))
                except ProtocolViolation:
                    note(theta, f"group {gi} base {base} (protocol violation)")
                    continue
                if segment != want:
                    note(theta, f"group {gi} base {base}")
        t = retrieve(theta, plan, layout, library, [(0,) * k] * len(layout.groups))
        runs += 1
        if t.decoded_file != library.file(theta):
            note(theta, "assembled retrieval")
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
    L * (1 + 1/M + ... + 1/M^(K-1)) exactly, for every wanted file.

    Whether a server stays silent depends on its query alone, and every
    other answer carries one packet of its group, so a group's download
    is its packet size times the non-silent answers of one (M, K) round.
    That count is taken once per file, on one group's storage.
    """
    k = library.k_files
    m = layout.m
    expected = average_download(layout, k)
    storage = group_storage(layout, 0, library)
    packet_bytes = sum(region.packet_bytes for region in layout.groups)
    measured = []
    for theta in range(1, k + 1):
        sent = sum(
            not answer(query, storage).silent
            for base in enumerate_realizations(m, k)
            for query in make_queries(theta, base, m)
        )
        measured.append(Fraction(packet_bytes * sent, m**k))
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
        used = Fraction(
            plan.k * sum(layout.groups[gi].group_bytes for gi in plan.per_server.get(server, ()))
        )
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
    """
    width = m - 1  # coefficient bits per file; the virtual packet has none
    violations = 0
    first = ""

    def block(file_index: int) -> int:
        return ((1 << width) - 1) << ((file_index - 1) * width)

    def note(kind, theta, base):
        nonlocal violations, first
        violations += 1
        if not first:
            first = f"{kind} violated for file {theta}, base {base}"

    for theta in range(1, k + 1):
        for base in enumerate_realizations(m, k):
            rows = []
            for query in query_fn(theta, base, m):
                if all(q == m - 1 for q in query):
                    continue  # silent server transmits nothing
                row = 0
                for fi, q in enumerate(query):
                    if q != m - 1:
                        row |= 1 << (fi * width + q)
                rows.append(row)
            wanted = [r & block(theta) for r in rows]
            if not _gf2_independent([r for r in wanted if r]):
                note("retrieved-independence", theta, base)
            for other in range(1, k + 1):
                if other == theta:
                    continue
                kept = [r & ~block(other) for r in rows]
                if not _gf2_independent([r for r in kept if r]):
                    note("requested-independence", theta, base)
                residual_mask = ~(block(theta) | block(other))
                residuals = {r & residual_mask for r in rows}
                if len(residuals) > 1:
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
    """Sub-packetization of the constructions versus their closed forms,
    the combinatorial floor, and the worst-case gap."""
    g = gcd(n, m)
    checks = []
    eta_equal = sda.column_profile(sda.build_equal_size(n, m)).eta
    checks.append(
        AuditCheck(
            name="equal-size-subpacketization",
            passed=eta_equal * (m - 1) == n * (m - 1) // g,
            measured=eta_equal * (m - 1),
            expected=n * (m - 1) // g,
            tag="distinct-cyclic-columns",
        )
    )
    eta_greedy = sda.column_profile(sda.build_greedy(n, m)).eta
    checks.append(
        AuditCheck(
            name="greedy-subpacketization",
            passed=eta_greedy == sda.eta_recursion(n, m),
            measured=eta_greedy * (m - 1),
            expected=sda.eta_recursion(n, m) * (m - 1),
            tag="greedy-recursion-value",
        )
    )
    checks.append(
        AuditCheck(
            name="greedy-beats-equal",
            passed=eta_greedy <= eta_equal,
            measured=eta_greedy * (m - 1),
            expected=f"<= {eta_equal * (m - 1)}",
            tag="unequal-packets-never-worse",
        )
    )
    family = sda.improved_family(n, m)
    if family is not None:
        _, _, improved_eta = family
        measured = sda.column_profile(sda.build_improved(n, m)).eta
        checks.append(
            AuditCheck(
                name="improved-subpacketization",
                passed=measured == improved_eta,
                measured=measured * (m - 1),
                expected=improved_eta * (m - 1),
                tag="block-template-value",
            )
        )
    lower = sda.eta_lower_bound(n, m)
    bound = Fraction(min(m, n - m), g) if m < n else Fraction(1)
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


def run_full_audit(n: int, m: int, k: int, seed: int = 0, l_multiplier: int = 1) -> AuditReport:
    """Build the greedy scheme for (N, M, K) and run every audit on it."""
    if m < 2:
        raise ValueError("retrieval needs M >= 2; M=1 forces downloading everything")
    alpha = sda.alpha_from_profile(sda.column_profile(sda.build_greedy(n, m)))
    file_len = l_multiplier * minimal_length(n, m)
    library = random_library(k, file_len, seed)
    layout, plan = plan_storage(alpha, k, file_len)
    report = AuditReport()
    report.extend(
        [
            storage_audit(plan, layout),
            privacy_audit(layout, library),
            correctness_audit(plan, layout, library),
            rate_audit(layout, library),
            conditions_audit(m, k),
        ]
    )
    report.extend(subpacketization_audit(n, m))
    return report
