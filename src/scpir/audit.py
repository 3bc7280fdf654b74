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
f*(M-1)+i, an answer's `value` is its coefficient row, and a round that
decodes the basis decodes every group of every library.

The round-level audits (privacy, correctness, rate, conditions) are folds
over one walk of the K*M^K (theta, base) rounds, refused up front when
their K*M^(K+1) queries are over MAX_REALIZATIONS. Those rounds hold only
M^K distinct queries, so the walk answers each once on the basis and
replays the reply from a memo that ends with the walk; `run_full_audit`
hands every round to all four folds, so its whole run answers M^K
queries. Each fold keeps only its sufficient statistic: per-position
query counts, decodes, non-silent answers, and, for the conditions, at
most two GF(2) eliminations per honest round.

The query-builder hooks exist so the audits themselves can be tested:
deliberately broken builders (offset dropped from the wanted coordinate,
two servers sharing a shift) must make the privacy and independence
checks fail.
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

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

MAX_REALIZATIONS = 10**6  # walked queries one round walk may count or check


def _check_bill(m: int, k: int) -> None:
    """Refuse a round walk whose bill, K*M^(K+1) walked queries, is over
    MAX_REALIZATIONS. The one walk answers only its M^K distinct queries,
    and each fold does a bounded amount of work per round of M walked
    queries: privacy counts them, correctness decodes the round once, rate
    counts its non-silent replies, and conditions runs at most two GF(2)
    eliminations of at most M rows on an honest round, besides one mask
    test per unwanted file. M^64 alone exceeds the budget for M >= 2, so
    the power stops there."""
    if k * m ** min(k + 1, 64) > MAX_REALIZATIONS:
        raise ValueError(
            f"auditing (M, K) = ({m}, {k}) answers K*M^(K+1) = {k}*{m}^{k + 1} queries, "
            f"over the budget of {MAX_REALIZATIONS}"
        )


def _basis(m: int, k: int) -> sfpir.GroupStorage:
    """One group's storage in which packet i of file f+1 is the single bit
    f*(M-1)+i, so an answer's `value` is its coefficient row."""
    width = m - 1
    bits = [(1 << b).to_bytes((k * width + 7) // 8, "little") for b in range(k * width)]
    return sfpir.GroupStorage(m, tuple(tuple(bits[f * width : (f + 1) * width]) for f in range(k)))


def _basis_rounds(basis: sfpir.GroupStorage, query_fn=make_queries):
    """Yield (theta, base, queries, answers) for every wanted file and base
    vector of one (M, K) group, answered on `basis`. A reply is a function
    of its query and the storage alone, so each distinct query (at most
    M^K of them) is answered once; the memo lives only as long as this
    walk."""
    m, k = basis.m, basis.k
    replies = {}
    for theta in range(1, k + 1):
        for base in enumerate_realizations(m, k):
            queries = query_fn(theta, base, m)
            for q in queries:
                if q not in replies:
                    replies[q] = answer(q, basis)
            yield theta, base, queries, [replies[q] for q in queries]


def _walk(m: int, k: int, folds, query_fn=make_queries) -> list:
    """Walk every round of one (M, K) group once, after checking the
    walk's bill, and hand each (theta, base, queries, answers) to every
    fold's `step`; return each fold's `finish()`."""
    _check_bill(m, k)
    steps = [fold.step for fold in folds]
    for round_ in _basis_rounds(_basis(m, k), query_fn):
        for step in steps:
            step(*round_)
    return [fold.finish() for fold in folds]


class _Privacy:
    """Per server position, the multiset of received queries over all M^K
    base vectors must be the same for every wanted file as for file 1.
    That one (M, K) round decides every server's whole view, in every
    group and jointly over its groups (see the module docstring). Rounds
    arrive file by file, so only file 1's views and the current file's
    are held."""

    def __init__(self, m: int):
        self.m = m
        self.theta = 0
        self.views = self.reference = None
        self.mismatches = []  # (position, file) whose view differs from file 1's
        self.interned = {}  # one tuple per distinct query, shared by every view

    def _close_file(self):
        if self.views is None:
            return
        self.reference = self.reference or self.views
        # dict equality is exact here: a view only ever counts up, so it never
        # holds a zero count, and C-level dict.__eq__ skips Counter.__eq__'s
        # Python-level walk that treats missing keys as zero
        self.mismatches += [
            (pos, self.theta)
            for pos in range(self.m)
            if not dict.__eq__(self.views[pos], self.reference[pos])
        ]

    def step(self, theta, base, queries, answers):
        if theta != self.theta:
            self._close_file()
            self.theta, self.views = theta, [Counter() for _ in range(self.m)]
        intern = self.interned.setdefault
        for view, query in zip(self.views, queries):
            view[intern(query, query)] += 1

    def finish(self) -> AuditCheck:
        self._close_file()
        detail = "the server at position {} of every group can separate requests for file 1 and file {}"
        return AuditCheck(
            name="privacy",
            passed=not self.mismatches,
            measured=len(self.mismatches),
            expected=0,
            tag="query-answer-indistinguishability",
            detail=detail.format(*self.mismatches[0]) if self.mismatches else "",
        )


def privacy_audit(layout: PacketLayout, library: FileLibrary, query_fn=make_queries) -> AuditCheck:
    """The privacy fold (`_Privacy`) over one walk."""
    return _walk(layout.m, library.k_files, [_Privacy(layout.m)], query_fn)[0]


class _Correctness:
    """Every wanted file decodes exactly, for every realization.

    `step` decodes every (theta, base) round once on the one-hot basis,
    where returning theta's basis packets proves that round exact for
    every group and every library (see the module docstring). `finish`
    then checks the slicing with real bytes: the assembled retrieval of
    each file at base (0,)*K, with each of its group rounds decoded again
    after `tamper(group, server_pos, answer)`.
    """

    def __init__(self, plan: StoragePlan, layout: PacketLayout, library: FileLibrary, tamper):
        self.plan, self.layout, self.library, self.tamper = plan, layout, library, tamper
        self.wants = [b"".join(row) for row in _basis(layout.m, plan.k).packets]
        self.failures = self.runs = 0
        self.first = ""

    def _fail(self, detail: str):
        self.failures += 1
        self.first = self.first or detail

    def _check(self, theta, base, answers, want, where=""):
        self.runs += 1
        try:
            if b"".join(decode(theta, base, answers)) == want:
                return
            violation = ""
        except ProtocolViolation:
            violation = " (protocol violation)"
        self._fail(f"file {theta} mis-decoded at {where}base {base}{violation}")

    def step(self, theta, base, queries, answers):
        self._check(theta, base, answers, self.wants[theta - 1])

    def finish(self) -> AuditCheck:
        plan, layout, library = self.plan, self.layout, self.library
        zero = (0,) * plan.k
        for theta in range(1, plan.k + 1):
            t = retrieve(theta, plan, layout, library, [zero] * len(layout.groups))
            self.runs += len(t.groups)  # retrieve decodes each group round once
            for g, region in zip(t.groups, layout.groups):
                answers = [self.tamper(g.group, pos, a) for pos, a in enumerate(g.answers)]
                want = library.file(theta)[region.file_offset : region.file_offset + region.group_bytes]
                self._check(theta, zero, answers, want, f"group {g.group} ")
            if t.decoded_file != library.file(theta):
                self._fail(f"file {theta} mis-decoded at assembled retrieval")
        return AuditCheck(
            name="correctness",
            passed=self.failures == 0,
            measured=f"{self.failures} failures in {self.runs} decodes",
            expected="0 failures",
            tag="exact-decoding",
            detail=self.first,
        )


def _as_sent(group: int, pos: int, reply: sfpir.Answer) -> sfpir.Answer:
    """The identity tamper hook: every answer is checked as it was sent."""
    return reply


def correctness_audit(
    plan: StoragePlan, layout: PacketLayout, library: FileLibrary, tamper=_as_sent
) -> AuditCheck:
    """The correctness fold (`_Correctness`) over one walk. Tests pass a
    `tamper` hook that corrupts an answer."""
    return _walk(layout.m, plan.k, [_Correctness(plan, layout, library, tamper)])[0]


class _Rate:
    """The enumerated average download must equal the closed form
    L * (1 + 1/M + ... + 1/M^(K-1)) exactly, for every wanted file, with L
    the layout's file length. A group's download is its packet size times
    one (M, K) round's non-silent answers (see the module docstring),
    counted once per file on the one-hot basis."""

    def __init__(self, layout: PacketLayout, k: int):
        self.layout, self.k = layout, k
        self.sent = Counter()

    def step(self, theta, base, queries, answers):
        self.sent[theta] += sum(a.value is not None for a in answers)

    def finish(self) -> AuditCheck:
        layout, k = self.layout, self.k
        expected = average_download(layout, k)
        packet_bytes = sum(region.packet_bytes for region in layout.groups)
        measured = [Fraction(packet_bytes * self.sent[theta], layout.m**k) for theta in range(1, k + 1)]
        passed = all(v == expected for v in measured)
        return AuditCheck(
            name="rate",
            passed=passed,
            measured=str(measured[0]) if len(set(measured)) == 1 else str(measured),
            expected=str(expected),
            tag="exact-average-download",
            detail="" if passed else f"per-file averages {measured} vs {expected} symbols",
        )


def rate_audit(layout: PacketLayout, library: FileLibrary) -> AuditCheck:
    """The rate fold (`_Rate`) over one walk."""
    return _walk(layout.m, library.k_files, [_Rate(layout, library.k_files)])[0]


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


class _Conditions:
    """Structural conditions on the answer coefficients, checked for every
    wanted file and every base vector of one (M, K) group:

    * the wanted-file coefficient rows of the transmitted answers, zero
      rows dropped, are linearly independent over GF(2);
    * the same holds for the rows restricted to all files but any one
      unwanted file;
    * the residual rows (all files except the wanted one and any one other
      file) are identical across all transmitted answers.

    The rows are the answers' values, taken on the one-hot basis.

    Only the statistic that decides each verdict is eliminated. Where
    residual identity holds for the unwanted file o, every kept row is
    wanted_i XOR e_o, with e_o the first row's bits outside the blocks of
    the wanted file and of o. If e_o = 0 the kept rows are the wanted
    rows. Otherwise e_o is linearly independent of the wanted block, so
    mapping it to one fresh bit above every block is injective on their
    span, and the kept rows are independent exactly when the rows
    wanted_i | fresh are; that set is the same for every such o. An
    honest round therefore runs at most two eliminations; only where
    residual identity fails are the kept rows eliminated in full.
    """

    def __init__(self, m: int, k: int):
        width = m - 1  # coefficient bits per file; the virtual packet has none
        blocks = [((1 << width) - 1) << (f * width) for f in range(k)]  # bits of file f+1
        # per wanted file: (~block_o, ~(block_theta | block_o)) for every unwanted o
        self.others = [
            [(~blocks[o], ~(blocks[t] | blocks[o])) for o in range(k) if o != t] for t in range(k)
        ]
        self.blocks = blocks
        self.fresh = 1 << (k * width)
        self.violations = 0
        self.first = None  # (kind, theta, base) of the first violation

    def _note(self, kind, theta, base):
        self.violations += 1
        self.first = self.first or (kind, theta, base)

    def step(self, theta, base, queries, answers):
        rows = [a.value for a in answers if a.value is not None]
        own = self.blocks[theta - 1]
        wanted = [r & own for r in rows]
        retrieved = _gf2_independent([w for w in wanted if w])
        if not retrieved:
            self._note("retrieved-independence", theta, base)
        head = rows[0] if rows else 0  # duplicate shifts at M = 2 can silence every server
        spread = 0  # the bits on which some row differs from the first
        for r in rows:
            spread |= r ^ head
        tagged = None  # independence of wanted_i | fresh, once some e_o != 0 needs it
        for drop, outside in self.others[theta - 1]:
            if spread & outside:
                if not _gf2_independent([kept for r in rows if (kept := r & drop)]):
                    self._note("requested-independence", theta, base)
                self._note("residual-identity", theta, base)
                continue
            if head & outside:
                if tagged is None:
                    tagged = _gf2_independent([w | self.fresh for w in wanted])
                independent = tagged
            else:
                independent = retrieved
            if not independent:
                self._note("requested-independence", theta, base)

    def finish(self) -> AuditCheck:
        return AuditCheck(
            name="conditions",
            passed=self.violations == 0,
            measured=self.violations,
            expected=0,
            tag="coefficient-structure",
            detail="{} violated for file {}, base {}".format(*self.first) if self.first else "",
        )


def conditions_audit(m: int, k: int, query_fn=make_queries) -> AuditCheck:
    """The conditions fold (`_Conditions`) over one walk."""
    return _walk(m, k, [_Conditions(m, k)], query_fn)[0]


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
    folds = [_Privacy(m), _Correctness(plan, layout, library, _as_sent),
             _Rate(layout, k), _Conditions(m, k)]
    return AuditReport([storage_audit(plan, layout), *_walk(m, k, folds),
                        *subpacketization_audit(n, m)])
