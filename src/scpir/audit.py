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
their K*M^(K+1) queries are over MAX_REALIZATIONS. Each round is validated
once, by `decode`.

The rounds hold only M^K distinct queries. The walk answers each once
(once per audited scheme too: `run_full_audit`'s four folds share it) into
one table of replies, in `enumerate_realizations` order. A query and its
position in that order determine each other, so each file is one list
of table positions, one per server per round, in round order. Honest
positions are `sfpir.query_positions`, the query rule's whole-file form;
any other builder's queries are looked up in a map from query to
position. Each fold's `close` reads the replies it needs in place, at
the file's positions, a round's M at a time where it checks rounds. Each
fold keeps only its sufficient statistic, with little Python work per
round:

* privacy sorts each server position's query positions, none at K = 1;
* correctness compares `decode`'s packet list with the basis packets;
* rate counts the file's positions that are not silent in the table;
* conditions, at K >= 2, first decides the whole file from two
  statistics, with silence read as the zero row: two GF(2) eliminations
  of each distinct tuple of wanted rows, and residual identity as one
  list of residual rows per server slot, all equal. A file that fails
  either, and every file at K = 1, is read a round at a time by the
  definition of the three conditions.

The honest walk is linked to the builder `retrieve` runs: per file,
`sfpir.make_queries` (looked up at call time) is called at the base with
1 at theta and 0 elsewhere, where a dropped offset shows, and a mismatch
with `query_positions` sends that file through the builder itself. That
is one linked base per file, not an audit of every base; Tier-1 proves
the two equal on every base where M^K <= 256.

The query-builder hooks exist so the audits themselves can be tested:
deliberately broken builders (offset dropped from the wanted coordinate,
two servers sharing a shift) must make the privacy and independence
checks fail.
"""

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import count, repeat
from operator import or_
from typing import NamedTuple

from . import sda, sfpir
from .scheme import (
    FileLibrary,
    PacketLayout,
    StoragePlan,
    average_download,
    retrieve,
)
from .sfpir import ProtocolViolation, answer, decode, enumerate_realizations, make_queries, query_positions


class AuditCheck(NamedTuple):
    name: str
    passed: bool
    measured: object
    expected: object
    tag: str
    detail: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"


class AuditReport(NamedTuple):
    checks: list[AuditCheck]

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


def check_bill(m: int, k: int) -> None:
    """Refuse a round walk whose bill, K*M^(K+1) walked queries, is over
    MAX_REALIZATIONS; `cli` calls it before building the scheme, `_walk`
    before building any list. The walk answers M^K distinct queries into one
    table the folds read in place. Per round, correctness decodes once (which
    validates the round) and conditions runs at most K GF(2) eliminations
    of at most M rows, two per distinct tuple of wanted rows in a file it
    clears whole; privacy sorts the file's M*M^K positions (none at K = 1),
    rate counts them. M^64 alone exceeds the budget for M >= 2, so the
    power stops there."""
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


def _builder_order(query_fn, theta: int, m: int, index: dict, basis: sfpir.GroupStorage) -> list:
    """File theta's table positions in round order, from the builder
    `query_fn` called on every base; `index` maps each of the M^K queries
    to its position. A round other than M queries, or a query other than a
    tuple, is refused with ValueError: the folds regroup the lists M at a
    time, and `index` hashes every query. A round with a tuple outside the
    table, or one that cannot be hashed, goes to `answer`, which refuses it."""
    order = []
    for base in enumerate_realizations(m, basis.k):
        queries = query_fn(theta, base, m)
        if len(queries) != m:
            raise ValueError(f"query builder gave {len(queries)} queries for file {theta} at base {base}, "
                             f"not M={m}")
        if not all(isinstance(q, tuple) for q in queries):
            raise ValueError(f"query builder gave a query other than a tuple for file {theta} at base {base}")
        try:
            order += map(index.__getitem__, queries)
        except (KeyError, TypeError):
            for query in queries:
                answer(query, basis)
            raise
    return order


def _linked(theta: int, m: int, k: int, positions: list) -> bool:
    """Whether `sfpir.make_queries`, looked up now, sends at the base with 1
    at theta and 0 elsewhere the M queries whose mixed-radix positions
    `positions` holds for that round: one linked base, not every base."""
    base = (0,) * (theta - 1) + (1,) + (0,) * (k - theta)
    start = m * m ** (k - theta)  # the base's position is its round's index
    held = [tuple(p // m**e % m for e in reversed(range(k))) for p in positions[start : start + m]]
    return sfpir.make_queries(theta, base, m) == held


def _walk(m: int, k: int, folds, query_fn=None) -> list:
    """Walk every round of one (M, K) group once, after checking its bill,
    and return each fold's `finish()`. The M^K queries are answered once,
    into one table in `enumerate_realizations` order, which every fold's
    `close(theta, m, positions, replies)` reads in place at each file's
    positions, file after file, in round order: `query_positions` for
    honest queries (`query_fn` None) that `_linked` ties to
    `sfpir.make_queries`, else looked up by `_builder_order`."""
    check_bill(m, k)
    basis = _basis(m, k)
    replies = list(map(answer, enumerate_realizations(m, k), repeat(basis)))
    index = None
    for theta in range(1, k + 1):
        positions = None if query_fn else query_positions(theta, m, k)
        if positions is None or not _linked(theta, m, k, positions):
            index = index or dict(zip(enumerate_realizations(m, k), count()))
            positions = _builder_order(query_fn or sfpir.make_queries, theta, m, index, basis)
        for fold in folds:
            fold.close(theta, m, positions, replies)
        del positions  # hold one file's positions, not two while the next file's are cut
    return [fold.finish() for fold in folds]


def _rounds(m: int, k: int, positions: list, replies: list):
    """One file's (base, M replies) rounds, read in place from the walk's table."""
    return zip(enumerate_realizations(m, k), zip(*[map(replies.__getitem__, positions)] * m))


class _Privacy:
    """Per server position, the multiset of received queries over all M^K
    base vectors must be the same for every wanted file as for file 1.
    That one (M, K) round decides every server's whole view, in every
    group and jointly over its groups (see the module docstring). A query
    and its position in `enumerate_realizations` order determine each
    other, so equal multisets of positions are equal multisets of queries,
    and two multisets are equal exactly when their sorted lists are:
    `close` sorts every M-th of the file's positions. File 1's sorted
    lists are held only when another file follows, so at K = 1 the fold
    does no work."""

    def __init__(self, k: int):
        self.k = k
        self.reference = []  # file 1's sorted positions per server position
        self.mismatches = []  # (position, file) whose view differs from file 1's

    def close(self, theta, m, positions, replies):
        if theta == 1:
            if self.k > 1:
                self.reference = [sorted(positions[pos::m]) for pos in range(m)]
            return
        for pos, view in enumerate(self.reference):
            if sorted(positions[pos::m]) != view:
                self.mismatches.append((pos, theta))

    def finish(self) -> AuditCheck:
        detail = "the server at position {} of every group can separate requests for file 1 and file {}"
        return AuditCheck(
            name="privacy",
            passed=not self.mismatches,
            measured=len(self.mismatches),
            expected=0,
            tag="query-answer-indistinguishability",
            detail=detail.format(*self.mismatches[0]) if self.mismatches else "",
        )


def privacy_audit(layout: PacketLayout, library: FileLibrary, query_fn=None) -> AuditCheck:
    """The privacy fold (`_Privacy`) over one walk."""
    return _walk(layout.m, library.k_files, [_Privacy(library.k_files)], query_fn)[0]


class _Correctness:
    """Every wanted file decodes exactly, for every realization.

    `close` decodes each of the file's (theta, base) rounds once on the
    one-hot basis, where returning theta's basis packets proves that round
    exact for every group and every library (see the module docstring);
    it calls `decode` itself, which checks the round's range once. `finish`
    then checks the slicing with real bytes: the assembled retrieval of
    each file at base (0,)*K, with each of its group rounds decoded again
    after `tamper(group, server_pos, answer)`. Both go through `_decode`.
    """

    def __init__(self, plan: StoragePlan, layout: PacketLayout, library: FileLibrary, tamper):
        self.plan, self.layout, self.library, self.tamper = plan, layout, library, tamper
        self.wants = [list(row) for row in _basis(layout.m, plan.k).packets]
        self.failures = self.runs = 0
        self.first = ""

    def _fail(self, detail: str):
        self.failures += 1
        self.first = self.first or detail

    def _decode(self, theta, rounds, want, where=""):
        """Decode each (base, answers) round of file theta through this
        module's `decode`, and record each one that does not return `want`
        or breaks the protocol."""
        for base, answers in rounds:
            try:
                if decode(theta, base, answers) == want:
                    continue
                violation = ""
            except ProtocolViolation:
                violation = " (protocol violation)"
            self._fail(f"file {theta} mis-decoded at {where}base {base}{violation}")

    def close(self, theta, m, positions, replies):
        self.runs += len(positions) // m
        self._decode(theta, _rounds(m, self.plan.k, positions, replies), self.wants[theta - 1])

    def finish(self) -> AuditCheck:
        plan, layout, library = self.plan, self.layout, self.library
        zero = (0,) * plan.k
        for theta in range(1, plan.k + 1):
            t = retrieve(theta, plan, layout, library, [zero] * len(layout.groups))
            self.runs += 2 * len(t.groups)  # each group round is decoded by retrieve, then by _decode
            file = library.file(theta)
            for g, region in zip(t.groups, layout.groups):
                answers = [self.tamper(g.group, pos, a) for pos, a in enumerate(g.answers)]
                start, size = region.file_offset, region.packet_bytes
                want = [file[start + i * size : start + (i + 1) * size] for i in range(layout.m - 1)]
                self._decode(theta, [(zero, answers)], want, f"group {g.group} ")
            if t.decoded_file != file:
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
    one (M, K) round's non-silent answers (see the module docstring).
    `close` counts each file's positions, less those of the silent replies
    in the walk's one-hot table, each as often as the file sends it. Every
    file reads the same table, so file 1 finds its silent positions once.
    """

    def __init__(self, layout: PacketLayout, k: int):
        self.layout, self.k = layout, k
        self.sent = Counter()
        self.silent = []  # the table's silent positions, found at file 1

    def close(self, theta, m, positions, replies):
        if theta == 1:
            self.silent = [i for i, reply in enumerate(replies) if reply.value is None]
        self.sent[theta] = len(positions) - sum(map(positions.count, self.silent))

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
    """Placement and capacity are exact, read from the layout's regions,
    which own placement: every region (hence every packet) sits on exactly
    M distinct servers of 1..N, and every server's stored symbol count, K
    times the bytes of the regions that hold it, is exactly M*K*L/N, with
    N, M and L the layout's and K the plan's."""
    problems = []
    used = dict.fromkeys(range(1, layout.n + 1), 0)
    for gi, region in enumerate(layout.groups):
        holders = used.keys() & region.servers
        if len(holders) != layout.m or len(region.servers) != layout.m:
            problems.append(f"group {gi} stored on servers {region.servers}, "
                            f"expected {layout.m} distinct of 1..{layout.n}")
        for server in holders:
            used[server] += plan.k * region.group_bytes
    budget = Fraction(layout.m * plan.k * layout.file_len, layout.n)
    problems += [f"server {server} stores {load} symbols, expected {budget}"
                 for server, load in used.items() if load != budget]
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

    The rows are the replies' values on the one-hot basis, read in place
    from the walk's one table at each round's M positions. `close` reads a
    file round by round by this definition: per round one elimination of
    the wanted rows, and per unwanted file one elimination of the kept
    rows and one set of residual rows.

    At K >= 2, `_clean` first asks whether no round of the file has
    anything to note, from two whole-file statistics, and a file it clears
    closes with no per-round Python work; any other file, and every file
    at K = 1, is read by the definition, so the counts and the first
    violation are the round loop's. The argument below guards `_clean` alone.
    Where residual identity holds for the unwanted file o, every kept row
    is wanted_i XOR e_o, with e_o the first row's bits outside the blocks
    of the wanted file and of o. If e_o = 0 the kept rows are the wanted
    rows. Otherwise e_o is linearly independent of the wanted block, so
    mapping it to one fresh bit above every block is injective on their
    span, and the kept rows are independent exactly when the rows
    wanted_i | fresh are; that set is the same for every such o. So a
    round with residual identity for every unwanted file has nothing to
    note when two eliminations hold, retrieved (the nonzero wanted rows)
    and tagged (every wanted_i | fresh). Both depend on the tuple of
    wanted rows alone, whatever built the queries. `_clean` reads silence
    as the zero row, which only makes it stricter: that adds a zero row,
    dropped, to retrieved, a lone fresh row to tagged (any subset of
    independent rows is independent) and one equation to residual
    identity, tested for every o at once on `loose`: every bit outside
    the wanted block and some one unwanted block, spare bits included.
    An honest round with a silent reply has every residual zero, so every
    honest file is still cleared. Under an honest `answer` every wanted
    row is 0 or a single bit, so tagged implies retrieved; only a faulty
    `answer` separates them.
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
        # per wanted file: the bits outside block_theta | block_o for some unwanted o, spare bits included
        self.loose = [reduce(or_, (outside for _, outside in others), 0) for others in self.others]
        self.violations = 0
        self.first = None  # (kind, theta, base) of the first violation

    def _note(self, kind, theta, base):
        self.violations += 1
        self.first = self.first or (kind, theta, base)

    def _clean(self, theta, m, positions, replies) -> bool:
        """Whether no round of file theta has anything to note, decided
        from two whole-file statistics, each reply's row read with silence
        as the zero row: the retrieved and tagged eliminations of each
        distinct tuple of wanted rows, and residual identity for every
        unwanted file at once, as equal lists of `row & loose` over all
        rounds for every server slot."""
        fresh, own = self.fresh, self.blocks[theta - 1]
        rows = [reply.value or 0 for reply in replies]
        wanted_at = [row & own for row in rows]
        for wanted in set(zip(*[map(wanted_at.__getitem__, positions)] * m)):
            if not (_gf2_independent([w for w in wanted if w])
                    and _gf2_independent([w | fresh for w in wanted])):
                return False
        residual = [row & self.loose[theta - 1] for row in rows]
        first = list(map(residual.__getitem__, positions[::m]))
        return all(list(map(residual.__getitem__, positions[s::m])) == first for s in range(1, m))

    def close(self, theta, m, positions, replies):
        own, others = self.blocks[theta - 1], self.others[theta - 1]
        # at K = 1 the loop is one elimination a round, and `_clean`'s set
        # of M-row tuples costs more: `audit --n 1000 --m 1000 --k 1` read
        # 32.3 MiB peak RSS through `_clean`, over CI's 30 MiB bound
        if others and self._clean(theta, m, positions, replies):
            return  # no round of the file has anything to note
        for base, replied in _rounds(m, len(self.blocks), positions, replies):
            sent = [row for reply in replied if (row := reply.value) is not None]
            if not _gf2_independent([wanted for row in sent if (wanted := row & own)]):
                self._note("retrieved-independence", theta, base)
            for drop, outside in others:
                if not _gf2_independent([kept for row in sent if (kept := row & drop)]):
                    self._note("requested-independence", theta, base)
                if len({row & outside for row in sent}) > 1:
                    self._note("residual-identity", theta, base)

    def finish(self) -> AuditCheck:
        return AuditCheck(
            name="conditions",
            passed=self.violations == 0,
            measured=self.violations,
            expected=0,
            tag="coefficient-structure",
            detail="{} violated for file {}, base {}".format(*self.first) if self.first else "",
        )


def conditions_audit(m: int, k: int, query_fn=None) -> AuditCheck:
    """The conditions fold (`_Conditions`) over one walk."""
    return _walk(m, k, [_Conditions(m, k)], query_fn)[0]


def subpacketization_audit(n: int, m: int) -> list[AuditCheck]:
    """Each construction's sub-packetization, built within sda.MAX_BUILD_ENTRIES,
    versus `sda.closed_forms`: its closed form, the floor and the worst-case gap."""
    _, equal_form, greedy_form, improved_form, lower, bound = sda.closed_forms(n, m)

    def compare(name, build, closed_form, tag) -> tuple[int, AuditCheck]:
        eta = build(n, m).eta
        return eta, AuditCheck(name, eta == closed_form, eta * (m - 1), closed_form * (m - 1), tag)

    eta_equal, equal = compare("equal-size-subpacketization", sda.build_equal_size,
                               equal_form, "distinct-cyclic-columns")
    eta_greedy, greedy = compare("greedy-subpacketization", sda.build_greedy,
                                 greedy_form, "greedy-recursion-value")
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
    if improved_form is not None:
        checks.append(compare("improved-subpacketization", sda.build_improved,
                              improved_form, "block-template-value")[1])
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
    if bound == 1:
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


def run_full_audit(layout: PacketLayout, plan: StoragePlan, library: FileLibrary) -> AuditReport:
    """Run every audit on the scheme `plan_storage` made from any array or
    group fractions, K the plan's: storage, the constructions' sub-packetization
    at the layout's (N, M), built (or refused) before the walk, and the four
    round folds over one walk, refused by `check_bill` first."""
    m, k = layout.m, plan.k
    folds = [_Privacy(k), _Correctness(plan, layout, library, _as_sent),
             _Rate(layout, k), _Conditions(m, k)]
    sizes = subpacketization_audit(layout.n, m)  # before the walk, in the table's last rows
    return AuditReport([storage_audit(plan, layout), *_walk(m, k, folds), *sizes])
