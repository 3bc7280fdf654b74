"""One benchmark workload in its own process: set up, run timed ops, check.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
        --trace 0|1 --t0 MONOTONIC [--setup-only]

`run.py` starts this and reads the single JSON line it prints. `--t0` is
the parent's `time.monotonic()` just before the process was started, so
set-up time covers interpreter start, importing scpir and the workload's
one-off preparation. Every op runs its exact-output checks; a failed
check or an exception is counted, never raised.

With `--trace 1` the ops run twice: first untraced for half the time,
then the same ops again with every public scpir function wrapped in
spans (see spans.py). The per-layer metrics come from the second pass;
the ratio of the two passes' totals is the tracing overhead.
"""

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import re
import signal
import statistics
import sys
import time
from fractions import Fraction
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import spans  # noqa: E402  (sibling module; the script directory is on sys.path)


def import_scpir():
    """Import scpir from the checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import scpir
    from scpir import audit, cli, oracle, packets, scheme, sda, sfpir

    if not os.path.abspath(scpir.__file__).startswith(src + os.sep):
        raise ImportError(f"scpir imported from {scpir.__file__}, not from {src}")
    return scpir, packets, sfpir, scheme, audit, sda, oracle, cli


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Exact-output checks (pure: they see only values, so they can be tested)
# ---------------------------------------------------------------------------


def expected_download(layout, theta: int, bases) -> int:
    """Bytes a retrieval must download: per group, packet bytes times the
    non-silent answers. A group has one silent server exactly when every
    base coordinate other than theta points at the virtual packet."""
    m = layout.m
    total = 0
    for region, base in zip(layout.groups, bases):
        silent = all(q == m - 1 for i, q in enumerate(base) if i != theta - 1)
        total += region.packet_bytes * (m - 1 if silent else m)
    return total


def check_retrieval(transcript, want: bytes, layout, theta: int, bases) -> list[str]:
    errors = []
    if transcript.decoded_file != want:
        errors.append(f"file {theta} decoded to different bytes")
    expected = expected_download(layout, theta, bases)
    if transcript.downloaded_symbols != expected:
        errors.append(f"downloaded {transcript.downloaded_symbols} bytes, expected {expected}")
    return errors


def parse_audit_table(text: str) -> tuple[list[list[str]], str]:
    """Rows [check, status, measured, expected, property] of an audit
    table, and its overall verdict line."""
    lines = text.rstrip("\n").split("\n")
    rows = []
    for line in lines[2:]:
        if line.startswith("overall:") or line.startswith("  "):
            continue
        rows.append(re.split(r"\s{2,}", line.strip()))
    return rows, lines[-1]


def check_audit_table(rc: int, text: str, reference: dict) -> list[str]:
    """The table must match the reference in (check, status, expected) and
    in the rate rational. Work counts in `measured` (such as the number of
    decodes) are not compared, so removing a redundant path is not an
    error."""
    rows, overall = parse_audit_table(text)
    errors = []
    if rc != 0 or overall != "overall: pass":
        errors.append(f"audit exit {rc}, {overall!r}")
    got = [[r[0], r[1], r[3]] for r in rows]
    if got != reference["rows"]:
        errors.append(f"audit rows {got} differ from reference {reference['rows']}")
    rate = [r[2] for r in rows if r[0] == "rate"]
    if rate != [reference["rate"]]:
        errors.append(f"rate {rate} differs from reference {reference['rate']}")
    return errors


def check_fault(check, name: str) -> list[str]:
    """An audit run under an injected fault must report FAIL."""
    if check.name != name:
        return [f"fault case returned check {check.name!r}, expected {name!r}"]
    if check.passed:
        return [f"{name} audit passed under an injected fault"]
    return []


def check_witness(witness: dict, n: int, m: int, size: int) -> list[str]:
    """An oracle witness: `size` groups of M servers with positive
    fractions filling every server's budget M/N exactly."""
    errors = []
    if len(witness) != size or any(v <= 0 or len(s) != m for s, v in witness.items()):
        errors.append(f"({n},{m}) witness is not {size} positive groups of {m}")
    for server in range(1, n + 1):
        held = sum((v for s, v in witness.items() if server in s), Fraction(0))
        if held != Fraction(m, n):
            errors.append(f"({n},{m}) witness gives server {server} {held}, expected {m}/{n}")
            break
    return errors


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Work counts the benchmark itself sees, read by the traced run."""

    output_bytes = 0  # bytes the CLI printed
    faults_injected = 0
    faults_caught = 0

    def capture(self, fn, *args):
        """Call fn with stdout captured; returns (result, text)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            result = fn(*args)
        text = buf.getvalue()
        self.output_bytes += len(text.encode())
        return result, text


class RetrieveBulk(Workload):
    """Greedy (12,5), K=8, L=4096 minimal units: one file per op."""

    N, M, K, L_MULT = 12, 5, 8, 4096

    def __init__(self, lib, seed: int):
        _, _, sfpir, scheme, _, sda, _, _ = lib
        self.scheme, self.sfpir = scheme, sfpir
        alpha = sda.alpha_from_profile(sda.column_profile(sda.build_greedy(self.N, self.M)))
        self.file_len = self.L_MULT * scheme.minimal_length(self.N, self.M)
        self.layout, self.plan = scheme.plan_storage(alpha, self.K, self.file_len)
        self.library = scheme.random_library(self.K, self.file_len, seed)
        self.seed = seed

    def env(self) -> dict:
        return {
            "instance": [self.N, self.M, self.K],
            "file_bytes": self.file_len,
            "library_bytes": self.K * self.file_len,
            "groups": len(self.layout.groups),
            "packet_bytes": sorted({g.packet_bytes for g in self.layout.groups}),
        }

    def op(self, i: int):
        """Retrieve file (i mod K)+1 with base vectors drawn for op i."""
        theta = i % self.K + 1
        rng = random.Random(f"{self.seed}/{i}")
        bases = [self.sfpir.random_base_vector(rng, self.M, self.K) for _ in self.layout.groups]
        want = self.library.file(theta)
        start = time.perf_counter()
        transcript = self.scheme.retrieve(theta, self.plan, self.layout, self.library, bases)
        errors = check_retrieval(transcript, want, self.layout, theta, bases)
        return {"op": (start, time.perf_counter())}, errors, len(transcript.decoded_file)


class AuditBattery(Workload):
    """`scpir audit` on three instances, then three injected faults."""

    INSTANCES = ((6, 3, 4), (11, 5, 4), (8, 3, 6))
    FAULT_INSTANCE = (6, 3, 4)

    def __init__(self, lib, seed: int):
        _, _, sfpir, scheme, audit, sda, _, cli = lib
        self.audit, self.cli, self.sfpir = audit, cli, sfpir
        self.seed = seed
        self.reference = load_reference()["audit"]
        n, m, k = self.FAULT_INSTANCE
        alpha = sda.alpha_from_profile(sda.column_profile(sda.build_greedy(n, m)))
        file_len = scheme.minimal_length(n, m)
        self.layout, self.plan = scheme.plan_storage(alpha, k, file_len)
        self.library = scheme.random_library(k, file_len, seed)

    def env(self) -> dict:
        n, m, k = self.FAULT_INSTANCE
        return {
            "instances": [list(x) for x in self.INSTANCES],
            "fault_instance": [n, m, k],
            "fault_library_bytes": k * self.library.file_len,
        }

    def _tamper(self, group, pos, reply):
        """Flip the first byte of server 0's answer whenever it speaks."""
        if pos != 0 or reply.silent:
            return reply
        return self.sfpir.Answer(bytes([reply.payload[0] ^ 0xFF]) + reply.payload[1:])

    def op(self, i: int):
        audit = self.audit
        parts, errors = {}, []
        begin = time.perf_counter()
        for n, m, k in self.INSTANCES:
            start = time.perf_counter()
            argv = ["audit", "--n", str(n), "--m", str(m), "--k", str(k), "--seed", str(self.seed)]
            rc, text = self.capture(self.cli.main, argv)
            errors += check_audit_table(rc, text, self.reference[f"{n},{m},{k}"])
            parts[f"audit_{n}_{m}_{k}"] = (start, time.perf_counter())
        _, m, k = self.FAULT_INSTANCE
        faults = (
            ("privacy", lambda: audit.privacy_audit(
                self.layout, self.library, query_fn=audit.queries_missing_offset)),
            ("conditions", lambda: audit.conditions_audit(
                m, k, query_fn=audit.queries_duplicate_shift)),
            ("correctness", lambda: audit.correctness_audit(
                self.plan, self.layout, self.library, tamper=self._tamper)),
        )
        start = time.perf_counter()
        for name, run in faults:
            found = check_fault(run(), name)
            self.faults_injected += 1
            self.faults_caught += not found
            errors += found
        parts["faults"] = (start, time.perf_counter())
        parts["op"] = (begin, time.perf_counter())
        return parts, errors, 0


class DesignBuild(Workload):
    """`scpir analyze --n-max 40`, then greedy -> profile -> alpha ->
    plan_storage at (1000,13)."""

    N_MAX = 40
    N, M, K = 1000, 13, 4

    def __init__(self, lib, seed: int):
        _, _, _, scheme, _, sda, _, cli = lib
        self.scheme, self.sda, self.cli = scheme, sda, cli
        self.reference = load_reference()["analyze"]
        self.file_len = scheme.minimal_length(self.N, self.M)

    def env(self) -> dict:
        return {"analyze_n_max": self.N_MAX, "instance": [self.N, self.M, self.K],
                "file_bytes": self.file_len}

    def op(self, i: int):
        sda, parts, errors = self.sda, {}, []
        begin = time.perf_counter()
        rc, text = self.capture(self.cli.main, ["analyze", "--n-max", str(self.N_MAX)])
        digest = hashlib.sha256(text.encode()).hexdigest()
        if rc != 0 or digest != self.reference["sha256"]:
            errors.append(f"analyze exit {rc}, digest {digest} differs from reference")
        parts["analyze"] = (begin, time.perf_counter())
        start = time.perf_counter()
        array = sda.build_greedy(self.N, self.M)
        profile = sda.column_profile(array)
        alpha = sda.alpha_from_profile(profile)
        _, plan = self.scheme.plan_storage(alpha, self.K, self.file_len)
        parts["pipeline"] = (start, time.perf_counter())
        alpha.check()  # raises on a broken assignment, which fails the op
        if profile.eta != sda.eta_recursion(self.N, self.M):
            errors.append(f"eta {profile.eta} != eta_recursion {sda.eta_recursion(self.N, self.M)}")
        budget = Fraction(self.M * self.K * self.file_len, self.N)
        wrong = [s for s, used in plan.capacity_used.items() if used != budget]
        if wrong or len(plan.capacity_used) != self.N:
            errors.append(f"servers {wrong[:5]} do not use exactly {budget} symbols")
        parts["op"] = (begin, time.perf_counter())
        return parts, errors, 0


class OracleCertify(Workload):
    """min_eta_star and min_eta_equal at (7,3) and (7,5), with the sandwich
    eta_lower_bound <= eta* <= eta_recursion."""

    INSTANCES = ((7, 3), (7, 5))

    def __init__(self, lib, seed: int):
        _, _, _, _, _, sda, oracle, _ = lib
        self.sda, self.oracle = sda, oracle
        self.reference = load_reference()["oracle"]

    def env(self) -> dict:
        return {"instances": [list(x) for x in self.INSTANCES]}

    def op(self, i: int):
        sda, oracle, parts, errors = self.sda, self.oracle, {}, []
        begin = time.perf_counter()
        for n, m in self.INSTANCES:
            start = time.perf_counter()
            star, witness = oracle.min_eta_star(n, m)
            parts[f"eta_star_{n}_{m}"] = (start, time.perf_counter())
            start = time.perf_counter()
            equal, _ = oracle.min_eta_equal(n, m)
            parts[f"eta_equal_{n}_{m}"] = (start, time.perf_counter())
            ref = self.reference[f"{n},{m}"]
            if [star, equal] != [ref["eta_star"], ref["eta_equal"]]:
                errors.append(f"({n},{m}) eta*={star}, eta_equal={equal}, expected {ref}")
            lower, upper = sda.eta_lower_bound(n, m), sda.eta_recursion(n, m)
            if not lower <= star <= upper:
                errors.append(f"({n},{m}) sandwich {lower} <= {star} <= {upper} fails")
            errors += check_witness(witness, n, m, star)
        parts["op"] = (begin, time.perf_counter())
        return parts, errors, 0


WORKLOADS = {
    "retrieve_bulk": RetrieveBulk,
    "audit_battery": AuditBattery,
    "design_build": DesignBuild,
    "oracle_certify": OracleCertify,
}


# ---------------------------------------------------------------------------
# Tracing plan: which functions become spans, and the work they count
# ---------------------------------------------------------------------------


def _xor_bytes(counts, args, result):
    counts["packets.xor_bytes"] += min(len(args[0]), len(args[1]))


def _silent(counts, args, result):
    counts["sfpir.silent_answers"] += result.silent


def _realizations(counts, args, result):
    counts["audit.realizations"] += args[0] ** args[1]


def _sliced(counts, args, result):
    layout, group, library = args
    counts["scheme.sliced_bytes"] += layout.groups[group].group_bytes * library.k_files


def _downloaded(counts, args, result):
    counts["scheme.downloaded_bytes"] += result.downloaded_symbols
    counts["scheme.decoded_bytes"] += len(result.decoded_file)


def _decodes(counts, args, result):
    found = re.search(r"in (\d+) decodes", str(result.measured))
    counts["audit.correctness_decodes"] += int(found.group(1)) if found else 0


def _grid(counts, args, result):
    counts["sda.grid_cells"] += result.n * result.columns


def trace_plan(lib) -> list:
    """(layer, module, function, hot, count) for every traced function.
    Hot functions run per realization or per packet; their spans are
    aggregated into the nearest recorded ancestor."""
    _, packets, sfpir, scheme, audit, sda, oracle, cli = lib
    lower_bound = sda.eta_lower_bound  # unwrapped: counting must not open spans

    def candidates(counts, args, result):
        """Supports of every size from the floor up to the eta* found."""
        n, m = args[0], args[1]
        sizes = range(lower_bound(n, m), result[0] + 1)
        counts["oracle.candidate_bound"] += sum(comb(comb(n, m), s) for s in sizes)

    plan = [
        ("packets", packets, "add_packets", True, _xor_bytes),
        ("packets", packets, "sum_packets", True, None),
        ("sfpir", sfpir, "make_queries", True, None),
        ("sfpir", sfpir, "answer", True, _silent),
        ("sfpir", sfpir, "decode", True, None),
        ("sfpir", sfpir, "enumerate_realizations", True, _realizations),
        ("scheme", scheme, "group_storage", True, _sliced),
        ("scheme", scheme, "retrieve", True, _downloaded),
        ("scheme", scheme, "plan_storage", False, None),
        ("scheme", scheme, "random_library", False, None),
        ("scheme", scheme, "average_download", False, None),
        ("audit", audit, "correctness_audit", False, _decodes),
    ]
    plan += [("audit", audit, f"{name}_audit", False, None)
             for name in ("storage", "privacy", "rate", "conditions", "subpacketization")]
    plan += [("audit", audit, "run_full_audit", False, None)]
    plan += [("sda", sda, name, False, _grid)
             for name in ("build_greedy", "build_equal_size", "build_improved")]
    plan += [("sda", sda, name, False, None)
             for name in ("column_profile", "alpha_from_profile", "eta_recursion",
                          "eta_lower_bound", "build_q_array", "opposite")]
    plan += [("oracle", oracle, "min_eta_star", False, candidates),
             ("oracle", oracle, "min_eta_equal", False, None)]
    plan += [("cli", cli, name, False, None)
             for name in ("main", "cmd_audit", "cmd_analyze", "analysis_row")]
    return plan


def layer_metrics(summary: dict, counts, n_ops: int, overhead: float) -> dict:
    """The per-layer metrics, normalized per op; shares are of traced op time."""
    op_s = summary["bench.op"][1]
    layers = spans.layer_self(summary)

    def stat(name, i):
        return summary.get(name, (0, 0.0, 0.0))[i]

    def per_op(total, unit):
        return {"value": total / n_ops, "unit": unit}

    def share(seconds):
        return {"value": 100 * seconds / op_s, "unit": "%"}

    xor_s = layers["packets"]
    downloaded = counts["scheme.downloaded_bytes"]
    out = {
        "packets.add_calls": per_op(stat("packets.add_packets", 0), "count/op"),
        "packets.xor_bytes": per_op(counts["packets.xor_bytes"], "B/op"),
        "packets.self_pct": share(xor_s),
        "packets.xor_mb_s": {"value": counts["packets.xor_bytes"] / xor_s / 1e6 if xor_s else 0.0,
                             "unit": "MB/s"},
    }
    for fn in ("make_queries", "answer", "decode"):
        out[f"sfpir.{fn}_calls"] = per_op(stat(f"sfpir.{fn}", 0), "count/op")
    out["sfpir.silent_answers"] = per_op(counts["sfpir.silent_answers"], "count/op")
    out["sfpir.protocol_violations"] = per_op(
        counts["sfpir.decode.raised.ProtocolViolation"], "count/op")
    out["sfpir.answer_self_pct"] = share(stat("sfpir.answer", 2))
    out["sfpir.decode_self_pct"] = share(stat("sfpir.decode", 2))
    out["sfpir.self_pct"] = share(layers["sfpir"])
    out["scheme.retrieve_calls"] = per_op(stat("scheme.retrieve", 0), "count/op")
    out["scheme.group_storage_calls"] = per_op(stat("scheme.group_storage", 0), "count/op")
    out["scheme.sliced_bytes"] = per_op(counts["scheme.sliced_bytes"], "B/op")
    out["scheme.downloaded_bytes"] = per_op(downloaded, "B/op")
    out["scheme.download_efficiency"] = {
        "value": counts["scheme.decoded_bytes"] / downloaded if downloaded else 0.0,
        "unit": "ratio"}
    out["scheme.retrieve_self_pct"] = share(stat("scheme.retrieve", 2))
    out["scheme.group_storage_pct"] = share(stat("scheme.group_storage", 1))
    out["scheme.plan_storage_pct"] = share(stat("scheme.plan_storage", 1))
    out["scheme.self_pct"] = share(layers["scheme"])
    for name in ("storage", "privacy", "correctness", "rate", "conditions", "subpacketization"):
        out[f"audit.{name}_pct"] = share(stat(f"audit.{name}_audit", 1))
    out["audit.correctness_decodes"] = per_op(counts["audit.correctness_decodes"], "count/op")
    out["audit.realizations"] = per_op(counts["audit.realizations"], "count/op")
    out["audit.faults_injected"] = per_op(counts["audit.faults_injected"], "count/op")
    out["audit.faults_caught"] = per_op(counts["audit.faults_caught"], "count/op")
    out["audit.self_pct"] = share(layers["audit"])
    for name in ("build_greedy", "build_equal_size", "build_improved", "column_profile",
                 "alpha_from_profile"):
        out[f"sda.{name}_pct"] = share(stat(f"sda.{name}", 1))
    out["sda.grid_cells"] = per_op(counts["sda.grid_cells"], "count/op")
    out["sda.self_pct"] = share(layers["sda"])
    out["oracle.min_eta_star_pct"] = share(stat("oracle.min_eta_star", 1))
    out["oracle.min_eta_equal_pct"] = share(stat("oracle.min_eta_equal", 1))
    out["oracle.candidate_bound"] = per_op(counts["oracle.candidate_bound"], "count/op")
    out["cli.audit_self_pct"] = share(stat("cli.cmd_audit", 2))
    out["cli.analyze_self_pct"] = share(stat("cli.cmd_analyze", 2) + stat("cli.analysis_row", 2))
    out["cli.output_bytes"] = per_op(counts["cli.output_bytes"], "B/op")
    out["cli.self_pct"] = share(layers["cli"])
    out["bench.self_pct"] = share(layers["bench"])
    out["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def speed_probe():
    """A fixed slice of interpreter work like the library's own: Fraction
    sums, a byte-wise XOR loop and tuple-keyed dict inserts."""
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(1, i)
    buf = bytearray(len(PROBE_BYTES))
    for i, x in enumerate(PROBE_BYTES):
        buf[i] ^= x
    table = {}
    for i in range(300):
        table[i, i + 1] = i
    return acc, buf, table


PROBE_BYTES = bytes(range(256)) * 3
REF_PROBE_S = 0.00035  # probe duration that defines the reference machine speed
# How strongly op times follow the probe: log(op) ~ SENSITIVITY * log(probe).
# Fitted per workload on the shared 2-vCPU sandbox the benchmark was tuned
# on: 0.72 retrieve_bulk, 0.38 audit_battery, 0.54 design_build (oracle
# runs covered too narrow a probe range to fit). A full rescale (1.0)
# over-corrected the audit and design passes.
SENSITIVITY = 0.6


def speed_factor(probe_s: float) -> float:
    """Multiplier taking a time measured while the probe took probe_s to
    the reference machine speed."""
    return (REF_PROBE_S / probe_s) ** SENSITIVITY


class SpeedMonitor:
    """Samples how fast the machine runs while ops run.

    On a shared host the same op's wall time swings by tens of percent
    over a few seconds. Every INTERVAL_S a timer signal runs speed_probe
    in the main thread and records how long it took. `normalize` takes an
    op's interval, removes the probes' own time from it and rescales it
    with `speed_factor` of the median probe inside the interval (or of
    the probes next to it, for short ops).
    """

    INTERVAL_S = 0.025

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def probe(self, *_signal) -> None:
        if self._busy:
            return  # the timer fired inside a running probe
        self._busy = True
        try:
            start = time.perf_counter()
            speed_probe()
            end = time.perf_counter()
        finally:
            self._busy = False
        self.starts.append(start)
        self.ends.append(end)

    def __enter__(self):
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def normalize(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = [e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        near = inside or [e - s for s, e in zip(self.starts[lo - 1 : lo + 1], self.ends[lo - 1 : lo + 1])]
        return (end - start - sum(inside)) * speed_factor(statistics.median(near))


def run_ops(workload, indices, deadline=None, tracer=None, monitor=None):
    """Run ops until the index list or the deadline runs out (at least
    one op). Returns wall-time samples, speed-normalized samples and
    per-part normalized samples of the ops that finished without raising,
    with attempts, failures, decoded bytes and the first few errors."""
    timed, errors = [], []
    attempted = failed = decoded = 0
    for i in indices:
        attempted += 1
        frame = tracer.begin_op(i) if tracer else None
        try:
            intervals, op_errors, op_decoded = workload.op(i)
        except Exception as exc:  # a crashing op counts as a failed op
            intervals, op_errors, op_decoded = None, [f"{type(exc).__name__}: {exc}"], 0
        finally:
            if tracer:
                tracer.end_op(frame)
        if op_errors:
            failed += 1
            errors += op_errors[: max(0, 5 - len(errors))]
        if intervals is not None:  # the op finished, whether or not its checks passed
            timed.append(intervals)
            decoded += op_decoded
        if deadline is not None and time.monotonic() >= deadline:
            break
    normalize = monitor.normalize if monitor else (lambda start, end: end - start)
    parts = {}
    for intervals in timed:
        for name, (start, end) in intervals.items():
            parts.setdefault(name, []).append(normalize(start, end))
    return {"samples": [iv["op"][1] - iv["op"][0] for iv in timed], "norm": parts.pop("op", []),
            "parts": parts, "attempted": attempted, "failed": failed, "decoded_bytes": decoded,
            "errors": errors}


def traced_run(lib, workload, seconds: float) -> dict:
    """Untraced ops for half the time, then the same ops traced. The speed
    probe runs in both halves, so the overhead compares normalized times;
    its own time lands in spans in proportion to their length and leaves
    the shares as they are."""
    tracer = spans.Tracer()
    with SpeedMonitor() as monitor:
        plain = run_ops(workload, range(10**9), monitor=monitor,
                        deadline=time.monotonic() + seconds / 2)
        n_ops = plain["attempted"]
        undo = spans.instrument(tracer, lib, trace_plan(lib))
        before = (workload.output_bytes, workload.faults_injected, workload.faults_caught)
        try:
            traced = run_ops(workload, range(n_ops), tracer=tracer, monitor=monitor)
        finally:
            spans.restore(undo)
    counts = tracer.counts
    counts["cli.output_bytes"] += workload.output_bytes - before[0]
    counts["audit.faults_injected"] += workload.faults_injected - before[1]
    counts["audit.faults_caught"] += workload.faults_caught - before[2]
    summary = spans.summarize(tracer.records)
    overhead = sum(traced["norm"]) / sum(plain["norm"]) - 1 if plain["norm"] else 0.0
    return {
        "plain": plain,
        "traced": traced,
        "layer_metrics": layer_metrics(summary, counts, n_ops, overhead),
        "span_table": summary,
        "records": len(tracer.records),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lib = import_scpir()
    workload = WORKLOADS[args.workload](lib, args.seed)
    setup_s = time.monotonic() - args.t0
    burst = SpeedMonitor()
    for _ in range(16):
        burst.probe()
    probe_s = statistics.median(e - s for s, e in zip(burst.starts, burst.ends))
    out = {"setup_s": setup_s, "setup_norm_s": setup_s * speed_factor(probe_s)}
    if not args.setup_only:
        out["env"] = workload.env()
        if args.trace:
            out.update(traced_run(lib, workload, args.seconds))
        else:
            with SpeedMonitor() as monitor:
                out["plain"] = run_ops(workload, range(10**9), monitor=monitor,
                                       deadline=time.monotonic() + args.seconds)
            probes = [e - s for s, e in zip(monitor.starts, monitor.ends)]
            out["probe_ms"] = [1000 * statistics.median(probes), len(probes), 1000 * REF_PROBE_S]
        out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
