"""Command-line surface: build arrays, simulate retrievals, audit, compare.

Exit codes: 0 on success (and on an all-pass audit), 1 when an audit
fails, 2 on usage or parameter errors, on output files that cannot be
written, on sizes too large to represent or allocate (OverflowError,
MemoryError), and on inputs that recurse too deeply (RecursionError).
"""

import argparse
import json
import random
import sys
from contextlib import nullcontext
from functools import cache

from . import sda
from .audit import check_bill, run_full_audit
from .scheme import (RetrievalTranscript, minimal_length, plan_storage, random_library,
                     require_retrieval_params, retrieve)
from .sfpir import random_base_vector

ANALYZE_HEADER = (
    "n,m,gcd,eta_equal,eta_greedy,eta_improved,eta_lower,"
    "f_equal,f_greedy,f_improved,f_lower,gap_bound"
)

_BUILDERS = {
    "equal": sda.build_equal_size,
    "greedy": sda.build_greedy,
    "improved": sda.build_improved,
}


# One retrieval over the greedy (N, M) array runs eta_recursion(N, M) rounds of
# M queries of K symbols on a K x L-byte library. Whole `scpir simulate` runs
# (Python 3.11, shared 2-CPU host) cost about 4.6 KB per round at M = 2, K = 1,
# the dearest shape per query symbol, and about three times the library bytes:
# (32768, 2, 1) with --l-mult 1024 meets both bounds and took 1.8 s and 143 MiB.
MAX_ROUND_SYMBOLS = 2**15
MAX_LIBRARY_BYTES = 2**24

# `scpir analyze --n-max N` writes (N-1)*N/2 rows, one N's rows at a time, so
# its memory stays flat (about 17 MiB) and its time grows with the rows: whole
# runs (Python 3.11, shared 2-CPU host) took 1.0 s at N = 600 (179,700 rows),
# 4.3 s at N = 1448 (1,047,628 rows, the largest under this bound) and 8.6 s
# at N = 2048.
MAX_ANALYZE_ROWS = 2**20


def _output(out: str | None):
    """The --out file opened for writing, or stdout, which stays open."""
    return open(out, "w") if out else nullcontext(sys.stdout)


def cmd_build(args) -> int:
    sda.check_renderable(args.n, args.m)  # refuse before building; the builder prices its entries
    array = _BUILDERS[args.method](args.n, args.m)
    with _output(args.out) as fh:
        fh.write(sda.render_sda(array))
    print(f"eta={array.eta} F={array.eta * (args.m - 1)}")
    return 0


def transcript_record(n: int, m: int, k: int, transcript: RetrievalTranscript, match: bool) -> dict:
    """The transcript serialization emitted by `simulate`."""
    return {
        "n": n,
        "m": m,
        "k": k,
        "theta": transcript.theta,
        "groups": [
            {
                "group": g.group,
                "servers": list(g.servers),
                "base": list(g.base),
                "queries": [list(q) for q in g.queries],
                "silent": [a.silent for a in g.answers],
                "payload_len": [a.size for a in g.answers],
            }
            for g in transcript.groups
        ],
        "downloaded_symbols": transcript.downloaded_symbols,
        "decode_match": match,
    }


def _scheme(n: int, m: int, k: int, l_mult: int, seed: int):
    """(layout, plan, library) over the greedy (N, M) array with K seeded files
    of l_mult minimal lengths, for a caller that has checked (N, M), M and K.
    Refuses l_mult < 1, then a retrieval over either bound, before building."""
    if l_mult < 1:
        raise ValueError("l-mult must be a positive integer")
    symbols = sda.eta_recursion(n, m) * m * k
    file_len = l_mult * minimal_length(n, m)
    library = k * file_len
    if symbols > MAX_ROUND_SYMBOLS or library > MAX_LIBRARY_BYTES:
        raise ValueError(
            f"a retrieval over ({n}, {m}) with K={k} sends {symbols} query symbols and draws a "
            f"{library}-byte library; the bounds are {MAX_ROUND_SYMBOLS} and {MAX_LIBRARY_BYTES}"
        )
    layout, plan = plan_storage(sda.alpha_from_profile(sda.build_greedy(n, m)), k, file_len)
    return layout, plan, random_library(k, file_len, seed)


def cmd_simulate(args) -> int:
    sda.require_params(args.n, args.m)  # refuse in the order `cmd_audit` uses
    require_retrieval_params(args.m, args.k)
    if args.theta < 1 or args.theta > args.k:
        raise ValueError(f"theta must be in 1..{args.k} (indices are 1-based)")
    layout, plan, library = _scheme(args.n, args.m, args.k, args.l_mult, args.seed)
    rng = random.Random(args.seed + 1)  # independent of the library contents
    bases = [random_base_vector(rng, args.m, args.k) for _ in layout.groups]
    transcript = retrieve(args.theta, plan, layout, library, bases)
    match = transcript.decoded_file == library.file(args.theta)
    record = transcript_record(args.n, args.m, args.k, transcript, match)
    with _output(args.out) as fh:
        fh.write(json.dumps(record, indent=2) + "\n")
    if args.out:
        print(f"downloaded_symbols={transcript.downloaded_symbols} decode_match={match}")
    return 0


def cmd_audit(args) -> int:
    sda.require_params(args.n, args.m)  # refuse in the order `cmd_simulate` uses
    require_retrieval_params(args.m, args.k)
    check_bill(args.m, args.k)  # where `cmd_simulate` checks theta and l-mult
    report = run_full_audit(*_scheme(args.n, args.m, args.k, 1, args.seed))
    print(report.table())
    return 0 if report.overall else 1


def analysis_row(n: int, m: int) -> str:
    """One comparison row as a CSV line without its newline, cells in
    ANALYZE_HEADER order, from `sda.closed_forms`, building no array; the
    improved cells are empty when no d >= 2 gives N = d*M+1 or d*M-1, or
    when M < 3."""
    g, equal, greedy, improved, lower, gap = sda.closed_forms(n, m)
    f = m - 1  # each F is eta * (M - 1)
    eta_improved, f_improved = ("", "") if improved is None else (improved, improved * f)
    return (f"{n},{m},{g},{equal},{greedy},{eta_improved},{lower},"
            f"{equal * f},{greedy * f},{f_improved},{lower * f},{gap}")


def cmd_analyze(args) -> int:
    if args.n_max < 2:
        raise ValueError("n-max must be at least 2")
    rows = (args.n_max - 1) * args.n_max // 2
    if rows > MAX_ANALYZE_ROWS:
        raise ValueError(f"analyze --n-max {args.n_max} writes (N-1)*N/2 = {rows} rows, "
                         f"over the bound of {MAX_ANALYZE_ROWS}")
    with _output(args.out) as fh:
        fh.write(ANALYZE_HEADER + "\n")
        for n in range(2, args.n_max + 1):
            # one write per N: memory holds one N's rows, O(n-max)
            fh.write("".join([analysis_row(n, m) + "\n" for m in range(2, n + 1)]))
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scpir",
        description="Storage design arrays and private retrieval: build, simulate, audit, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a storage design array")
    build.add_argument("--n", type=int, required=True, help="number of servers")
    build.add_argument("--m", type=int, required=True, help="per-column storage budget")
    build.add_argument("--method", choices=sorted(_BUILDERS), default="greedy")
    build.add_argument("--out", help="write the array here instead of stdout")

    simulate = sub.add_parser("simulate", help="run one private retrieval end to end")
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--m", type=int, required=True)
    simulate.add_argument("--k", type=int, required=True, help="number of files")
    simulate.add_argument("--theta", type=int, required=True, help="wanted file, 1-based")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--l-mult", type=int, default=1, help="file length in minimal units")
    simulate.add_argument("--out", help="write the JSON transcript here instead of stdout")

    audit = sub.add_parser("audit", help="run the full audit battery on the greedy scheme")
    audit.add_argument("--n", type=int, required=True)
    audit.add_argument("--m", type=int, required=True)
    audit.add_argument("--k", type=int, required=True)
    audit.add_argument("--seed", type=int, default=0)

    analyze = sub.add_parser("analyze", help="emit the construction comparison table as CSV")
    analyze.add_argument("--n-max", type=int, required=True)
    analyze.add_argument("--out", help="write the CSV here instead of stdout")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call, so a replaced module-level cmd_* is the one that runs
    handler = {"build": cmd_build, "simulate": cmd_simulate, "audit": cmd_audit,
               "analyze": cmd_analyze}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError, OverflowError, MemoryError, RecursionError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
