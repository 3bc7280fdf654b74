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
from math import gcd

from . import sda
from .audit import run_full_audit
from .scheme import RetrievalTranscript, greedy_scheme, require_retrieval_params, retrieve
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


def _output(out: str | None):
    """The --out file opened for writing, or stdout, which stays open."""
    return open(out, "w") if out else nullcontext(sys.stdout)


def cmd_build(args) -> int:
    sda.check_renderable(args.n, args.m)  # refuse before building
    array = _BUILDERS[args.method](args.n, args.m)
    eta = sda.column_profile(array).eta
    with _output(args.out) as fh:
        fh.write(sda.render_sda(array))
    print(f"eta={eta} F={eta * (args.m - 1)}")
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
                "payload_len": [0 if a.silent else a.size for a in g.answers],
            }
            for g in transcript.groups
        ],
        "downloaded_symbols": transcript.downloaded_symbols,
        "decode_match": match,
    }


def cmd_simulate(args) -> int:
    sda.require_params(args.n, args.m)  # refuse in the order `audit` uses
    require_retrieval_params(args.m, args.k)
    if args.theta < 1 or args.theta > args.k:
        raise ValueError(f"theta must be in 1..{args.k} (indices are 1-based)")
    layout, plan, library = greedy_scheme(args.n, args.m, args.k, args.l_mult, args.seed)
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
    report = run_full_audit(args.n, args.m, args.k, seed=args.seed)
    print(report.table())
    return 0 if report.overall else 1


def analysis_row(n: int, m: int) -> tuple[str, ...]:
    """One comparison row's cells, in ANALYZE_HEADER order, from the closed
    forms, building no array; the improved cells are empty when no d >= 2
    gives N = d*M+1 or d*M-1, or when M < 3."""
    eta_equal = sda.eta_equal(n, m)
    eta_greedy = sda.eta_recursion(n, m)
    family = sda.improved_family(n, m)
    eta_improved, f_improved = ("", "") if family is None else (family[2], family[2] * (m - 1))
    eta_lower = sda.eta_lower_bound(n, m)
    return tuple(map(str, (
        n, m, gcd(n, m), eta_equal, eta_greedy, eta_improved, eta_lower,
        eta_equal * (m - 1), eta_greedy * (m - 1), f_improved, eta_lower * (m - 1),
        sda.gap_bound(n, m),
    )))


def cmd_analyze(args) -> int:
    if args.n_max < 2:
        raise ValueError("n-max must be at least 2")
    with _output(args.out) as fh:
        fh.write(ANALYZE_HEADER + "\n")
        for n in range(2, args.n_max + 1):
            for m in range(2, n + 1):  # each row written as made: memory stays flat
                fh.write(",".join(analysis_row(n, m)) + "\n")
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
