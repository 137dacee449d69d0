"""codequiv command line: point tables, characteristic vectors, equivalence
tests, batch classification, random generation, automorphism groups, and a
classification benchmark.

Exit codes: 0 success (for `equiv`: codes equivalent), 1 inequivalent
(`equiv` only), 2 error.  Permutations print 1-based: `sigma: s1 s2 ...`
means coordinate i moves to position s_i.
"""

from __future__ import annotations

import argparse
import sys

from .batch import classify
from .codefile import CodeFileError, emit_codes, parse_codes
from .equiv import (EquivalenceWitness, code_aut_group, decide_equivalence,
                    verify_witness)
from .errors import BudgetExceededError, ResourceLimitError
from .gfield import field
from .lincode import characteristic_vector, random_code
from .projgeom import point_table


def _read_codes(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    codes = parse_codes(text)
    if not codes:
        raise CodeFileError(f"{path}: no codes found")
    return codes


def _one_based(perm) -> str:
    return " ".join(str(s + 1) for s in perm)


def _print_witness(witness: EquivalenceWitness, verified: bool) -> None:
    print(f"sigma: {_one_based(witness.sigma)}")
    print("lambdas: " + " ".join(str(l) for l in witness.lambdas))
    print(f"rho: {witness.rho}")
    print("Q:")
    for row in witness.q_matrix.rows:
        print(" ".join(str(v) for v in row))
    print(f"witness: {'re-verified OK' if verified else 'FAILED RE-VERIFICATION'}")


# ---------------------------------------------------------------------------


def cmd_points(args) -> int:
    table = point_table(args.k, args.q, args.modulus)
    for i, pt in enumerate(table.points, start=1):
        print(f"{i}: ({','.join(str(c) for c in pt)})")
    return 0


def cmd_chi(args) -> int:
    for code in _read_codes(args.codefile):
        chi = characteristic_vector(code)
        print(" ".join(str(c) for c in chi.counts))
    return 0


def cmd_equiv(args) -> int:
    codes1 = _read_codes(args.file1)
    if args.file2 is not None:
        c1, c2 = codes1[0], _read_codes(args.file2)[0]
    elif len(codes1) >= 2:
        c1, c2 = codes1[0], codes1[1]
    else:
        raise CodeFileError(f"{args.file1}: need a second code or a second file")
    verdict = decide_equivalence(c1, c2, args.algo)
    if verdict.equivalent:
        print(f"EQUIVALENT method={verdict.method}")
        _print_witness(verdict.witness, verify_witness(c1, c2, verdict.witness))
        return 0
    print(f"INEQUIVALENT method={verdict.method}")
    return 1


def cmd_classify(args) -> int:
    codes = _read_codes(args.codefile)
    result = classify(codes, algo=args.algo, jobs=args.jobs)
    for i, cls in enumerate(result.classes, start=1):
        members = " ".join(str(m + 1) for m in cls.members)
        print(f"class {i}: size {len(cls.members)} digest {cls.key_digest} "
              f"members {members}")
    seed_note = f" seed {args.seed}" if args.seed is not None else ""
    print(f"total codes {result.n_codes} classes {len(result.classes)} "
          f"errors {len(result.errors)} algo {result.algo} "
          f"elapsed {result.elapsed:.3f}s{seed_note}")
    print(f"digest {result.digest}")
    for idx, msg in result.errors:
        print(f"error: code {idx + 1}: {msg}", file=sys.stderr)
    return 2 if result.errors else 0


def cmd_gen(args) -> int:
    spec = field(args.q, args.modulus)
    codes = [random_code(spec, args.n, args.k, args.seed + i,
                         projective=args.projective)
             for i in range(args.count)]
    text = emit_codes(codes)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_autgroup(args) -> int:
    for idx, code in enumerate(_read_codes(args.codefile), start=1):
        report = code_aut_group(code)
        if report.order is not None:
            head = f"code {idx}: aut order {report.order}"
        elif code.spec.m > 1:
            head = f"code {idx}: aut order not computed (composite field)"
        else:
            head = (f"code {idx}: aut order not computed "
                    f"({len(report.failed)} generator(s) did not lift)")
        print(f"{head}, h1 order {report.h1_order}, "
              f"generators {len(report.h1_generators)}")
        for g, w in enumerate(report.lifted, start=1):
            print(f"  gen {g}: sigma {_one_based(w.sigma)} | "
                  f"lambdas {' '.join(str(l) for l in w.lambdas)} | rho {w.rho}")
        for g, tau in enumerate(report.failed, start=1):
            print(f"  unlifted {g}: sigma {_one_based(tau)}")
    return 0


def cmd_bench(args) -> int:
    spec = field(args.q, args.modulus)
    codes = [random_code(spec, args.n, args.k, args.seed + i)
             for i in range(args.count)]
    timings = {}
    counts = {}
    for algo in ("cesimpg", "ceimpg"):
        result = classify(codes, algo=algo, jobs=args.jobs)
        timings[algo] = result.elapsed
        counts[algo] = len(result.classes)
        if result.errors:
            print(f"error: {algo}: {len(result.errors)} codes failed, the "
                  f"first with {result.errors[0][1]}", file=sys.stderr)
            return 2
    print(f"{'q':>3} {'k':>3} {'n':>3} {'generated':>9} {'inequivalent':>12} "
          f"{'cesimpg_s':>10} {'ceimpg_s':>10}")
    print(f"{args.q:>3} {args.k:>3} {args.n:>3} {args.count:>9} "
          f"{counts['cesimpg']:>12} {timings['cesimpg']:>10.2f} "
          f"{timings['ceimpg']:>10.2f}")
    if counts["cesimpg"] != counts["ceimpg"]:
        print(f"error: class counts disagree: cesimpg {counts['cesimpg']} "
              f"vs ceimpg {counts['ceimpg']}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


JOBS_HELP = ("at most N processes keying codes, this one included; "
             "workers start only on batches that take long to key "
             "(default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codequiv",
        description="Equivalence and automorphisms of q-ary linear codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("points", help="list the projective point table")
    p.add_argument("-k", type=int, required=True, help="vector-space dimension")
    p.add_argument("-q", type=int, required=True, help="field order")
    p.add_argument("--modulus", type=int, default=None)
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("chi", help="characteristic vector of each code")
    p.add_argument("codefile", help="code file, or - for stdin")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("equiv", help="decide equivalence of two codes")
    p.add_argument("file1")
    p.add_argument("file2", nargs="?", default=None,
                   help="second file; omit to compare the first two codes of file1")
    p.add_argument("--algo", choices=("auto", "cesimpg", "ceimpg"),
                   default="auto")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("classify", help="partition codes into equivalence classes")
    p.add_argument("codefile")
    p.add_argument("--algo", choices=("ceimpg", "cesimpg"),
                   default="ceimpg")
    p.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                   help=JOBS_HELP)
    p.add_argument("--seed", type=int, default=None,
                   help="echoed into the report footer for provenance")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gen", help="generate random codes")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--count", type=positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--projective", action="store_true")
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("autgroup", help="automorphism group of each code")
    p.add_argument("codefile")
    p.set_defaults(func=cmd_autgroup)

    p = sub.add_parser("bench", help="benchmark both classification routes")
    p.add_argument("-q", type=int, default=3)
    p.add_argument("-k", type=int, default=3)
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--count", type=positive_int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                   help=JOBS_HELP)
    p.add_argument("--modulus", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, ResourceLimitError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        # CodeFileError is a ValueError; OSError covers any unreadable path
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
