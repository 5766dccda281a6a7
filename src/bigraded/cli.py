"""Command-line interface.

Subcommands operate on the JSON document format of `docio`; exit codes
are 0 (success), 1 (a check failed or the input is invalid) and 2
(usage error).
"""

from __future__ import annotations

import argparse
import sys

from .rings import BadParameter, UnsupportedRing, ring_from_name
from . import chain
from . import bicomplex as bc
from . import twisted as tw
from .docio import DocumentSyntaxError, ValidationError, parse, serialize
from .model import LiftingProblem, BadSquare, NoLift, ce_resolution, classify_map, solve_lift
from .spectral import pages
from .verify import format_report, run_suite


class CheckFailure(Exception):
    """Raised by subcommands to exit with status 1."""


def _read(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CheckFailure(f"cannot read {path}: {exc}")
    try:
        return parse(text)
    except DocumentSyntaxError as exc:
        raise CheckFailure(f"{path}: {exc}")
    except ValidationError as exc:
        raise CheckFailure(f"{path}: invalid object: {exc}")


def _write(obj, out: str | None):
    text = serialize(obj)
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_check(args) -> int:
    obj = _read(args.file)
    kind = type(obj).__name__
    print(f"{args.file}: valid {kind}")
    return 0


def cmd_homology(args) -> int:
    obj = _read(args.file)
    if isinstance(obj, tw.TwistedMap):
        raise CheckFailure("homology expects an object document, not a map")
    h = chain.homology(tw.tot_twisted(obj))
    degs = sorted(n for n, cls in h.items() if not cls.is_zero)
    if not degs:
        print("homology: 0")
        return 0
    print("degree  homology")
    for n in degs:
        print(f"{n:>6}  {h[n]}")
    return 0


def cmd_e2(args) -> int:
    obj = _read(args.file)
    table = pages(obj, r_max=2).page(2)
    _print_page(2, table)
    return 0


def _print_page(r: int, table: dict):
    print(f"page {r}:")
    entries = sorted(pq for pq, d in table.items() if d)
    if not entries:
        print("  (empty)")
    for (p, q) in entries:
        print(f"  ({p},{q}): {table[(p, q)]}")


def cmd_ss(args) -> int:
    obj = _read(args.file)
    data = pages(obj, r_max=args.max_page)
    for r in range(1, args.max_page + 1):
        _print_page(r, data.page(r))
    print(f"stable from page {data.stable_page}")
    return 0


def cmd_tensor(args) -> int:
    x = _read(args.a)
    y = _read(args.b)
    if type(x) is not type(y):
        raise CheckFailure("tensor factors must have the same kind")
    if not isinstance(x, tw.TwistedComplex):
        raise CheckFailure("tensor expects object documents, not maps")
    _write(tw.tensor_twisted(x, y), args.output)
    return 0


def cmd_classify(args) -> int:
    f = _read(args.mapfile)
    if not isinstance(f, tw.TwistedMap):
        raise CheckFailure("classify expects a map document")
    rep = classify_map(f, args.structure)
    print(f"structure: {rep.structure}")
    weq = "unknown" if rep.is_weq is None else str(rep.is_weq).lower()
    print(f"weak equivalence: {weq}")
    print(f"fibration: {str(rep.is_fibration).lower()}")
    print(f"trivial fibration: {str(rep.is_trivial_fibration).lower()}")
    for key, val in sorted(rep.evidence.items()):
        print(f"evidence {key}: {val}")
    return 0


def cmd_lift(args) -> int:
    import os

    maps = {}
    for name in ("i", "g", "u", "f"):
        maps[name] = _read(os.path.join(args.squaredir, name + ".json"))
    try:
        h = solve_lift(LiftingProblem(maps["i"], maps["g"], maps["u"], maps["f"]))
    except BadSquare as exc:
        raise CheckFailure(f"not a commuting square: {exc}")
    except NoLift as exc:
        raise CheckFailure(f"no lift: {exc}")
    _write(h, args.output)
    return 0


def cmd_ce_resolve(args) -> int:
    y = _read(args.file)
    if not isinstance(y, chain.ChainComplex):
        raise CheckFailure("ce-resolve expects a chain complex document")
    _, eps = ce_resolution(y)
    _write(eps, args.output)
    return 0


_GEN_KINDS = {
    "sphere": lambda p, q, r, k: bc.bic_sphere(p, q, r, k),
    "disc": lambda p, q, r, k: bc.bic_disc(p, q, r, k),
    "h-boundary": lambda p, q, r, k: bc.h_boundary(p, q, r, k),
    "v-boundary": lambda p, q, r, k: bc.v_boundary(p, q, r, k),
    "twisted-disc": lambda p, q, r, k: tw.twisted_disc(p, q, k),
    "twisted-boundary": lambda p, q, r, k: tw.twisted_boundary(p, q, k),
    "boundary-inclusion": lambda p, q, r, k: tw.boundary_inclusion(p, q, k),
}
# the twisted cells are free on one generator and take no rank
_RANK_ONE_KINDS = ("twisted-disc", "twisted-boundary", "boundary-inclusion")


def cmd_gen(args) -> int:
    if args.kind in _RANK_ONE_KINDS and args.rank != 1:
        raise CheckFailure(
            f"{args.kind} is free on one generator: --rank must be 1, not {args.rank}"
        )
    obj = _GEN_KINDS[args.kind](args.p, args.q, args.rank, ring_from_name(args.ring))
    _write(obj, args.output)
    return 0


def cmd_verify_paper(args) -> int:
    checks = run_suite(max_p=args.max_p, seed=args.seed)
    sys.stdout.write(format_report(checks))
    return 0 if all(c["ok"] for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bigraded",
        description="Exact homological algebra of bicomplexes and twisted complexes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a document")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("homology", help="homology of the total complex")
    p.add_argument("file")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("e2", help="second page of the column filtration")
    p.add_argument("file")
    p.set_defaults(func=cmd_e2)

    p = sub.add_parser("ss", help="spectral sequence page tables")
    p.add_argument("file")
    p.add_argument("--max-page", type=int, default=2)
    p.set_defaults(func=cmd_ss)

    p = sub.add_parser("tensor", help="tensor product of two objects")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("classify", help="model-structure classification of a map")
    p.add_argument("mapfile")
    p.add_argument("--structure", choices=("tot", "ce", "twisted-tot"),
                   required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("lift", help="solve a lifting square from i/g/u/f.json")
    p.add_argument("squaredir")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("ce-resolve", help="projective resolution surjecting onto a chain complex")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_ce_resolve)

    p = sub.add_parser("gen", help="emit a generator object")
    p.add_argument("kind", choices=sorted(_GEN_KINDS))
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("-r", "--rank", type=int, default=1)
    p.add_argument("--ring", default="Z")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify-paper", help="run the full verification suite")
    p.add_argument("--max-p", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_verify_paper)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a refused input or parameter is one line on stderr, not a traceback
    except (CheckFailure, BadParameter, UnsupportedRing) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
