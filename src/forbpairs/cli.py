"""Command-line front end.

Every subcommand maps to one library operation and prints deterministic
text.  Exit codes: 0 success (or verdict true), 1 verdict false for
check-style commands, 2 usage errors.  Graphs are given as expression
strings ("co(K3+P4)", "2K1+K2") or, with --graph6, as graph6 text.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog, harness, structure
from .canon import canonical_graph
from .expr import ExprError, graph_from_expr
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .graphs import Graph, bits, invariants, shape_report
from .induced import contains_induced
from .pairs import (
    COLLECTIONS,
    NAMED_CLASSES,
    PairSpec,
    classify_pair,
    theorem_collection,
)
from .perfection import is_perfect_spgt
from .ramsey import THRESHOLD_NAMES, load_overrides, ramsey, threshold

# one runnable example per subcommand; the test suite executes these
EXAMPLES = {
    "expr": ["expr", "co(K1+P4)"],
    "check": ["check", "--expr", "C5", "--perfect"],
    "classify": ["classify", "--pair", "K1,3", "P5"],
    "theorem": ["theorem", "--class", "Gco", "--property", "omega", "--finite"],
    "verify": [
        "verify", "--pair", "2K1+K2", "D", "--class", "G5",
        "--property", "omega", "--nmax", "7",
    ],
    "hunt": [
        "hunt", "--pair", "K1,3", "K3", "--class", "Gcalpha",
        "--property", "omega", "--nmax", "7",
    ],
    "census": [
        "census", "--free", "2K1+K2", "D", "--predicate", "non-perfect",
        "--nmax", "7",
    ],
    "catalog": ["catalog", "--nmax", "6"],
    "colour": ["colour", "--expr", "K12", "--k", "3", "--l", "2"],
    "decompose": ["decompose", "--expr", "C7", "--olariu"],
    "bounds": ["bounds", "--ramsey", "3", "4"],
}


def _graph_arg(text: str, graph6: bool) -> Graph:
    if graph6:
        return decode_graph6(text)
    return graph_from_expr(text)


def _add_graph_flags(sub):
    sub.add_argument("--graph6", action="store_true",
                     help="treat graph arguments as graph6 instead of expressions")
    sub.add_argument("--threads", type=int, default=1)


def _example_epilog(name: str) -> str:
    return "example: forbpairs " + " ".join(EXAMPLES[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forbpairs",
        description="forbidden-pair workbench for perfectness and "
                    "omega-colourability of small graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("expr", help="parse an expression; print graph6 and shape",
                        epilog=_example_epilog("expr"))
    p.add_argument("text")
    p.add_argument("--graph6", action="store_true")

    p = subs.add_parser("check", help="invariants / perfectness / omega-colourability",
                        epilog=_example_epilog("check"))
    p.add_argument("--expr", required=True)
    p.add_argument("--graph6", action="store_true")
    p.add_argument("--perfect", action="store_true")
    p.add_argument("--omega", action="store_true")
    p.add_argument("--invariants", action="store_true")

    p = subs.add_parser("classify", help="pair -> collection membership vector",
                        epilog=_example_epilog("classify"))
    p.add_argument("--pair", nargs=2, required=True, metavar=("X", "Y"))
    p.add_argument("--graph6", action="store_true")

    p = subs.add_parser("theorem", help="class+property -> characterising collection",
                        epilog=_example_epilog("theorem"))
    p.add_argument("--class", dest="class_name", required=True,
                   choices=sorted(NAMED_CLASSES))
    p.add_argument("--property", dest="prop", required=True,
                   choices=["perfect", "omega"])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--finite", action="store_true",
                       help="allow finitely many exceptions")
    group.add_argument("--no-exceptions", action="store_true")

    p = subs.add_parser("verify", help="check a property over a whole class",
                        epilog=_example_epilog("verify"))
    p.add_argument("--pair", nargs=2, required=True, metavar=("X", "Y"))
    p.add_argument("--class", dest="class_name", required=True,
                   choices=sorted(NAMED_CLASSES))
    p.add_argument("--property", dest="prop", required=True,
                   choices=["perfect", "omega"])
    p.add_argument("--nmax", type=int, default=9)
    p.add_argument("--full", action="store_true",
                   help="enumerate all graphs instead of the free class")
    _add_graph_flags(p)

    p = subs.add_parser("hunt", help="list all counterexamples up to --nmax",
                        epilog=_example_epilog("hunt"))
    p.add_argument("--pair", nargs=2, required=True, metavar=("X", "Y"))
    p.add_argument("--class", dest="class_name", required=True,
                   choices=sorted(NAMED_CLASSES))
    p.add_argument("--property", dest="prop", required=True,
                   choices=["perfect", "omega"])
    p.add_argument("--nmax", type=int, default=9)
    _add_graph_flags(p)

    p = subs.add_parser("census", help="census of a free class under predicates",
                        epilog=_example_epilog("census"))
    p.add_argument("--free", nargs="+", required=True, metavar="PATTERN")
    p.add_argument("--predicate", action="append", default=[],
                   choices=sorted(harness.PREDICATES))
    p.add_argument("--nmax", type=int, default=8)
    _add_graph_flags(p)

    p = subs.add_parser("catalog", help="derive the blow-up base catalog",
                        epilog=_example_epilog("catalog"))
    p.add_argument("--nmax", type=int, default=9)
    p.add_argument("--threads", type=int, default=1)

    p = subs.add_parser("colour", help="constructive omega-colouring (clique peel)",
                        epilog=_example_epilog("colour"))
    p.add_argument("--expr", required=True)
    p.add_argument("--graph6", action="store_true")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    p = subs.add_parser("decompose", help="olariu or C5-blow-up decomposition",
                        epilog=_example_epilog("decompose"))
    p.add_argument("--expr", required=True)
    p.add_argument("--graph6", action="store_true")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--olariu", action="store_true")
    group.add_argument("--blowup", action="store_true")

    p = subs.add_parser("bounds", help="Ramsey values and named thresholds",
                        epilog=_example_epilog("bounds"))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ramsey", nargs=2, type=int, metavar=("K", "L"))
    group.add_argument("--threshold", nargs="+", metavar="NAME [K [L]]")
    p.add_argument("--table-override", help="file of R(k,l)=value lines")

    return parser


def _cmd_expr(args) -> int:
    g = _graph_arg(args.text, args.graph6)
    print(f"n {g.n} edges {g.edge_count()}")
    print(f"graph6 {encode_graph6(canonical_graph(g))}")
    print(f"recognized {catalog.recognize(g)}")
    return 0


def _cmd_check(args) -> int:
    g = _graph_arg(args.expr, args.graph6)
    rc = 0
    if not (args.perfect or args.omega or args.invariants):
        args.invariants = True
    if args.invariants or args.omega:
        iv = invariants(g)
    if args.invariants:
        sh = shape_report(g)
        print(f"alpha {iv.alpha} omega {iv.omega} chi {iv.chi}")
        print(
            "connected" if sh.connected else "disconnected",
            "bipartite" if sh.bipartite else "non-bipartite",
        )
    if args.perfect:
        cert = is_perfect_spgt(g)
        print(cert.describe())
        rc = 0 if cert.perfect else 1
    if args.omega:
        ok = iv.chi == iv.omega
        print(f"{'omega-colourable' if ok else 'not omega-colourable'}; "
              f"chi={iv.chi} omega={iv.omega}")
        rc = max(rc, 0 if ok else 1)
    return rc


def _cmd_classify(args) -> int:
    x = _graph_arg(args.pair[0], args.graph6)
    y = _graph_arg(args.pair[1], args.graph6)
    vec = classify_pair(PairSpec(x, y))
    for name in COLLECTIONS:
        print(f"{name}: {'yes' if vec[name] else 'no'}")
    return 0


def _cmd_theorem(args) -> int:
    coll = theorem_collection(args.class_name, args.prop, args.finite)
    print(coll)
    return 0


def _cmd_verify(args) -> int:
    x = _graph_arg(args.pair[0], args.graph6)
    y = _graph_arg(args.pair[1], args.graph6)
    report = harness.verify_universal(
        PairSpec(x, y),
        NAMED_CLASSES[args.class_name],
        args.prop,
        args.nmax,
        class_name=args.class_name,
        threads=args.threads,
        restricted=not args.full,
    )
    print(report.to_text())
    return 0 if report.verdict == "all_hold" else 1


def _cmd_hunt(args) -> int:
    x = _graph_arg(args.pair[0], args.graph6)
    y = _graph_arg(args.pair[1], args.graph6)
    found = harness.hunt_counterexamples(
        PairSpec(x, y),
        NAMED_CLASSES[args.class_name],
        args.prop,
        args.nmax,
        class_name=args.class_name,
        threads=args.threads,
    )
    print(f"counterexamples: {len(found)}")
    for ce in found:
        print(f"counterexample\t{ce.graph6}\t{args.prop}\t{ce.certificate}")
    return 0


def _cmd_census(args) -> int:
    patterns = [_graph_arg(t, args.graph6) for t in args.free]
    c = harness.census(patterns, args.predicate, args.nmax, threads=args.threads)
    print(c.to_text())
    return 0


def _cmd_catalog(args) -> int:
    c = harness.derive_blowup_catalog(args.nmax, threads=args.threads)
    print(c.to_text())
    return 0


def _cmd_colour(args) -> int:
    g = _graph_arg(args.expr, args.graph6)
    try:
        colouring, peel = structure.peel_colour(g, args.k, args.l)
    except structure.PreconditionError as exc:
        print(f"precondition failed: {exc}")
        return 1
    print(f"colours {colouring.num_colours}")
    print(f"layers {len(peel.layers)} remainder {peel.remainder.bit_count()} "
          f"vertices (K_{peel.m}-free)")
    print(colouring.serialize())
    return 0


def _cmd_decompose(args) -> int:
    g = _graph_arg(args.expr, args.graph6)
    if args.olariu:
        for rep in structure.olariu_decompose(g):
            vs = " ".join(map(str, bits(rep.vertices)))
            line = f"component [{vs}] {rep.tag}"
            if rep.witness:
                line += " witness " + " ".join(map(str, rep.witness))
            print(line)
        return 0
    try:
        dec = structure.blowup_classify(g)
    except structure.PreconditionError as exc:
        print(f"precondition failed: {exc}")
        return 1
    print("c5 " + " ".join(map(str, dec.c5)))
    for v in range(g.n):
        print(f"{v}: {dec.vertex_classes[v]}")
    print(f"base graph6 {encode_graph6(dec.base)}")
    return 0


def _cmd_bounds(args) -> int:
    table = load_overrides(args.table_override) if args.table_override else None
    if args.ramsey:
        k, l = args.ramsey
        bv = ramsey(k, l, table)
        print(f"R({k},{l}) = {bv.value} ({'exact' if bv.exact else 'upper bound'})")
        return 0
    name, *params = args.threshold
    if name not in THRESHOLD_NAMES:
        print(f"unknown threshold {name!r}; choose from {', '.join(THRESHOLD_NAMES)}",
              file=sys.stderr)
        return 2
    ints = [int(v) for v in params]
    kw = {}
    if len(ints) >= 1:
        kw["k"] = ints[0]
    if len(ints) >= 2:
        kw["l"] = ints[1]
    bv = threshold(name, table=table, **kw)
    print(f"threshold {name}{tuple(ints)} = {bv.value} "
          f"({'exact' if bv.exact else 'upper bound'})")
    return 0


_HANDLERS = {
    "expr": _cmd_expr,
    "check": _cmd_check,
    "classify": _cmd_classify,
    "theorem": _cmd_theorem,
    "verify": _cmd_verify,
    "hunt": _cmd_hunt,
    "census": _cmd_census,
    "catalog": _cmd_catalog,
    "colour": _cmd_colour,
    "decompose": _cmd_decompose,
    "bounds": _cmd_bounds,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except (ExprError, Graph6Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
