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
from .pairs import (
    COLLECTIONS,
    NAMED_CLASSES,
    PROPERTIES,
    PairSpec,
    classify_pair,
    theorem_collection,
)
from .perfection import is_perfect_spgt
from .ramsey import THRESHOLDS, load_overrides, ramsey, threshold

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


def _shared(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding an option that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forbpairs",
        description="forbidden-pair workbench for perfectness and "
                    "omega-colourability of small graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    graph6 = _shared("--graph6", action="store_true",
                     help="treat graph arguments as graph6 instead of expressions")
    threads = _shared("--threads", type=int, default=1)
    expr = _shared("--expr", required=True)
    pair = _shared("--pair", nargs=2, required=True, metavar=("X", "Y"))
    class_prop = _shared("--class", dest="class_name", required=True,
                         choices=sorted(NAMED_CLASSES))
    class_prop.add_argument("--property", dest="prop", required=True, choices=PROPERTIES)
    nmax = _shared("--nmax", type=int, default=9)

    def add(name, summary, *parents):
        return subs.add_parser(name, help=summary, parents=parents,
                               epilog="example: forbpairs " + " ".join(EXAMPLES[name]))

    p = add("expr", "parse an expression; print graph6 and shape", graph6)
    p.add_argument("text")

    p = add("check", "invariants / perfectness / omega-colourability", expr, graph6)
    p.add_argument("--perfect", action="store_true")
    p.add_argument("--omega", action="store_true")
    p.add_argument("--invariants", action="store_true")

    add("classify", "pair -> collection membership vector", pair, graph6)

    p = add("theorem", "class+property -> characterising collection", class_prop)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--finite", action="store_true",
                       help="allow finitely many exceptions")
    group.add_argument("--no-exceptions", action="store_true")

    p = add("verify", "check a property over a whole class",
            pair, class_prop, nmax, graph6, threads)
    p.add_argument("--full", action="store_true",
                   help="enumerate all graphs instead of the free class")

    add("hunt", "list all counterexamples up to --nmax", pair, class_prop, nmax, graph6, threads)

    p = add("census", "census of a free class under predicates", graph6, threads)
    p.add_argument("--free", nargs="+", required=True, metavar="PATTERN")
    p.add_argument("--predicate", action="append", default=[],
                   choices=sorted(harness.PREDICATES))
    p.add_argument("--nmax", type=int, default=8)

    add("catalog", "derive the blow-up base catalog", nmax, threads)

    p = add("colour", "constructive omega-colouring (clique peel)", expr, graph6)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    p = add("decompose", "olariu or C5-blow-up decomposition", expr, graph6)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--olariu", action="store_true")
    group.add_argument("--blowup", action="store_true")

    p = add("bounds", "Ramsey values and named thresholds")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ramsey", nargs=2, type=int, metavar=("K", "L"))
    group.add_argument("--threshold", nargs="+", metavar="NAME [K [L]]")
    p.add_argument("--table-override", help="file of R(k,l)=value lines")

    return parser


def _cmd_expr(args) -> int:
    g = _graph_arg(args.text, args.graph6)
    # built whole before printing, so a graph that graph6 short form cannot
    # encode (above 62 vertices) prints nothing
    lines = [
        f"n {g.n} edges {g.edge_count()}",
        f"graph6 {encode_graph6(canonical_graph(g))}",
        f"recognized {catalog.recognize(g)}",
    ]
    print("\n".join(lines))
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


def _pair(args) -> PairSpec:
    return PairSpec(*(_graph_arg(text, args.graph6) for text in args.pair))


def _cmd_classify(args) -> int:
    vec = classify_pair(_pair(args))
    for name in COLLECTIONS:
        print(f"{name}: {'yes' if vec[name] else 'no'}")
    return 0


def _cmd_theorem(args) -> int:
    coll = theorem_collection(args.class_name, args.prop, args.finite)
    print(coll)
    return 0


def _verify(args, restricted: bool = True) -> harness.VerificationReport:
    return harness.verify_universal(
        _pair(args), NAMED_CLASSES[args.class_name], args.prop, args.nmax,
        class_name=args.class_name, threads=args.threads, restricted=restricted,
    )


def _cmd_verify(args) -> int:
    report = _verify(args, restricted=not args.full)
    print(report.to_text())
    return 0 if report.verdict == "all_hold" else 1


def _cmd_hunt(args) -> int:
    found = _verify(args).counterexamples
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
    table = None
    if args.table_override:
        try:
            table = load_overrides(args.table_override)
        except OSError as exc:
            raise ValueError(f"cannot read {args.table_override}: {exc.strerror}") from exc
    if args.ramsey:
        k, l = args.ramsey
        bv = ramsey(k, l, table)
        print(f"R({k},{l}) = {bv.value} ({'exact' if bv.exact else 'upper bound'})")
        return 0
    name, *params = args.threshold
    if name not in THRESHOLDS:
        raise ValueError(
            f"unknown threshold {name!r}; choose from {', '.join(THRESHOLDS)}"
        )
    names = THRESHOLDS[name]
    takes = " and ".join(v.upper() for v in names) or "no parameters"
    if len(params) > len(names):
        raise ValueError(f"threshold {name!r} takes {takes}; got {len(params)}")
    try:
        ints = [int(v) for v in params]
    except ValueError:
        raise ValueError(
            f"threshold {name!r} takes {takes} as integers; got {' '.join(params)}"
        ) from None
    bv = threshold(name, table=table, **dict(zip(names, ints)))
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
