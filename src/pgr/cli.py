"""Command-line driver.

Exit codes: 0 on success, 1 on a negative verdict (no match, deadlocked,
safety violation, step limit), 2 on input errors, 3 on internal errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .exceptions import PgrError, StepLimitReached
from .formats import (
    Document,
    export_dot,
    parse_document,
    parse_topology,
    serialize_graph,
    serialize_rule,
)
from .matching import find_redexes
from .rewrite import apply_at, normalize
from .systems import WaitForNet, detect_deadlock, ds_explore, ds_initial_network

OK, VERDICT_NEGATIVE, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3
CAPPED = "warning: adherence map enumeration was capped"


def _load(paths) -> Document:
    doc = Document()
    unique = list(dict.fromkeys(str(Path(p).resolve()) for p in paths))
    for path in unique:
        part = parse_document(Path(path).read_text(encoding="utf-8"))
        for kind in ("graphs", "rules", "systems"):
            store = getattr(doc, kind)
            for name, value in getattr(part, kind).items():
                if name in store:
                    raise PgrError(f"duplicate {kind[:-1]} name {name!r} "
                                   f"across input files")
                store[name] = value
    return doc


def _pick(mapping: dict, name: str | None, kind: str):
    if name is not None:
        if name not in mapping:
            raise PgrError(f"unknown {kind} {name!r} (have: {', '.join(mapping) or 'none'})")
        return name, mapping[name]
    if len(mapping) == 1:
        return next(iter(mapping.items()))
    raise PgrError(f"input holds {len(mapping)} {kind}s; pick one with --{kind}")


def _system_of(doc: Document, system: str | None):
    if system is not None:
        if system not in doc.systems:
            raise PgrError(f"unknown system {system!r}")
        return doc.system_rules(system)
    return dict(doc.rules)


def cmd_validate(args) -> int:
    doc = _load(args.files)
    for name, g in doc.graphs.items():
        print(f"graph {name}: ok ({len(g.vertices)} vertices, {len(g.edges)} edges)")
    for name, rule in doc.rules.items():
        kind = "deterministic" if rule.deterministic else "quasi"
        print(f"rule {name}: ok, {kind} "
              f"({len(rule.lhs.ptype.edges)} left / {len(rule.rhs.ptype.edges)} "
              f"right type edges)")
    for name, members in doc.systems.items():
        print(f"system {name}: ok ({len(members)} rules)")
    return OK


def cmd_expand(args) -> int:
    doc = _load(args.files)
    for name, rule in doc.rules.items():
        print(serialize_rule(rule, name))
    return OK


def cmd_match(args) -> int:
    doc = _load([args.graphs, args.rules])
    gname, host = _pick(doc.graphs, args.graph, "graph")
    rname, rule = _pick(doc.rules, args.rule, "rule")
    redexes, truncated = find_redexes(host, rule)
    for i, redex in enumerate(redexes):
        mv, me = redex.match_summary()
        h_l = " ".join(f"{e}->{t}" for e, t in sorted(redex.h_l.items()))
        print(f"redex {i}: rule {rname} in {gname}; match vertices "
              f"{list(mv)}, match edges {list(me)}; adherence {{{h_l}}}")
    if truncated:
        print(CAPPED, file=sys.stderr)
    print(f"{len(redexes)} redex(es)")
    return OK if redexes else VERDICT_NEGATIVE


def cmd_apply(args) -> int:
    doc = _load([args.graphs, args.rules])
    _, host = _pick(doc.graphs, args.graph, "graph")
    _, rule = _pick(doc.rules, args.rule, "rule")
    redexes, _ = find_redexes(host, rule)
    if not redexes:
        print("no redex", file=sys.stderr)
        return VERDICT_NEGATIVE
    if not 0 <= args.redex_index < len(redexes):
        raise PgrError(f"redex index {args.redex_index} out of range "
                       f"(0..{len(redexes) - 1})")
    result, _ = apply_at(host, redexes[args.redex_index], fresh_base=args.fresh_base)
    print(serialize_graph(result, "result"), end="")
    return OK


def _warn_if_capped(trace) -> None:
    if any(rec.truncated for rec in trace):
        print(CAPPED, file=sys.stderr)


def cmd_normalize(args) -> int:
    doc = _load([args.graphs, args.rules])
    gname, host = _pick(doc.graphs, args.graph, "graph")
    system = _system_of(doc, args.system)
    try:
        nf, trace = normalize(host, system, strategy=args.strategy,
                              seed=args.seed, max_steps=args.max_steps)
    except StepLimitReached as exc:
        _warn_if_capped(exc.trace)
        print(f"step limit reached after {len(exc.trace)} steps", file=sys.stderr)
        return VERDICT_NEGATIVE
    _warn_if_capped(trace)
    for i, rec in enumerate(trace):
        print(f"step {i}: {rec.rule} at vertices {list(rec.match_vertices)}")
    print(f"normal form of {gname} after {len(trace)} step(s):")
    print(serialize_graph(nf, "normal_form"), end="")
    return OK


def cmd_deadlock(args) -> int:
    doc = _load([args.file])
    gname, host = _pick(doc.graphs, args.graph, "graph")
    net = WaitForNet(host)
    violations = net.violations()
    if violations:
        for v in violations:
            print(f"invalid wait-for net: {v}", file=sys.stderr)
        return INPUT_ERROR
    try:
        report = detect_deadlock(net, max_steps=args.max_steps)
    except StepLimitReached as exc:
        _warn_if_capped(exc.trace)
        print(f"step limit reached after {len(exc.trace)} steps", file=sys.stderr)
        return VERDICT_NEGATIVE
    _warn_if_capped(report.trace)
    print(f"{gname}: {report.verdict}")
    if report.deadlocked:
        print(serialize_graph(report.normal_form, "blocked"), end="")
        return VERDICT_NEGATIVE
    return OK


def cmd_ds_explore(args) -> int:
    links, initiator = parse_topology(Path(args.topology).read_text(encoding="utf-8"))
    state = ds_initial_network(links, initiator)
    result = ds_explore(state, max_sends_per_process=args.max_sends,
                        max_depth=args.max_depth)
    print(f"explored {len(result.states)} states"
          + (" (depth capped)" if result.truncated else ""))
    print(f"announce enabled in {len(result.announce_states)} state(s)")
    if result.safety_violations:
        print(f"SAFETY VIOLATION in {len(result.safety_violations)} state(s)")
        return VERDICT_NEGATIVE
    print("announce is only enabled in quiescent states")
    return OK


def cmd_dot(args) -> int:
    files = [args.graphs] + ([args.rules] if args.rules else [])
    doc = _load(files)
    _, host = _pick(doc.graphs, args.graph, "graph")
    redex = None
    if args.rule is not None:
        _, rule = _pick(doc.rules, args.rule, "rule")
        redexes, _ = find_redexes(host, rule)
        if not 0 <= args.redex_index < len(redexes):
            raise PgrError(f"redex index {args.redex_index} out of range; "
                           f"{len(redexes)} redex(es) found")
        redex = redexes[args.redex_index]
    print(export_dot(host, redex), end="")
    return OK


def _non_negative_int(text: str) -> int:
    """Argument type of the step, depth and send bounds."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgr",
        description="Match, transform and explore graphs with patch-aware "
                    "rewrite rules.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse files and report their contents")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("expand", help="print rules with all shorthand expanded")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("match", help="list the redexes of a rule in a graph")
    p.add_argument("graphs")
    p.add_argument("rules")
    p.add_argument("--rule")
    p.add_argument("--graph")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("apply", help="apply a rule at one redex")
    p.add_argument("graphs")
    p.add_argument("rules")
    p.add_argument("--rule")
    p.add_argument("--graph")
    p.add_argument("--redex-index", type=int, default=0)
    p.add_argument("--fresh-base", type=int, default=None)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("normalize", help="rewrite until no rule applies")
    p.add_argument("graphs")
    p.add_argument("rules")
    p.add_argument("--graph")
    p.add_argument("--system")
    p.add_argument("--strategy", choices=["first", "random"], default="first")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", type=_non_negative_int, default=10000)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("deadlock", help="decide deadlock for a wait-for net")
    p.add_argument("file")
    p.add_argument("--graph")
    p.add_argument("--max-steps", type=_non_negative_int, default=10000)
    p.set_defaults(func=cmd_deadlock)

    p = sub.add_parser("ds-explore",
                       help="exhaustively run termination detection on a topology")
    p.add_argument("topology")
    p.add_argument("--max-depth", type=_non_negative_int, default=None)
    p.add_argument("--max-sends", type=_non_negative_int, default=2)
    p.set_defaults(func=cmd_ds_explore)

    p = sub.add_parser("dot", help="export a graph (optionally one redex) as DOT")
    p.add_argument("graphs")
    p.add_argument("--graph")
    p.add_argument("--rules")
    p.add_argument("--rule")
    p.add_argument("--redex-index", type=int, default=0)
    p.set_defaults(func=cmd_dot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, PgrError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
