"""Line-oriented text formats for graphs, rules and systems, plus DOT export.

Graph blocks declare vertices and edges::

    graph G {
      node 1;
      node 2;
      0: 1 -b-> 2;      # explicit edge id (the serializer always writes one)
      1 -c-> 2;         # edge id assigned automatically
    }

Rule blocks hold two graph-like sides.  Vertex ids reused on both sides
denote the same position.  ``!`` marks a black node, a bracket list carries
name annotations, ``type`` lines add placeholder edges (left sides key them,
right sides cite a left key with ``from``), and ``forbid`` removes an
implicit name edge::

    rule R {
      lhs {
        node 1 [x];
        node 2!;
        0: 1 -a-> 2;
        type k1: ctx -> 1;
        forbid (x,x) on 1 -> 1;
      }
      rhs {
        node 3;
        type: ctx -> 3 from k1;
      }
    }

System blocks name a rule sequence: ``system S { use R1; use R2; }``.
Comments run from ``#`` to the end of the line.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

from .exceptions import (
    ContextPreservationViolation,
    InvalidRule,
    ParseError,
    PgrError,
    UnknownTraceKey,
)
from .graph import Graph
from .matching import Redex
from .rules import CONTEXT, QuasiRule, RuleSketch, desugar_rule

# Order matters: edge arrows like -b-> must win over dashed identifiers
# like 1-of-1, and both over the bare -> of type lines.  Edge arrows must be
# surrounded by whitespace for dashed names to stay unambiguous.  Any other
# character is a token of its own, so the parser reports it where it stands.
_TOKEN_RE = re.compile(
    r"-[A-Za-z0-9_]+->|->|[A-Za-z0-9_.]+(?:-[A-Za-z0-9_.]+)*|[{}();:!\[\],]|\S")


@dataclass
class _Token:
    text: str
    line: int
    column: int

    def error(self, message: str, kind: type[ParseError] = ParseError) -> ParseError:
        return kind(message, self.line, self.column)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(line.split("#", 1)[0]):
            tokens.append(_Token(m.group(), lineno, m.start() + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input")
        if expect is not None and tok.text != expect:
            raise tok.error(f"expected {expect!r}, found {tok.text!r}")
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def accept(self, text: str) -> bool:
        """Consume the next token if it is ``text``."""
        if self.at(text):
            self.pos += 1
            return True
        return False

    def error(self, message: str) -> ParseError:
        """An error at the next token, or at the last one past the end."""
        tok = self.peek() or (self.tokens[-1] if self.tokens else _Token("", 1, 1))
        return tok.error(message)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*$")
_INT_RE = re.compile(r"\d+$")
# Edge arrow written  SRC -LABEL-> TGT ; the lexer keeps the arrow one token.
_EDGE_RE = re.compile(r"-([A-Za-z0-9_]+)->$")


@dataclass
class Document:
    """Named graphs, rules and rule-name lists parsed from one text."""

    graphs: dict[str, Graph] = field(default_factory=dict)
    rules: dict[str, QuasiRule] = field(default_factory=dict)
    systems: dict[str, list[str]] = field(default_factory=dict)

    def system_rules(self, name: str) -> dict[str, QuasiRule]:
        return {rule: self.rules[rule] for rule in self.systems[name]}


def _parse_int(cur: _Cursor, what: str) -> int:
    tok = cur.next()
    if not _INT_RE.match(tok.text):
        raise tok.error(f"expected {what}, found {tok.text!r}")
    return int(tok.text)


def _parse_endpoint(cur: _Cursor):
    return CONTEXT if cur.accept("ctx") else _parse_int(cur, "vertex id or 'ctx'")


@dataclass
class _SideData:
    vertices: set[int] = field(default_factory=set)
    edges: dict[int, tuple[int, str, int]] = field(default_factory=dict)
    names: dict[int, tuple[str, ...]] = field(default_factory=dict)
    black: set[int] = field(default_factory=set)
    types: dict[str, tuple] = field(default_factory=dict)
    cited_types: list[tuple] = field(default_factory=list)  # (src, tgt, key token)
    forbids: set[tuple[int, int, str, str]] = field(default_factory=set)
    next_edge_id: int = 0


def _parse_edge_line(cur: _Cursor, side: _SideData, first: _Token):
    if cur.accept(":"):
        eid, src = int(first.text), _parse_int(cur, "a vertex id")
    else:
        eid, src = None, int(first.text)
    arrow = cur.next()
    m = _EDGE_RE.match(arrow.text)
    if m is None:
        raise arrow.error(f"expected -label->, found {arrow.text!r}")
    tgt = _parse_int(cur, "a target vertex id")
    cur.next(";")
    if eid is None:
        while side.next_edge_id in side.edges:
            side.next_edge_id += 1
        eid = side.next_edge_id
    if eid in side.edges:
        raise first.error(f"duplicate edge id {eid}")
    for v in (src, tgt):
        if v not in side.vertices:
            raise first.error(f"edge endpoint {v} is not a declared node")
    side.edges[eid] = (src, m.group(1), tgt)


def _parse_side(cur: _Cursor) -> _SideData:
    side = _SideData()
    cur.next("{")
    while not cur.accept("}"):
        if cur.peek() is None:
            raise cur.error("unterminated block")
        tok = cur.next()
        if tok.text == "node":
            vid = _parse_int(cur, "a vertex id")
            if vid in side.vertices:
                raise tok.error(f"duplicate node {vid}")
            side.vertices.add(vid)
            if cur.accept("!"):
                side.black.add(vid)
            if cur.accept("["):
                names = []
                while not cur.accept("]"):
                    name_tok = cur.next()
                    if not _NAME_RE.match(name_tok.text):
                        raise name_tok.error(f"bad name {name_tok.text!r}")
                    names.append(name_tok.text)
                    cur.accept(",")
                side.names[vid] = tuple(names)
            cur.next(";")
        elif tok.text == "type":  # type KEY: SRC -> TGT;  or  type: SRC -> TGT from KEY;
            key = None if cur.at(":") else cur.next()
            cur.next(":")
            src = _parse_endpoint(cur)
            cur.next("->")
            tgt = _parse_endpoint(cur)
            if key is None:
                cur.next("from")
                side.cited_types.append((src, tgt, cur.next()))
            elif key.text in side.types:
                raise key.error(f"duplicate type key {key.text!r}")
            else:
                side.types[key.text] = (src, tgt)
            cur.next(";")
        elif tok.text == "forbid":
            cur.next("(")
            x = cur.next().text
            cur.next(",")
            y = cur.next().text
            cur.next(")")
            cur.next("on")
            src = _parse_int(cur, "a vertex id")
            cur.next("->")
            tgt = _parse_int(cur, "a vertex id")
            cur.next(";")
            side.forbids.add((src, tgt, x, y))
        elif _INT_RE.match(tok.text):
            _parse_edge_line(cur, side, tok)
        else:
            raise tok.error(f"expected node/type/forbid/edge, found {tok.text!r}")
    return side


def _build_rule_from_sides(name_tok: _Token, lhs: _SideData, rhs: _SideData) -> QuasiRule:
    if lhs.cited_types:
        raise lhs.cited_types[0][2].error(
            "left-side type edges must carry a key, not cite one with 'from'")
    for _, _, key in rhs.cited_types:
        if key.text not in lhs.types:
            raise key.error(f"type key {key.text!r} is not declared on the left side",
                            UnknownTraceKey)
    if rhs.types:
        raise name_tok.error("right-side type edges must cite a left key with 'from'")
    clash = set(lhs.edges) & set(rhs.edges)
    if clash:
        raise name_tok.error(f"edge ids reused across the sides: {sorted(clash)}")
    sketch = RuleSketch(
        Graph(lhs.vertices, lhs.edges),
        Graph(rhs.vertices, rhs.edges),
        lhs_names=lhs.names,
        rhs_names=rhs.names,
        black=frozenset(lhs.black | rhs.black),
        lhs_types=lhs.types,
        rhs_types=[(s, t, key.text) for s, t, key in rhs.cited_types],
        lhs_forbids=frozenset(lhs.forbids),
        rhs_forbids=frozenset(rhs.forbids),
    )
    try:  # each build error and warning names the rule
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            return desugar_rule(sketch)
    except (PgrError, ValueError) as exc:
        exc.args = (f"rule {name_tok.text!r}: {exc}",)
        if isinstance(exc, InvalidRule) and any("context" in v for v in exc.violations):
            raise ContextPreservationViolation(*exc.args) from exc
        raise
    finally:
        for w in caught:
            warnings.warn(f"rule {name_tok.text!r}: {w.message}", w.category, stacklevel=3)


def parse_document(text: str) -> Document:
    """Parse a full document of graph, rule and system blocks."""
    cur = _Cursor(_tokenize(text))
    doc = Document()
    while cur.peek() is not None:
        tok = cur.next()
        if tok.text not in ("graph", "rule", "system"):
            raise tok.error(f"expected graph/rule/system, found {tok.text!r}")
        store, name_tok = getattr(doc, tok.text + "s"), cur.next()
        if name_tok.text in store:
            raise name_tok.error(f"duplicate {tok.text} name {name_tok.text!r}")
        if tok.text == "graph":
            side = _parse_side(cur)
            if side.names or side.black or side.types or side.cited_types or side.forbids:
                raise name_tok.error("graph blocks cannot carry rule annotations")
            store[name_tok.text] = Graph(side.vertices, side.edges)
        elif tok.text == "rule":
            cur.next("{")
            cur.next("lhs")
            lhs = _parse_side(cur)
            cur.next("rhs")
            rhs = _parse_side(cur)
            cur.next("}")
            store[name_tok.text] = _build_rule_from_sides(name_tok, lhs, rhs)
        else:
            cur.next("{")
            members = []
            while not cur.accept("}"):
                cur.next("use")
                member = cur.next()
                if member.text not in doc.rules:
                    raise member.error(f"system uses unknown rule {member.text!r}")
                members.append(member.text)
                cur.next(";")
            store[name_tok.text] = members
    return doc


def parse_graph(text: str) -> Graph:
    """Parse a document holding exactly one graph (empty text: empty graph)."""
    doc = parse_document(text)
    if doc.rules or doc.systems:
        raise ParseError("expected a plain graph document", 1, 1)
    if len(doc.graphs) > 1:
        raise ParseError("expected exactly one graph", 1, 1)
    return next(iter(doc.graphs.values()), Graph())


def parse_rules(text: str) -> list[QuasiRule]:
    """Parse a document and return its rules, desugared and validated."""
    return list(parse_document(text).rules.values())


def _graph_lines(g: Graph, indent: str) -> list[str]:
    """The node and edge lines of one graph body."""
    return ([f"{indent}node {v};" for v in sorted(g.vertices)]
            + [f"{indent}{e}: {s} -{lab}-> {t};" for e, (s, lab, t) in g.sorted_edges()])


def serialize_graph(g: Graph, name: str = "G") -> str:
    """Deterministic text for one graph; parsing it back is id-exact."""
    return "\n".join([f"graph {name} {{", *_graph_lines(g, "  "), "}"]) + "\n"


def _endpoint_text(ep) -> str:
    return "ctx" if ep == CONTEXT else str(ep)


def serialize_rule(rule: QuasiRule, name: str = "R") -> str:
    """Deterministic text for one desugared rule; round-trips id-exactly."""
    lines = [f"rule {name} {{", "  lhs {", *_graph_lines(rule.lhs.pattern, "    ")]
    for te, (s, t) in rule.lhs.ptype.sorted_edges():
        lines.append(f"    type k{te}: {_endpoint_text(s)} -> {_endpoint_text(t)};")
    lines += ["  }", "  rhs {", *_graph_lines(rule.rhs.pattern, "    ")]
    for te, (s, t) in rule.rhs.ptype.sorted_edges():
        lines.append(f"    type: {_endpoint_text(s)} -> {_endpoint_text(t)} "
                     f"from k{rule.trace[te]};")
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def serialize_document(doc: Document) -> str:
    parts = [serialize_graph(g, name) for name, g in doc.graphs.items()]
    parts += [serialize_rule(r, name) for name, r in doc.rules.items()]
    for name, members in doc.systems.items():
        body = "".join(f"  use {m};\n" for m in members)
        parts.append(f"system {name} {{\n{body}}}\n")
    return "\n".join(parts)


def parse_topology(text: str) -> tuple[list[tuple[int, int]], int]:
    """Parse an undirected network description.

    One ``initiator N`` line and any number of ``link U V`` lines; comments
    start with ``#``.
    """
    links: list[tuple[int, int]] = []
    initiator = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(";", " ").split()
        if parts[0] == "initiator" and len(parts) == 2 and parts[1].isdigit():
            if initiator is not None:
                raise ParseError("second initiator line", lineno, 1)
            initiator = int(parts[1])
        elif parts[0] == "link" and len(parts) == 3 \
                and parts[1].isdigit() and parts[2].isdigit():
            links.append((int(parts[1]), int(parts[2])))
        else:
            raise ParseError(f"expected 'initiator N' or 'link U V', got {line!r}",
                             lineno, 1)
    if initiator is None:
        raise ParseError("topology lacks an initiator line", 1, 1)
    return links, initiator


def export_dot(g: Graph, highlight: Redex | None = None) -> str:
    """Deterministic DOT text; a redex highlights its match and patch."""
    match_vertices: frozenset[int] = frozenset()
    match_edges: frozenset[int] = frozenset()
    patch_edges: frozenset[int] = frozenset()
    if highlight is not None:
        match_vertices = frozenset(highlight.decomposition.match.vertices)
        match_edges = frozenset(highlight.decomposition.match.edges)
        patch_edges = frozenset(highlight.decomposition.patch.edges)
    lines = ["digraph G {"]
    for v in sorted(g.vertices):
        attrs = f'label="{v}"'
        if v in match_vertices:
            attrs += ", color=forestgreen, penwidth=2"
        lines.append(f"  v{v} [{attrs}];")
    for e, (s, lab, t) in g.sorted_edges():
        attrs = f'label="{lab}"'
        if e in match_edges:
            attrs += ", color=forestgreen, penwidth=2"
        elif e in patch_edges:
            attrs += ", color=red, style=dashed"
        lines.append(f"  v{s} -> v{t} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
