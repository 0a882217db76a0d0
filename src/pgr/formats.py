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
from dataclasses import dataclass, field

from .exceptions import (
    ContextPreservationViolation,
    InvalidRule,
    ParseError,
    SharedName,
    UnknownTraceKey,
)
from .graph import Graph
from .matching import Redex
from .rules import CONTEXT, QuasiRule, RuleSketch, desugar_rule

# Order matters: edge arrows like -b-> must win over dashed identifiers
# like 1-of-1, and both over the bare -> of type lines.  Edge arrows must be
# surrounded by whitespace for dashed names to stay unambiguous.
_TOKEN_RE = re.compile(
    r"-[A-Za-z0-9_]+->|->|[A-Za-z0-9_.]+(?:-[A-Za-z0-9_.]+)*|[{}();:!\[\],]|\S")


@dataclass
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        pos = 0
        while pos < len(body):
            m = _TOKEN_RE.search(body, pos)
            if m is None:
                break
            if body[pos:m.start()].strip():
                raise ParseError(f"stray characters {body[pos:m.start()]!r}",
                                 lineno, pos + 1)
            tokens.append(_Token(m.group(), lineno, m.start() + 1))
            pos = m.end()
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
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.column)
        if expect is not None and tok.text != expect:
            raise ParseError(f"expected {expect!r}, found {tok.text!r}",
                             tok.line, tok.column)
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def error(self, message: str):
        tok = self.peek() or (self.tokens[-1] if self.tokens else _Token("", 1, 1))
        raise ParseError(message, tok.line, tok.column)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*$")
_INT_RE = re.compile(r"\d+$")
# Edge arrow written  SRC -LABEL-> TGT ; the lexer splits it into the dash
# run, so labels live in their own token between two dashes.
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
        raise ParseError(f"expected {what}, found {tok.text!r}", tok.line, tok.column)
    return int(tok.text)


def _parse_endpoint(cur: _Cursor):
    tok = cur.next()
    if tok.text == "ctx":
        return CONTEXT
    if _INT_RE.match(tok.text):
        return int(tok.text)
    raise ParseError(f"expected vertex id or 'ctx', found {tok.text!r}",
                     tok.line, tok.column)


@dataclass
class _SideData:
    vertices: set[int] = field(default_factory=set)
    edges: dict[int, tuple[int, str, int]] = field(default_factory=dict)
    names: dict[int, tuple[str, ...]] = field(default_factory=dict)
    black: set[int] = field(default_factory=set)
    types: dict[str, tuple] = field(default_factory=dict)
    cited_types: list[tuple] = field(default_factory=list)
    forbids: set[tuple[int, int, str, str]] = field(default_factory=set)
    next_edge_id: int = 0


def _parse_edge_line(cur: _Cursor, side: _SideData, first: _Token):
    if _INT_RE.match(first.text) and cur.at(":"):
        eid = int(first.text)
        cur.next(":")
        src_tok = cur.next()
    else:
        eid = None
        src_tok = first
    if not _INT_RE.match(src_tok.text):
        raise ParseError(f"expected a vertex id, found {src_tok.text!r}",
                         src_tok.line, src_tok.column)
    src = int(src_tok.text)
    arrow = cur.next()
    m = _EDGE_RE.match(arrow.text) if arrow.text.startswith("-") else None
    if m is None:
        raise ParseError(f"expected -label->, found {arrow.text!r}",
                         arrow.line, arrow.column)
    label = m.group(1)
    tgt = _parse_int(cur, "a target vertex id")
    cur.next(";")
    if eid is None:
        while side.next_edge_id in side.edges:
            side.next_edge_id += 1
        eid = side.next_edge_id
    if eid in side.edges:
        raise ParseError(f"duplicate edge id {eid}", first.line, first.column)
    for v in (src, tgt):
        if v not in side.vertices:
            raise ParseError(f"edge endpoint {v} is not a declared node",
                             first.line, first.column)
    side.edges[eid] = (src, label, tgt)


def _parse_side(cur: _Cursor) -> _SideData:
    side = _SideData()
    cur.next("{")
    while not cur.at("}"):
        tok = cur.peek()
        if tok is None:
            cur.error("unterminated block")
        if tok.text == "node":
            cur.next()
            vid = _parse_int(cur, "a vertex id")
            if vid in side.vertices:
                raise ParseError(f"duplicate node {vid}", tok.line, tok.column)
            side.vertices.add(vid)
            if cur.at("!"):
                cur.next("!")
                side.black.add(vid)
            if cur.at("["):
                cur.next("[")
                names = []
                while not cur.at("]"):
                    name_tok = cur.next()
                    if not _NAME_RE.match(name_tok.text):
                        raise ParseError(f"bad name {name_tok.text!r}",
                                         name_tok.line, name_tok.column)
                    names.append(name_tok.text)
                    if cur.at(","):
                        cur.next(",")
                cur.next("]")
                side.names[vid] = tuple(names)
            cur.next(";")
        elif tok.text == "type":
            cur.next()
            if cur.at(":"):
                cur.next(":")
                src = _parse_endpoint(cur)
                cur.next("->")
                tgt = _parse_endpoint(cur)
                cur.next("from")
                key_tok = cur.next()
                cur.next(";")
                side.cited_types.append((src, tgt, key_tok.text,
                                         key_tok.line, key_tok.column))
            else:
                key_tok = cur.next()
                cur.next(":")
                src = _parse_endpoint(cur)
                cur.next("->")
                tgt = _parse_endpoint(cur)
                cur.next(";")
                if key_tok.text in side.types:
                    raise ParseError(f"duplicate type key {key_tok.text!r}",
                                     key_tok.line, key_tok.column)
                side.types[key_tok.text] = (src, tgt)
        elif tok.text == "forbid":
            cur.next()
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
            _parse_edge_line(cur, side, cur.next())
        else:
            raise ParseError(f"expected node/type/forbid/edge, found {tok.text!r}",
                             tok.line, tok.column)
    cur.next("}")
    return side


def _build_rule_from_sides(name_tok: _Token, lhs: _SideData, rhs: _SideData) -> QuasiRule:
    for src, tgt, key, line, col in rhs.cited_types:
        if key not in lhs.types:
            raise UnknownTraceKey(f"type key {key!r} is not declared on the "
                                  f"left side", line, col)
    if rhs.types:
        raise ParseError("right-side type edges must cite a left key with "
                         "'from'", name_tok.line, name_tok.column)
    clash = set(lhs.edges) & set(rhs.edges)
    if clash:
        raise ParseError(f"edge ids reused across the sides: {sorted(clash)}",
                         name_tok.line, name_tok.column)
    sketch = RuleSketch(
        Graph(lhs.vertices, {e: t for e, t in lhs.edges.items()}),
        Graph(rhs.vertices, {e: t for e, t in rhs.edges.items()}),
        lhs_names=dict(lhs.names),
        rhs_names=dict(rhs.names),
        black=frozenset(lhs.black | rhs.black),
        lhs_types=dict(lhs.types),
        rhs_types=[(s, t, key) for s, t, key, _, _ in rhs.cited_types],
        lhs_forbids=frozenset(lhs.forbids),
        rhs_forbids=frozenset(rhs.forbids),
    )
    try:
        return desugar_rule(sketch)
    except InvalidRule as exc:
        if any("context" in v for v in exc.violations):
            raise ContextPreservationViolation(
                f"rule {name_tok.text!r}: {exc}") from exc
        raise
    except SharedName as exc:
        raise SharedName(f"rule {name_tok.text!r}: {exc}") from exc


def parse_document(text: str) -> Document:
    """Parse a full document of graph, rule and system blocks."""
    cur = _Cursor(_tokenize(text))
    doc = Document()
    while cur.peek() is not None:
        tok = cur.next()
        if tok.text == "graph":
            name_tok = cur.next()
            if name_tok.text in doc.graphs:
                raise ParseError(f"duplicate graph name {name_tok.text!r}",
                                 name_tok.line, name_tok.column)
            side = _parse_side(cur)
            if side.names or side.black or side.types or side.cited_types or side.forbids:
                raise ParseError("graph blocks cannot carry rule annotations",
                                 name_tok.line, name_tok.column)
            doc.graphs[name_tok.text] = Graph(side.vertices, side.edges)
        elif tok.text == "rule":
            name_tok = cur.next()
            if name_tok.text in doc.rules:
                raise ParseError(f"duplicate rule name {name_tok.text!r}",
                                 name_tok.line, name_tok.column)
            cur.next("{")
            cur.next("lhs")
            lhs = _parse_side(cur)
            cur.next("rhs")
            rhs = _parse_side(cur)
            cur.next("}")
            doc.rules[name_tok.text] = _build_rule_from_sides(name_tok, lhs, rhs)
        elif tok.text == "system":
            name_tok = cur.next()
            if name_tok.text in doc.systems:
                raise ParseError(f"duplicate system name {name_tok.text!r}",
                                 name_tok.line, name_tok.column)
            cur.next("{")
            members = []
            while not cur.at("}"):
                cur.next("use")
                member = cur.next()
                if member.text not in doc.rules:
                    raise ParseError(f"system uses unknown rule {member.text!r}",
                                     member.line, member.column)
                members.append(member.text)
                cur.next(";")
            cur.next("}")
            doc.systems[name_tok.text] = members
        else:
            raise ParseError(f"expected graph/rule/system, found {tok.text!r}",
                             tok.line, tok.column)
    return doc


def parse_graph(text: str) -> Graph:
    """Parse a document holding exactly one graph (empty text: empty graph)."""
    doc = parse_document(text)
    if doc.rules or doc.systems:
        raise ParseError("expected a plain graph document", 1, 1)
    if not doc.graphs:
        return Graph()
    if len(doc.graphs) != 1:
        raise ParseError("expected exactly one graph", 1, 1)
    return next(iter(doc.graphs.values()))


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
