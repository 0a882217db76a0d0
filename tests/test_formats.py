"""Text formats: parsing, serialization round trips, DOT export."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import PROPERTY, hub_host, three_spoke_rule
from pgr.exceptions import (
    ContextPreservationViolation,
    DanglingRhsName,
    ParseError,
    PgrError,
    PositionMismatch,
    SharedName,
    UnknownTraceKey,
)
from pgr.formats import (
    export_dot,
    parse_document,
    parse_graph,
    parse_rules,
    parse_topology,
    serialize_document,
    serialize_graph,
    serialize_rule,
)
from pgr.graph import Graph
from pgr.matching import find_redexes
from pgr.rules import rules_isomorphic
from pgr.systems import elementary_rules
from test_graph import graphs

HUB_TEXT = """
# running example
graph G {
  node 1; node 2; node 3;
  0: 1 -b-> 2;
  1: 1 -c-> 2;
  2: 2 -a-> 2;
  3: 2 -d-> 3;
  4: 3 -e-> 3;
}
"""


class TestGraphParsing:
    def test_fixture_graph(self):
        g = parse_graph(HUB_TEXT)
        assert g == hub_host()

    def test_empty_text_is_empty_graph(self):
        assert parse_graph("") == Graph()
        assert parse_graph("   \n # nothing \n") == Graph()

    def test_auto_edge_ids(self):
        g = parse_graph("graph G { node 1; 1 -a-> 1; 1 -b-> 1; }")
        assert sorted(g.edges.items()) == [(0, (1, "a", 1)), (1, (1, "b", 1))]

    def test_duplicate_node_error_has_location(self):
        with pytest.raises(ParseError) as info:
            parse_graph("graph G {\n  node 1;\n  node 1;\n}")
        assert info.value.line == 3

    def test_undeclared_endpoint(self):
        with pytest.raises(ParseError):
            parse_graph("graph G { node 1; 1 -a-> 2; }")

    def test_duplicate_edge_id(self):
        with pytest.raises(ParseError):
            parse_graph("graph G { node 1; 3: 1 -a-> 1; 3: 1 -b-> 1; }")

    def test_round_trip_fixture(self):
        g = hub_host()
        assert parse_graph(serialize_graph(g)) == g

    @given(graphs())
    @settings(PROPERTY, max_examples=60)
    def test_round_trip_random(self, g):
        assert parse_graph(serialize_graph(g)) == g

    def test_unlabeled_reserved_label(self):
        g = parse_graph("graph G { node 1; node 2; 1 -_-> 2; }")
        assert list(g.edges.values()) == [(1, "_", 2)]


class TestRuleParsing:
    def test_three_spoke_transcription(self):
        text = """
        rule spokes {
          lhs {
            node 1; node 2; node 3; node 4;
            0: 1 -a-> 2;
            1: 2 -b-> 3;
            2: 2 -a-> 4;
            type k1: ctx -> 1;
            type k2: 1 -> 3;
            type k3: 3 -> ctx;
            type k4: ctx -> 4;
            type k5: 4 -> ctx;
          }
          rhs {
            node 11; node 13; node 14;
            100: 13 -c-> 14;
            101: 14 -a-> 11;
            type: 11 -> 13 from k2;
            type: 11 -> 13 from k1;
            type: ctx -> 11 from k4;
            type: 14 -> ctx from k4;
            type: 13 -> ctx from k3;
          }
        }
        """
        rule = parse_rules(text)[0]
        assert rule.deterministic
        assert len(rule.lhs.ptype.edges) == 5
        assert len(rule.rhs.ptype.edges) == 5
        assert rules_isomorphic(rule, three_spoke_rule()) is not None

    def test_unknown_trace_key(self):
        text = """
        rule bad {
          lhs { node 0; type k1: ctx -> 0; }
          rhs { node 1; type: ctx -> 1 from nope; }
        }
        """
        with pytest.raises(UnknownTraceKey) as info:
            parse_rules(text)
        assert info.value.line == 4

    def test_context_preservation_violation(self):
        text = """
        rule bad {
          lhs { node 0; node 1; type k1: 0 -> 1; }
          rhs { node 0; node 1; type: ctx -> 1 from k1; }
        }
        """
        with pytest.raises(ContextPreservationViolation):
            parse_rules(text)

    def test_shared_name(self):
        text = """
        rule bad {
          lhs { node 0 [x]; node 1 [x]; }
          rhs { node 2 [x]; }
        }
        """
        with pytest.raises(SharedName):
            parse_rules(text)

    def test_merge_shorthand_matches_expansion(self):
        text = """
        rule merge {
          lhs { node 0 [x]; node 1 [y]; 0: 0 -a-> 1; }
          rhs { node 10 [x, y]; }
        }
        """
        rule = parse_rules(text)[0]
        assert rules_isomorphic(rule, elementary_rules()["merge"]) is not None

    def test_copy_shorthand_with_forbids(self):
        text = """
        rule copy {
          lhs { node 0 [x]; }
          rhs {
            node 10 [x]; node 11 [x];
            forbid (x,x) on 10 -> 11;
            forbid (x,x) on 11 -> 10;
          }
        }
        """
        rule = parse_rules(text)[0]
        assert rules_isomorphic(rule, elementary_rules()["copy"]) is not None

    def test_black_node_syntax(self):
        text = """
        rule send {
          lhs {
            node 0!; node 1!;
            0: 0 -t-> 0;
            1: 0 -e-> 1;
          }
          rhs {
            node 0!; node 1!;
            10: 0 -t-> 0;
            11: 0 -e-> 1;
            12: 0 -s-> 0;
            13: 0 -b-> 1;
          }
        }
        """
        from pgr.systems import dijkstra_scholten_system

        rule = parse_rules(text)[0]
        assert rules_isomorphic(rule, dijkstra_scholten_system()["snd-b"]) is not None

    def test_rule_round_trip(self):
        rule = three_spoke_rule()
        text = serialize_rule(rule, "spokes")
        assert parse_rules(text)[0] == rule

    def test_elementary_rules_round_trip(self):
        for name, rule in elementary_rules().items():
            again = parse_rules(serialize_rule(rule, name))[0]
            assert again == rule, name


class TestDocument:
    def test_systems_resolve(self):
        text = HUB_TEXT + """
        rule noop { lhs { node 0; } rhs { node 1; } }
        system only { use noop; }
        """
        doc = parse_document(text)
        assert doc.systems == {"only": ["noop"]}
        assert list(doc.system_rules("only")) == ["noop"]

    def test_unknown_system_member(self):
        with pytest.raises(ParseError):
            parse_document("system s { use ghost; }")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError):
            parse_document("graph G { } graph G { }")

    def test_document_round_trip(self):
        text = HUB_TEXT + """
        rule noop { lhs { node 0; } rhs { node 1; } }
        system only { use noop; }
        """
        doc = parse_document(text)
        again = parse_document(serialize_document(doc))
        assert again.graphs == doc.graphs
        assert again.rules == doc.rules
        assert again.systems == doc.systems


class TestParseRobustness:
    # Each malformed document with the exact message it raises.  A
    # ParseError's message opens with the line and column it carries.
    BROKEN = [
        ("graph {", "1:7: unexpected end of input"),
        ("graph G { node; }", "1:15: expected a vertex id, found ';'"),
        ("graph G { node 1; 1 -a-> ; }", "1:26: expected a target vertex id, found ';'"),
        ("graph G { node 1; 1 -a-> x; }", "1:26: expected a target vertex id, found 'x'"),
        ("graph G { node 1; 1 --> 1; }", "1:21: expected -label->, found '-'"),
        ("graph G { node 1; 0: a -b-> 1; }", "1:22: expected a vertex id, found 'a'"),
        ("graph G { node 1; 1 -a-> 1 }", "1:28: expected ';', found '}'"),
        ("graph G { node 1 @; }", "1:18: expected ';', found '@'"),
        ("graph G { edge 1; }", "1:11: expected node/type/forbid/edge, found 'edge'"),
        ("graph G { node 1;", "1:17: unterminated block"),
        ("graph G {\n  node 1;\n  node 1;\n}", "3:3: duplicate node 1"),
        ("graph G { node 1; 1 -a-> 2; }", "1:19: edge endpoint 2 is not a declared node"),
        ("graph G { node 1; 3: 1 -a-> 1; 3: 1 -b-> 1; }", "1:32: duplicate edge id 3"),
        ("graph G { node 1!; }", "1:7: graph blocks cannot carry rule annotations"),
        ("graph G { node 1 [x]; }", "1:7: graph blocks cannot carry rule annotations"),
        ("graph G { } graph G { }", "1:19: duplicate graph name 'G'"),
        ("rule r { lhs { } }", "1:18: expected 'rhs', found '}'"),
        ("rule r { lhs { type : ; } rhs { } }", "1:23: expected vertex id or 'ctx', found ';'"),
        ("rule r { lhs { node 0; type k: q -> 0; } rhs { } }",
         "1:32: expected vertex id or 'ctx', found 'q'"),
        ("rule r { lhs { node 1 [ }", "1:25: bad name '}'"),
        ("rule r { lhs { node 0 [1x]; } rhs { } }", "1:24: bad name '1x'"),
        ("rule r { lhs { node 0; forbid (x,x) on a -> 0; } rhs { } }",
         "1:40: expected a vertex id, found 'a'"),
        ("rule r { lhs { node 0; type k: ctx -> 0; type k: 0 -> ctx; } rhs { } }",
         "1:47: duplicate type key 'k'"),
        ("rule r { lhs { node 0; type k: ctx -> 0; type: 0 -> ctx from k; } "
         "rhs { node 1; type: ctx -> 1 from k; } }",
         "1:62: left-side type edges must carry a key, not cite one with 'from'"),
        ("rule r { lhs { node 0; } rhs { node 1; type k: ctx -> 1; } }",
         "1:6: right-side type edges must cite a left key with 'from'"),
        ("rule bad {\n  lhs { node 0; type k1: ctx -> 0; }\n  rhs { node 1; type: ctx -> 1 from nope; }\n}",
         "3:37: type key 'nope' is not declared on the left side"),
        ("rule r { lhs { node 0; 0: 0 -a-> 0; } rhs { node 1; 0: 1 -b-> 1; } }",
         "1:6: edge ids reused across the sides: [0]"),
        ("rule r { lhs { } rhs { } } rule r { lhs { } rhs { } }", "1:33: duplicate rule name 'r'"),
        ("system s { use }", "1:16: system uses unknown rule '}'"),
        ("system s { use ghost; }", "1:16: system uses unknown rule 'ghost'"),
        ("rule r { lhs { } rhs { } } system s { use r; } system s { }",
         "1:55: duplicate system name 's'"),
        ("wibble", "1:1: expected graph/rule/system, found 'wibble'"),
        ("@", "1:1: expected graph/rule/system, found '@'"),
        ("graph G { node 1; } trailing", "1:21: expected graph/rule/system, found 'trailing'"),
    ]
    # Rules that parse but fail to build: their errors carry no location,
    # and each names its rule.
    UNBUILT = [
        ("rule r { lhs { node 0; type k: ctx -> ctx; } rhs { } }",
         "rule 'r': type edge 0 lies entirely in the context"),
        ("rule r { lhs { node 0; type k: ctx -> 7; } rhs { } }",
         "rule 'r': type edge 0: endpoint 7 not a pattern vertex"),
        ("rule bad { lhs { node 0; node 1; type k1: 0 -> 1; } "
         "rhs { node 0; node 1; type: ctx -> 1 from k1; } }",
         "rule 'bad': type edge 1 touches the context but its trace image 0 does not"),
        ("rule bad { lhs { node 0 [x]; node 1 [x]; } rhs { node 2 [x]; } }",
         "rule 'bad': name 'x' appears on distinct left nodes 0 and 1"),
        ("rule bad { lhs { node 0; } rhs { node 2 [x]; } }",
         "rule 'bad': right name 'x' has no left counterpart"),
        ("rule bad { lhs { node 0!; } rhs { node 2; } }",
         "rule 'bad': black node 0 is not present on both sides"),
    ]

    def test_malformed_inputs_raise_located_errors(self):
        for text, message in self.BROKEN:
            with pytest.raises(ParseError) as info:
                parse_document(text)
            assert str(info.value) == message, text
            assert message.startswith(f"{info.value.line}:{info.value.column}: ")

    def test_rules_that_fail_to_build_name_the_fault(self):
        # Naming the rule keeps the library's exception types.
        kinds = [ValueError, ValueError, ContextPreservationViolation, SharedName,
                 DanglingRhsName, PositionMismatch]
        for (text, message), kind in zip(self.UNBUILT, kinds, strict=True):
            with pytest.raises((PgrError, ValueError)) as info:
                parse_document(text)
            assert str(info.value) == message, text
            assert type(info.value) is kind, text

    def test_parse_graph_wants_one_graph_and_nothing_else(self):
        with pytest.raises(ParseError, match="^1:1: expected a plain graph document$"):
            parse_graph("rule r { lhs { } rhs { } }")
        with pytest.raises(ParseError, match="^1:1: expected exactly one graph$"):
            parse_graph("graph G { } graph H { }")


class TestTopology:
    def test_parse(self):
        links, initiator = parse_topology(
            "# net\ninitiator 0\nlink 0 1\nlink 1 2\n")
        assert links == [(0, 1), (1, 2)]
        assert initiator == 0

    def test_missing_initiator(self):
        with pytest.raises(ParseError):
            parse_topology("link 0 1\n")

    def test_bad_line_reports_location(self):
        with pytest.raises(ParseError) as info:
            parse_topology("initiator 0\nlink a b\n")
        assert info.value.line == 2

    def test_second_initiator_line(self):
        with pytest.raises(ParseError, match="^2:1: second initiator line$"):
            parse_topology("initiator 0\ninitiator 1\nlink 0 1\n")


class TestDot:
    def test_statement_counts(self):
        out = export_dot(hub_host())
        assert out.count("label=") == 8  # 3 vertices + 5 edges
        assert out == export_dot(hub_host())  # byte-identical

    def test_highlight_styles(self):
        from fixtures import delete_rule

        host = hub_host()
        redex = find_redexes(host, delete_rule())[0][0]
        out = export_dot(host, redex)
        assert "forestgreen" in out
        assert "style=dashed" in out
        # The context loop on vertex 3 keeps the default style.
        assert '  v3 -> v3 [label="e"];' in out
