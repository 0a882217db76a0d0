"""Command-line driver: commands, outputs, exit codes."""

import pytest
from fixtures import SAMPLES, shallow_recursion

from pgr.cli import main
from pgr.formats import parse_graph
from pgr.graph import Graph, isomorphic

HUB = """
graph G {
  node 1; node 2; node 3;
  0: 1 -b-> 2;
  1: 1 -c-> 2;
  2: 2 -a-> 2;
  3: 2 -d-> 3;
  4: 3 -e-> 3;
}
"""

RULES = """
rule delete {
  lhs {
    node 0;
    0: 0 -a-> 0;
    type in: ctx -> 0;
    type out: 0 -> ctx;
  }
  rhs { node 10; node 11; 100: 10 -b-> 10; }
}
rule strict {
  lhs { node 0; 0: 0 -a-> 0; }
  rhs { node 10; node 11; 100: 10 -b-> 10; }
}
system all { use delete; use strict; }
"""

DEADLOCKED = """
graph cycle {
  node 0; node 1; node 10; node 11;
  0: 0 -_-> 10;
  1: 10 -_-> 1;
  2: 10 -z-> 10;
  3: 10 -s-> 10;
  4: 1 -_-> 11;
  5: 11 -_-> 0;
  6: 11 -z-> 11;
  7: 11 -s-> 11;
}
"""

FREE = """
graph chain {
  node 0; node 1; node 10;
  0: 0 -_-> 10;
  1: 10 -_-> 1;
  2: 10 -z-> 10;
  3: 10 -s-> 10;
}
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "host.pgr").write_text(HUB)
    (tmp_path / "rules.pgr").write_text(RULES)
    (tmp_path / "cycle.pgr").write_text(DEADLOCKED)
    (tmp_path / "chain.pgr").write_text(FREE)
    (tmp_path / "line3.topo").write_text("initiator 0\nlink 0 1\nlink 1 2\n")
    return tmp_path


def test_validate(workdir, capsys):
    code = main(["validate", str(workdir / "host.pgr"), str(workdir / "rules.pgr")])
    out = capsys.readouterr().out
    assert code == 0
    assert "graph G: ok (3 vertices, 5 edges)" in out
    assert "rule delete: ok, deterministic" in out
    assert "system all: ok (2 rules)" in out


def test_validate_bad_input(workdir, capsys):
    bad = workdir / "bad.pgr"
    bad.write_text("graph G { node 1; 1 -a-> 99; }")
    code = main(["validate", str(bad)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_each_malformed_input_is_one_error_line(tmp_path, capsys):
    # Every malformed document and topology that the parser tests pin gives
    # its message on one stderr line, no output and exit 2.
    from test_formats import TestParseRobustness

    path = tmp_path / "bad.pgr"
    cases = [("validate", text, message)
             for text, message in TestParseRobustness.BROKEN + TestParseRobustness.UNBUILT]
    cases += [("expand", "rule r { lhs { node 0; type: ctx -> 0 from k; } rhs { node 1; } }",
               "1:44: left-side type edges must carry a key, not cite one with 'from'"),
              ("ds-explore", "initiator 0\ninitiator 1\nlink 0 1\n", "2:1: second initiator line"),
              ("ds-explore", "link 0 1\n", "1:1: topology lacks an initiator line")]
    for command, text, message in cases:
        path.write_text(text)
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), text
    assert len(cases) > 40


def test_warning_before_a_build_error_names_the_rule(tmp_path, capsys):
    # The unmatched left mark warns before the right side fails to build:
    # both lines name the rule, and the error still exits 2.
    path = tmp_path / "bad.pgr"
    path.write_text("rule a { lhs { node 0 [x]; forbid (x,x) on 0 -> 0; forbid (x,z) on 0 -> 0; }"
                    " rhs { node 0 [x]; } }\n")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        "warning: rule 'a': forbidden mark (x,z) on 0->0 matches no implicit type edge\n"
        "error: rule 'a': right name edge ('x', 'x') lacks a left counterpart"
        " (absent or forbidden)\n")


def test_forbid_that_matches_nothing_warns_on_one_line(tmp_path, capsys):
    # One line per rule, naming it, and stdout and the exit code are those of the
    # same rules without the mark.
    rule = "rule r{} {{ lhs {{ node 0 [x];{} }} rhs {{ node 1; }} }}\n"
    mark = " forbid (x,y) on 0 -> 0;"
    (tmp_path / "plain.pgr").write_text(rule.format(1, "") + rule.format(2, ""))
    (tmp_path / "marked.pgr").write_text(rule.format(1, mark) + rule.format(2, mark))
    plain = main(["validate", str(tmp_path / "plain.pgr")]), capsys.readouterr()
    marked = main(["validate", str(tmp_path / "marked.pgr")]), capsys.readouterr()
    assert plain[0] == marked[0] == 0
    assert plain[1].out == marked[1].out == "".join(
        f"rule r{i}: ok, deterministic (3 left / 0 right type edges)\n" for i in (1, 2))
    assert plain[1].err == ""
    assert marked[1].err == "".join(f"warning: rule 'r{i}': forbidden mark (x,y) on 0->0 matches "
                                    "no implicit type edge\n" for i in (1, 2))


def test_expand_prints_desugared(workdir, capsys):
    code = main(["expand", str(workdir / "rules.pgr")])
    out = capsys.readouterr().out
    assert code == 0
    assert "rule delete {" in out
    assert "type" in out


def test_match_lists_redexes(workdir, capsys):
    code = main(["match", str(workdir / "host.pgr"), str(workdir / "rules.pgr"),
                 "--rule", "delete"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 redex(es)" in out
    assert "match vertices [2]" in out


@pytest.mark.parametrize("value", ["abc", "1.5", "0"])
def test_bad_map_cap_is_input_error(workdir, capsys, monkeypatch, value):
    monkeypatch.setenv("PGR_MAX_MAPS", value)
    code = main(["match", str(workdir / "host.pgr"), str(workdir / "rules.pgr"),
                 "--rule", "delete"])
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: PGR_MAX_MAPS must be a positive integer, got {value!r}\n"


def test_bad_map_cap_is_input_error_for_deadlock(workdir, capsys, monkeypatch):
    monkeypatch.setenv("PGR_MAX_MAPS", "0")
    code = main(["deadlock", str(workdir / "cycle.pgr")])
    assert code == 2
    assert capsys.readouterr() == ("", "error: PGR_MAX_MAPS must be a positive integer, got '0'\n")


def test_bad_map_cap_is_input_error_for_ds_explore(workdir, capsys, monkeypatch):
    # The walk's rules are deterministic and never reach the cap, but the
    # expansion still reads it, so a bad value is an input error here too.
    monkeypatch.setenv("PGR_MAX_MAPS", "0")
    code = main(["ds-explore", str(workdir / "line3.topo"), "--max-sends", "1"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: PGR_MAX_MAPS must be a positive integer, got '0'\n")


def test_match_none_is_negative_verdict(workdir, capsys):
    code = main(["match", str(workdir / "host.pgr"), str(workdir / "rules.pgr"),
                 "--rule", "strict"])
    out = capsys.readouterr().out
    assert code == 1
    assert "0 redex(es)" in out


def test_apply_prints_result(workdir, capsys):
    code = main(["apply", str(workdir / "host.pgr"), str(workdir / "rules.pgr"),
                 "--rule", "delete", "--redex-index", "0"])
    out = capsys.readouterr().out
    assert code == 0
    result = parse_graph(out)
    assert isomorphic(result,
                      Graph.from_triples([1, 3, 10, 11], [(3, "e", 3), (10, "b", 10)]))


def test_apply_fresh_base(workdir, capsys):
    code = main(["apply", str(workdir / "host.pgr"), str(workdir / "rules.pgr"),
                 "--rule", "delete", "--fresh-base", "500"])
    out = capsys.readouterr().out
    assert code == 0
    assert "node 500;" in out


def test_apply_bad_index(workdir, capsys):
    code = main(["apply", str(workdir / "host.pgr"), str(workdir / "rules.pgr"),
                 "--rule", "delete", "--redex-index", "9"])
    assert code == 2


def test_apply_colliding_fresh_base(workdir, capsys):
    code = main(["apply", str(workdir / "host.pgr"), str(workdir / "rules.pgr"),
                 "--rule", "delete", "--fresh-base", "0"])
    assert code == 2
    assert "fresh base" in capsys.readouterr().err


def test_normalize(workdir, capsys):
    code = main(["normalize", str(workdir / "host.pgr"), str(workdir / "rules.pgr"),
                 "--system", "all"])
    out = capsys.readouterr().out
    assert code == 0
    assert "step 0: delete" in out
    assert "normal form of G after 1 step(s):" in out


def test_normalize_random_seeded(workdir, capsys):
    code = main(["normalize", str(workdir / "host.pgr"), str(workdir / "rules.pgr"),
                 "--strategy", "random", "--seed", "3"])
    assert code == 0


QUASI = """
graph fan {
  node 0; node 1; node 2;
  0: 0 -a-> 0;
  1: 1 -x-> 0;
  2: 2 -x-> 0;
}
rule pick {
  lhs { node 0; 0: 0 -a-> 0; type p: ctx -> 0; type q: ctx -> 0; }
  rhs { node 10; type: ctx -> 10 from p; }
}
"""


@pytest.mark.parametrize("strategy", ["first", "random"])
def test_normalize_warns_when_a_step_was_capped(tmp_path, capsys, monkeypatch, strategy):
    # Two in-edges over two parallel placeholders give four maps; the cap is 2.
    (tmp_path / "fan.pgr").write_text(QUASI)
    argv = ["normalize", str(tmp_path / "fan.pgr"), str(tmp_path / "fan.pgr"),
            "--strategy", strategy, "--seed", "1"]
    uncapped = main(argv), capsys.readouterr()
    monkeypatch.setenv("PGR_MAX_MAPS", "2")
    capped = main(argv), capsys.readouterr()
    assert uncapped[0] == capped[0] == 0
    assert uncapped[1].err == ""
    assert capped[1].err == "warning: adherence map enumeration was capped\n"
    assert capped[1].out.startswith("step 0: pick at vertices [0]\n"
                                    "normal form of fan after 1 step(s):\n")
    if strategy == "first":  # the first redex does not depend on the cap
        assert capped[1].out == uncapped[1].out


def test_normalize_step_limit_warns_when_capped(tmp_path, capsys, monkeypatch):
    (tmp_path / "fan.pgr").write_text(QUASI.replace("node 10;", "node 10; 10: 10 -a-> 10;"))
    monkeypatch.setenv("PGR_MAX_MAPS", "2")
    code = main(["normalize", str(tmp_path / "fan.pgr"), str(tmp_path / "fan.pgr"),
                 "--max-steps", "2"])
    assert code == 1
    assert capsys.readouterr().err == ("warning: adherence map enumeration was capped\n"
                                       "step limit reached after 2 steps\n")


def test_match_long_same_label_path(tmp_path, capsys):
    # Every edge is labelled a, so only the edge-following search answers
    # quickly; the rule has no type edges, so just the whole host matches.
    n = 1200
    path = "".join(f"{i}: {i} -a-> {i + 1}; " for i in range(n - 1))
    nodes = "".join(f"node {i}; " for i in range(n))
    (tmp_path / "host.pgr").write_text(f"graph P {{ {nodes}{path}}}")
    (tmp_path / "rule.pgr").write_text(
        f"rule whole {{ lhs {{ {nodes}{path}}} rhs {{ node {n}; }} }}")
    with shallow_recursion():
        code = main(["match", str(tmp_path / "host.pgr"), str(tmp_path / "rule.pgr")])
    assert code == 0
    assert capsys.readouterr().out.endswith("1 redex(es)\n")


def test_deadlock_negative(workdir, capsys):
    code = main(["deadlock", str(workdir / "cycle.pgr")])
    out = capsys.readouterr().out
    assert code == 1
    assert "cycle: deadlocked" in out
    assert "graph blocked" in out


def test_deadlock_free(workdir, capsys):
    code = main(["deadlock", str(workdir / "chain.pgr")])
    out = capsys.readouterr().out
    assert code == 0
    assert "chain: deadlockFree" in out


def test_deadlock_step_limit(workdir, capsys):
    code = main(["deadlock", str(workdir / "chain.pgr"), "--max-steps", "1"])
    assert code == 1
    assert "step limit" in capsys.readouterr().err


def test_deadlock_invalid_net(workdir, capsys):
    bad = workdir / "badnet.pgr"
    bad.write_text("graph n { node 0; 0: 0 -q-> 0; }")
    code = main(["deadlock", str(bad)])
    assert code == 2
    assert "invalid wait-for net" in capsys.readouterr().err


def test_ds_explore(workdir, capsys):
    code = main(["ds-explore", str(workdir / "line3.topo"), "--max-sends", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "explored" in out
    assert "quiescent" in out


def test_ds_explore_output_is_pinned(capsys):
    code = main(["ds-explore", str(SAMPLES / "line3.topo"), "--max-sends", "2"])
    assert capsys.readouterr().out == ("explored 479 states\n"
                                       "announce enabled in 15 state(s)\n"
                                       "announce is only enabled in quiescent states\n")
    assert code == 0


def test_ds_explore_reports_a_safety_violation(workdir, capsys, monkeypatch):
    # An injected fault: announce is judged unsafe in every state that
    # enables it, so the walk's verdict is negative.
    monkeypatch.setattr("pgr.systems.announce_safe", lambda g: False)
    code = main(["ds-explore", str(workdir / "line3.topo"), "--max-sends", "1"])
    explored, announced, verdict = capsys.readouterr().out.splitlines()
    assert code == 1
    assert explored.startswith("explored ") and announced.startswith("announce enabled in ")
    assert verdict == f"SAFETY VIOLATION in {announced.split()[3]} state(s)"


def test_ds_explore_depth_cap(workdir, capsys):
    code = main(["ds-explore", str(workdir / "line3.topo"),
                 "--max-sends", "1", "--max-depth", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "depth capped" in out


@pytest.mark.parametrize("command, files, flag", [
    ("normalize", ["host.pgr", "rules.pgr"], "--max-steps"),
    ("deadlock", ["chain.pgr"], "--max-steps"),
    ("ds-explore", ["line3.topo"], "--max-depth"),
    ("ds-explore", ["line3.topo"], "--max-sends"),
])
def test_negative_bound_is_input_error(workdir, capsys, command, files, flag):
    # An empty run under a negative bound must not read as a verdict.
    with pytest.raises(SystemExit) as exit_info:
        main([command, *(str(workdir / f) for f in files), flag, "-1"])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert f"argument {flag}: expected a non-negative integer, got '-1'" in err
    assert "Traceback" not in err


def test_dot_plain(workdir, capsys):
    code = main(["dot", str(workdir / "host.pgr")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph G {")
    assert out.count("->") == 5


def test_dot_highlight(workdir, capsys):
    code = main(["dot", str(workdir / "host.pgr"),
                 "--rules", str(workdir / "rules.pgr"), "--rule", "delete"])
    out = capsys.readouterr().out
    assert code == 0
    assert "forestgreen" in out
    assert "dashed" in out


def test_missing_file(capsys):
    code = main(["validate", "/nonexistent/x.pgr"])
    assert code == 2


def test_directory_is_input_error(workdir, capsys):
    code = main(["validate", str(workdir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_crash_is_internal_error_not_verdict(workdir, capsys, monkeypatch):
    def crash(*_args, **_kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("pgr.cli.find_redexes", crash)
    code = main(["match", str(workdir / "host.pgr"), str(workdir / "rules.pgr"),
                 "--rule", "delete"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"


def test_unknown_rule_name(workdir, capsys):
    code = main(["match", str(workdir / "host.pgr"), str(workdir / "rules.pgr"),
                 "--rule", "ghost"])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_round_trip_through_cli(workdir, capsys):
    # apply output parses back and can be fed to dot
    main(["apply", str(workdir / "host.pgr"), str(workdir / "rules.pgr"),
          "--rule", "delete"])
    out = capsys.readouterr().out
    result_file = workdir / "result.pgr"
    result_file.write_text(out)
    code = main(["dot", str(result_file)])
    assert code == 0


def test_graph_name_in_two_files_is_input_error(workdir, capsys):
    (workdir / "again.pgr").write_text(HUB)
    code = main(["validate", str(workdir / "host.pgr"), str(workdir / "again.pgr")])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: duplicate graph name 'G' across input files\n"


def test_two_graphs_need_graph_flag(workdir, capsys):
    (workdir / "two.pgr").write_text(HUB + HUB.replace("graph G", "graph H"))
    argv = ["match", str(workdir / "two.pgr"), str(workdir / "rules.pgr"), "--rule", "delete"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: input holds 2 graphs; pick one with --graph\n"
    assert main([*argv, "--graph", "H"]) == 0


def test_unknown_system_is_input_error(workdir, capsys):
    code = main(["normalize", str(workdir / "host.pgr"), str(workdir / "rules.pgr"),
                 "--system", "ghost"])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown system 'ghost'\n"


def test_match_warns_when_capped(tmp_path, capsys, monkeypatch):
    # Two in-edges over two parallel placeholders give four maps; the cap is 2.
    (tmp_path / "fan.pgr").write_text(QUASI)
    argv = ["match", str(tmp_path / "fan.pgr"), str(tmp_path / "fan.pgr")]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("4 redex(es)\n")
    monkeypatch.setenv("PGR_MAX_MAPS", "2")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: adherence map enumeration was capped\n"
    assert captured.out.endswith("2 redex(es)\n")


def test_apply_without_redex_is_negative_verdict(workdir, capsys):
    code = main(["apply", str(workdir / "host.pgr"), str(workdir / "rules.pgr"),
                 "--rule", "strict"])
    captured = capsys.readouterr()
    assert code == 1
    assert (captured.out, captured.err) == ("", "no redex\n")


def test_dot_redex_index_out_of_range(workdir, capsys):
    code = main(["dot", str(workdir / "host.pgr"), "--rules", str(workdir / "rules.pgr"),
                 "--rule", "delete", "--redex-index", "1"])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: redex index 1 out of range; 1 redex(es) found\n"


def test_non_integer_bound_is_input_error(workdir, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["deadlock", str(workdir / "chain.pgr"), "--max-steps", "abc"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --max-steps: expected a non-negative integer, got 'abc'\n")


@pytest.mark.parametrize("body, lines", [
    ("node 0; 0: 0 -q-> 0;",
     ["labels outside the wait-for alphabet: ['q']",
      "vertices neither process nor request: [0]",
      "loop 0 is not a z/s loop on a request vertex"]),
    ("node 0; node 1; node 10; 0: 0 -s-> 10; 1: 10 -_-> 1; 2: 10 -z-> 10;",
     ["edge 0 between distinct vertices must be unlabeled"]),
    ("node 0; node 1; 0: 0 -_-> 1;",
     ["edge 0 does not join a process and a request"]),
    ("node 1; node 10; 0: 10 -_-> 1; 1: 10 -z-> 10;",
     ["request 10 needs exactly one requester, has 0"]),
    ("node 0; node 10; 0: 0 -_-> 10; 1: 10 -z-> 10;",
     ["request 10 has no target"]),
    ("node 0; node 1; node 10; 0: 0 -_-> 10; 1: 10 -_-> 1; 2: 10 -_-> 1; 3: 10 -z-> 10;",
     ["request 10 targets a process twice"]),
    ("node 0; node 1; node 10; 0: 0 -_-> 10; 1: 10 -_-> 0; 2: 10 -_-> 1; 3: 10 -z-> 10;",
     ["request 10 targets its own requester"]),
    ("node 0; node 1; node 10; node 11; 0: 0 -_-> 10; 1: 10 -_-> 1; 2: 10 -z-> 10; "
     "3: 0 -_-> 11; 4: 11 -_-> 1; 5: 11 -z-> 11;",
     ["process 0 has more than one outgoing request"]),
])
def test_each_net_violation_is_input_error(tmp_path, capsys, body, lines):
    (tmp_path / "net.pgr").write_text(f"graph n {{ {body} }}")
    code = main(["deadlock", str(tmp_path / "net.pgr")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "".join(f"invalid wait-for net: {line}\n" for line in lines)
