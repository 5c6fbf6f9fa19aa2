import argparse
import io
import json
import random
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import loaded_by_cli_import
from rainbowcycles import cli
from rainbowcycles import constructions as cons
from rainbowcycles import generators as gen
from rainbowcycles import graph as gr
from rainbowcycles import solver
from rainbowcycles.cli import main
from rainbowcycles.colouring import (
    CycleWitness,
    EdgeColouring,
    TreeWitness,
    check_cover,
    check_cycle_witness,
    check_tree_witness,
    rainbow_colouring,
)
from rainbowcycles.document import document_from_graph, emit, export_dot, parse
from rainbowcycles.errors import ConstructionRejected, InvalidParameter
from rainbowcycles.graph import Graph
from rainbowcycles.search import verify_k_rainbow_cycle_colouring, verify_k_rainbow_index_colouring


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDocument:
    def test_round_trip(self, corpus):
        for name, g in corpus:
            doc = document_from_graph(g, metadata={"family": name})
            assert parse(emit(doc)) == doc, name

    def test_round_trip_with_colouring(self):
        g = gen.wheel(4)
        c = rainbow_colouring(g)
        doc = document_from_graph(g, c, metadata={"family": "wheel"})
        back = parse(emit(doc))
        assert back == doc
        assert back.colouring.colour_of == c.colour_of

    def test_parse_builds_one_graph(self):
        # the colouring is a colouring of the document's own graph
        g = gen.wheel(4)
        doc = parse(emit(document_from_graph(g, rainbow_colouring(g))))
        assert doc.colouring.graph is doc.graph
        assert parse(emit(document_from_graph(g))).colouring is None

    def test_foreign_edge_order_is_remapped(self):
        # document lists edges out of canonical order; colours follow the edges
        text = json.dumps({
            "format_version": 1,
            "n": 3,
            "edges": [[1, 2], [0, 1], [0, 2]],
            "colouring": {"colours": [5, 6, 7], "r": 8},
        })
        doc = parse(text)
        assert doc.graph.edges == ((0, 1), (0, 2), (1, 2))
        g = doc.graph
        c = doc.colouring
        assert c.colour_of[g.edge_id(1, 2)] == 5
        assert c.colour_of[g.edge_id(0, 1)] == 6
        assert c.colour_of[g.edge_id(0, 2)] == 7
        # a canonical document (its colours taken as written) and a copy
        # with the edges shuffled and each pair reversed (its colours
        # remapped) parse to equal colourings and witnesses
        for c in (cons.colour_wheel(6, 2), cons.colour_join_rxk(2, 3)):
            payload = json.loads(emit(document_from_graph(c.graph, c)))
            order = random.Random(c.graph.e).sample(range(c.graph.e), c.graph.e)
            foreign = dict(payload, edges=[payload["edges"][i][::-1] for i in order])
            foreign["colouring"] = dict(payload["colouring"], colours=[
                payload["colouring"]["colours"][i] for i in order])
            assert foreign["edges"] != payload["edges"]
            canonical, shuffled = parse(json.dumps(payload)), parse(json.dumps(foreign))
            assert canonical == shuffled == document_from_graph(c.graph, c)
            assert canonical.colouring.witnesses == shuffled.colouring.witnesses == c.witnesses

    @pytest.mark.parametrize("bad", [[True, 1], [0, 1.0], [0, 1, 2], "0 1", 3],
                             ids=["bool", "float", "three items", "string", "int"])
    @pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
    def test_bad_edge_entry_is_named(self, bad, at):
        # wherever it stands, the message names the first bad entry
        edges = [[0, 1], [1, 2], [2, 3], [0, 3]]
        edges.insert(at, bad)
        with pytest.raises(InvalidParameter) as exc:
            parse(json.dumps({"n": 4, "edges": edges}))
        assert str(exc.value) == f"bad edge entry {bad!r}"

    def test_round_trip_with_witnesses(self):
        for c in (cons.colour_wheel(6, 2), cons.colour_join_rxk(2, 3)):
            assert c.witnesses
            doc = document_from_graph(c.graph, c)
            back = parse(emit(doc))
            assert back == doc and back.colouring.witnesses == c.witnesses
            # witnesses are no part of the colouring's identity
            assert back.colouring == replace(c, witnesses=(), unused_ok=True)
            assert back.colouring.witnesses == c.witnesses

    def test_witnesses_survive_foreign_edge_order(self):
        # a cycle is a vertex sequence, a tree a list of vertex pairs
        text = json.dumps({
            "n": 3,
            "edges": [[1, 2], [0, 1], [0, 2]],
            "colouring": {"colours": [5, 6, 7], "r": 8, "witnesses": {
                "cycles": ["2 1 0"], "trees": ["2-1 0-2", "1", "0-3"]}},
        })
        g = Graph(3, ((0, 1), (0, 2), (1, 2)))
        assert parse(text).colouring.witnesses == (
            CycleWitness((2, 1, 0), (2, 0, 1)),
            TreeWitness((2, 1), frozenset({0, 1, 2})),
            TreeWitness((), frozenset({1})),
        )  # "0-3" names no edge of g and is dropped
        assert all(check_cycle_witness(g, w) for w in parse(text).colouring.witnesses[:1])
        assert all(check_tree_witness(g, w) for w in parse(text).colouring.witnesses[1:])

    def test_schema_violations(self):
        with pytest.raises(InvalidParameter):
            parse("not json")
        with pytest.raises(InvalidParameter):
            parse(json.dumps({"n": 3}))
        with pytest.raises(InvalidParameter):
            parse(json.dumps({"n": 3, "edges": [[0, 1, 2]]}))
        with pytest.raises(InvalidParameter):
            parse(json.dumps({"n": 2, "edges": [[0, 1]],
                              "colouring": {"colours": [0, 0], "r": 1}}))
        for bad in ([], {"paths": []}, {"cycles": "0 1 2"}, {"cycles": [[0, 1, 2]]},
                    {"cycles": ["0 x 2"]}, {"trees": ["0-1-"]}):
            with pytest.raises(InvalidParameter):
                parse(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]],
                                  "colouring": {"colours": [0, 1, 2], "r": 3,
                                                "witnesses": bad}}))

    @staticmethod
    def _layout_docs(g, name):
        """g bare, rainbow-coloured, and rainbow-coloured carrying a cycle
        witness (where g has a cycle), a one-edge tree and a one-vertex tree."""
        c = rainbow_colouring(g)
        witnesses = [TreeWitness((0,), frozenset(g.edges[0])), TreeWitness((), frozenset({0}))]
        cycles = gr.enumerate_simple_cycles(g)
        if cycles:
            witnesses.insert(0, CycleWitness(cycles[0], gr.cycle_vertices_to_edge_ids(g, cycles[0])))
        meta = {"family": name}
        return [document_from_graph(g, metadata=meta), document_from_graph(g, c, meta),
                document_from_graph(g, replace(c, witnesses=tuple(witnesses)), meta)]

    def test_emit_writes_one_line(self, corpus):
        for name, g in corpus:
            for doc in self._layout_docs(g, name):
                text = emit(doc)
                assert text.endswith("\n") and text.count("\n") == 1, name

    def test_parse_reads_the_indented_layout(self, corpus):
        # every earlier version wrote json.dumps(payload, indent=2)
        for name, g in corpus:
            for doc in self._layout_docs(g, name):
                text = emit(doc)
                indented = json.dumps(json.loads(text), indent=2)
                back, old = parse(text), parse(indented)
                assert old == back == doc, name
                if doc.colouring is not None:
                    assert old.colouring.witnesses == back.colouring.witnesses \
                        == doc.colouring.witnesses, name

    def test_export_dot_mentions_colours(self):
        g = gen.cycle(3)
        c = EdgeColouring(g, (0, 1, 2), 3)
        dot = export_dot(document_from_graph(g, c))
        assert dot.startswith("graph G {")
        assert 'label="2"' in dot


def _wheel_pipeline(colour_flags, monkeypatch, capsys):
    """gen wheel n=5 | colour wheel --k 2 [flags] | verify --k 2: the coloured
    document and the verify report."""
    code, doc_text, _ = run_cli(["gen", "wheel", "n=5"], "", monkeypatch, capsys)
    assert code == 0
    code, coloured, _ = run_cli(
        ["colour", "wheel", "--k", "2"] + colour_flags, doc_text, monkeypatch, capsys)
    assert code == 0
    payload = json.loads(coloured)
    assert payload["colouring"]["r"] == 5
    code, report, _ = run_cli(["verify", "--k", "2"], coloured, monkeypatch, capsys)
    assert code == 0
    rep = json.loads(report)
    assert rep["status"] == "certified" and rep["colours"] == 5
    return payload, rep


class TestPipelines:
    def test_gen_colour_verify_certified(self, monkeypatch, capsys):
        # colour's self-verification writes its three witnesses, which hold
        # all 15 pairs of W_5; verify re-checks them and searches nothing
        payload, rep = _wheel_pipeline([], monkeypatch, capsys)
        assert len(payload["colouring"]["witnesses"]["cycles"]) == 3
        assert (rep["subsets_checked"], rep["subsets_searched"]) == (15, 0)
        assert (rep["search_nodes"], rep["cuts"]) == (0, {"closing": 0, "sides": 0, "short": 0})

    def test_cube_pipeline_searches_nothing(self, monkeypatch, capsys):
        # colour cube's self-verification writes each witness's images
        # under the translations of Q_5 too; they hold all 4,960 triples
        _, doc_text, _ = run_cli(["gen", "hypercube", "n=5"], "", monkeypatch, capsys)
        code, coloured, _ = run_cli(["colour", "cube", "--k", "3"], doc_text,
                                    monkeypatch, capsys)
        assert code == 0
        code, report, _ = run_cli(["verify", "--k", "3"], coloured, monkeypatch, capsys)
        rep = json.loads(report)
        assert code == 0 and rep["status"] == "certified" and rep["colours"] == 10
        assert (rep["subsets_checked"], rep["subsets_searched"]) == (4960, 0)

    def test_gen_colour_no_verify_then_verify(self, monkeypatch, capsys):
        # without self-verification the document carries no witnesses, and
        # verify finds the same three itself
        payload, rep = _wheel_pipeline(["--no-verify"], monkeypatch, capsys)
        assert "witnesses" not in payload["colouring"]
        assert (rep["subsets_checked"], rep["subsets_searched"]) == (15, 3)
        assert rep["search_nodes"] > 0

    def test_verify_prints_cuts_per_rule(self, monkeypatch, capsys):
        # beside the nodes searched: the states that the cycle search's
        # closing-edge and two-sides rules ended, and those its
        # forced-vertex test ended or narrowed to one child (190 nodes and
        # {closing 2, sides 30} before that test)
        _, doc_text, _ = run_cli(["gen", "hypercube", "n=4"], "", monkeypatch, capsys)
        _, coloured, _ = run_cli(["colour", "cube", "--k", "2", "--no-verify"], doc_text,
                                 monkeypatch, capsys)
        code, report, _ = run_cli(["verify", "--k", "2"], coloured, monkeypatch, capsys)
        rep = json.loads(report)
        assert code == 0 and rep["status"] == "certified"
        assert (rep["search_nodes"], rep["cuts"]) == (184, {"closing": 2, "sides": 24, "short": 9})

    def test_solve_cycle_exact(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "cycle", "n=5"], "", monkeypatch, capsys)
        code, report, _ = run_cli(
            ["solve", "--k", "1", "--mode", "exact"], doc_text, monkeypatch, capsys)
        assert code == 0
        rep = json.loads(report)
        assert rep["result"]["value"] == 5
        assert rep["result"]["witness"]["r"] == 5

    def test_solve_budget_out_at_e_is_solved(self, monkeypatch, capsys):
        # the cycle list runs out of budget, but the bounds [5, 5] meet
        _, doc_text, _ = run_cli(["gen", "cycle", "n=5"], "", monkeypatch, capsys)
        code, report, _ = run_cli(
            ["solve", "--k", "1", "--budget", "3"], doc_text, monkeypatch, capsys)
        assert code == 0
        rep = json.loads(report)["result"]
        assert (rep["kind"], rep["value"], rep["witness"]["colours"]) == ("exact", 5, [0, 1, 2, 3, 4])

    def test_solve_reports_its_nodes(self, monkeypatch, capsys):
        # the golden count of crx_2(W_5), spent in the default exact budget,
        # and the paths its cycle listing deferred past the length bound
        _, doc_text, _ = run_cli(["gen", "wheel", "n=5"], "", monkeypatch, capsys)
        code, report, _ = run_cli(["solve", "--k", "2"], doc_text, monkeypatch, capsys)
        rep = json.loads(report)
        assert code == 0 and rep["result"]["value"] == 5
        assert (rep["search_nodes"], rep["cuts"]) == (
            107, {"closing": 0, "sides": 0, "short": 0, "length": 40})

    @pytest.mark.parametrize("argv", [
        ["verify", "--k", "2", "--budget", "-5"],
        ["solve", "--k", "2", "--budget", "-5"],
        ["solve", "--k", "2", "--mode", "interval", "--budget", "-5"],
        ["analyze", "--budget", "-1"],
    ])
    def test_negative_budget_is_refused(self, argv, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "wheel", "n=5"], "", monkeypatch, capsys)
        _, doc_text, _ = run_cli(["colour", "wheel", "--k", "2"], doc_text, monkeypatch, capsys)
        code, out, err = run_cli(argv, doc_text, monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "non-negative" in err

    @pytest.mark.parametrize("gen_argv, colour_argv", [
        (["hypercube", "n=4"], ["cube-recursive", "--k", "5", "--block", "2"]),
        (["wheel", "n=5"], ["wheel", "--k", "2", "--no-verify"]),
        (["wheel", "n=5"], ["wheel", "--k", "2"]),
    ])
    def test_colour_refuses_a_negative_budget(self, gen_argv, colour_argv, monkeypatch,
                                              capsys):
        # refused whether or not a verification would spend the budget
        _, doc_text, _ = run_cli(["gen"] + gen_argv, "", monkeypatch, capsys)
        code, out, err = run_cli(["colour"] + colour_argv + ["--budget", "-5"], doc_text,
                                 monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == "error: a node budget must be non-negative, got -5\n"

    def test_analyze_petersen(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "petersen"], "", monkeypatch, capsys)
        code, report, _ = run_cli(["analyze"], doc_text, monkeypatch, capsys)
        assert code == 0
        rep = json.loads(report)
        assert rep["e"] == 15
        assert rep["is_hypohamiltonian"] is True
        assert rep["girth"] == 5

    def test_analyze_budget_out_keeps_the_girth(self, monkeypatch, capsys):
        # the girth is known before the circumference's search runs out
        _, doc_text, _ = run_cli(["gen", "petersen"], "", monkeypatch, capsys)
        code, report, _ = run_cli(["analyze", "--budget", "50"], doc_text, monkeypatch, capsys)
        rep = json.loads(report)
        assert code == 0
        assert rep["budget_exhausted"] is True and rep["girth"] == 5

    def test_analyze_spends_one_budget(self, monkeypatch, capsys):
        # the invariants and the hypohamiltonian test share --budget, and
        # the latter takes G's Hamiltonicity from the circumference: one
        # Hamilton search on G (82 nodes), then one per vertex-deleted graph;
        # the report cost 702 nodes, with a 142-node search on G, before
        # the forced-vertex test, and 632 before the cycle listing stopped
        # at n edges
        budgets, searched = [], []

        class Recorded(gr.Budget):
            def __init__(self, limit=gr.DEFAULT_BUDGET):
                super().__init__(limit)
                budgets.append(self)

        find = gr.find_hamilton_cycle

        def counted(g, budget=None):
            searched.append(g.n)
            return find(g, budget)

        monkeypatch.setattr(gr, "Budget", Recorded)
        monkeypatch.setattr(gr, "find_hamilton_cycle", counted)
        _, doc_text, _ = run_cli(["gen", "petersen"], "", monkeypatch, capsys)
        code, report, _ = run_cli(["analyze", "--budget", "608"], doc_text, monkeypatch, capsys)
        rep = json.loads(report)
        assert code == 0 and "budget_exhausted" not in rep
        assert rep["is_hamiltonian"] is False and rep["is_hypohamiltonian"] is True
        assert searched == [10] + [9] * 10
        assert sum(b.used for b in budgets) == 608
        # one node fewer runs out: 608 is what the whole report costs
        code, report, _ = run_cli(["analyze", "--budget", "607"], doc_text, monkeypatch, capsys)
        rep = json.loads(report)
        assert code == 0 and rep["budget_exhausted"] is True
        assert "is_hypohamiltonian" not in rep

    def test_verify_counterexample_exit_1(self, monkeypatch, capsys):
        g = gen.wheel(4)
        c = EdgeColouring(g, (0,) * (g.e - 1) + (1,), 2)
        doc_text = emit(document_from_graph(g, c))
        code, report, _ = run_cli(["verify", "--k", "2"], doc_text, monkeypatch, capsys)
        assert code == 1
        assert json.loads(report)["status"] == "counterexample"

    def test_verify_outside_f3_exit_2(self, monkeypatch, capsys):
        g = gen.complete_bipartite(2, 3)
        doc_text = emit(document_from_graph(g, rainbow_colouring(g)))
        code, out, err = run_cli(["verify", "--k", "3"], doc_text, monkeypatch, capsys)
        assert (code, out, err) == (2, "", "error: graph is not in F_3\n")

    def test_construction_rejected_exit_1(self, monkeypatch, capsys):
        def rejected(*args, **kwargs):
            raise ConstructionRejected("colour_wheel: self-verification found bad 2-set (0, 1)")

        _, doc_text, _ = run_cli(["gen", "wheel", "n=5"], "", monkeypatch, capsys)
        monkeypatch.setattr(cons, "colour_wheel", rejected)
        code, out, err = run_cli(["colour", "wheel", "--k", "2"], doc_text, monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert err == "error: colour_wheel: self-verification found bad 2-set (0, 1)\n"

    def test_verify_k_beyond_n_exit_2(self, monkeypatch, capsys):
        # K_4 has no 9-subsets, so neither index can certify them
        _, doc_text, _ = run_cli(["gen", "complete", "n=4"], "", monkeypatch, capsys)
        _, coloured, _ = run_cli(["colour", "complete-2rainbow", "--k", "2"], doc_text,
                                 monkeypatch, capsys)
        for index in ("rx", "crx"):
            code, out, err = run_cli(["verify", "--index", index, "--k", "9"], coloured,
                                     monkeypatch, capsys)
            assert code == 2 and err.startswith("error:") and not out

    @pytest.mark.parametrize("colouring, code", [
        (lambda g: EdgeColouring(g, tuple(i % 3 for i in range(g.e)), 3), 1),
        (lambda g: cons.colour_wheel(6, 2, verify=False), 0),
    ], ids=["w6-counterexample", "w6-certified"])
    def test_verify_workers_flag_changes_nothing(self, colouring, code, monkeypatch, capsys):
        g = gen.wheel(6)
        doc_text = emit(document_from_graph(g, colouring(g)))
        one = run_cli(["verify", "--k", "2"], doc_text, monkeypatch, capsys)
        assert one[0] == code
        # the refute benchmark passes --workers 2, so every spelling of it parses
        for workers in (["--workers", "2"], ["--workers=2"], ["--w", "2"]):
            two = run_cli(["verify", "--k", "2", *workers], doc_text, monkeypatch, capsys)
            assert one[:2] == two[:2]

    def test_unsupported_regime_exit_2(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(
            ["gen", "complete-bipartite", "m=4", "n=10"], "", monkeypatch, capsys)
        code, _, err = run_cli(
            ["colour", "bipartite", "--k", "3"], doc_text, monkeypatch, capsys)
        assert code == 2
        assert "error" in err

    def test_multipartite_sampler_refuses_no_verify(self, monkeypatch, capsys):
        # complete-random's refusal is checked in TestDocumentCovers
        _, doc_text, _ = run_cli(["gen", "complete-multipartite", "sizes=2,2,2"], "",
                                 monkeypatch, capsys)
        argv = ["colour", "multipartite-random", "--k", "2", "--seed", "1"]
        code, out, _ = run_cli(argv, doc_text, monkeypatch, capsys)
        assert code == 0 and parse(out).colouring is not None
        code, out, err = run_cli(argv + ["--no-verify"], doc_text, monkeypatch, capsys)
        assert code == 2 and not out
        assert err.startswith("error:") and "--no-verify" in err

    def test_sampler_budget_covers_every_attempt(self, monkeypatch, capsys):
        # seed 2026 certifies on the fifth sample, after 1,910 nodes in all
        # (2,091 before the forced-vertex test), though each verification
        # alone takes at most 943
        _, doc_text, _ = run_cli(["gen", "complete", "n=8"], "", monkeypatch, capsys)
        argv = ["colour", "complete-random", "--k", "3", "--seed", "2026"]
        code, out, err = run_cli(argv + ["--budget", "1500"], doc_text, monkeypatch, capsys)
        assert code == 2 and not out and err.startswith("error:")
        code, _, _ = run_cli(argv, doc_text, monkeypatch, capsys)
        assert code == 0

    def test_randomised_requires_seed(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "complete", "n=6"], "", monkeypatch, capsys)
        code, _, err = run_cli(
            ["colour", "complete-random", "--k", "3"], doc_text, monkeypatch, capsys)
        assert code == 2 and "seed" in err

    def test_pipeline_reproducible_from_seed(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "complete", "n=6"], "", monkeypatch, capsys)
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                ["colour", "complete-random", "--k", "3", "--seed", "2026",
                 "--attempts", "2000"],
                doc_text, monkeypatch, capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_solve_interval_wheel(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "wheel", "n=9"], "", monkeypatch, capsys)
        code, report, _ = run_cli(
            ["solve", "--k", "2", "--mode", "interval"], doc_text, monkeypatch, capsys)
        assert code == 0
        rep = json.loads(report)["result"]
        assert (rep["lower"], rep["upper"]) == (6, 7)

    def test_solve_interval_witness_colours_the_input(self, monkeypatch, capsys):
        # K_{4,3} lists its larger class first; the interval's witness must
        # still colour that labelling, so verify certifies it on the document
        _, doc_text, _ = run_cli(["gen", "complete-bipartite", "m=4", "n=3"], "",
                                 monkeypatch, capsys)
        code, report, _ = run_cli(["solve", "--k", "1", "--mode", "interval"], doc_text,
                                  monkeypatch, capsys)
        res = json.loads(report)["result"]
        assert code == 0 and (res["kind"], res["value"]) == ("exact", 4)

        def colour(payload):
            payload["colouring"] = {"colours": res["witness"]["colours"],
                                    "r": res["witness"]["r"]}
        code, report, _ = run_cli(["verify", "--k", "1"], _mutated(doc_text, colour),
                                  monkeypatch, capsys)
        assert code == 0 and json.loads(report)["status"] == "certified"

    def test_solve_budget_out_prints_interval(self, monkeypatch, capsys):
        # 50 nodes settle neither bound of crx_2(K_7): the girth and e(G)
        _, doc_text, _ = run_cli(["gen", "complete", "n=7"], "", monkeypatch, capsys)
        code, report, _ = run_cli(
            ["solve", "--k", "2", "--budget", "50"], doc_text, monkeypatch, capsys)
        rep = json.loads(report)["result"]
        assert code == 2 and (rep["kind"], rep["lower"], rep["upper"]) == ("interval", 3, 21)

    def test_cube_recursive_pipeline(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "hypercube", "n=6"], "", monkeypatch, capsys)
        code, coloured, _ = run_cli(["colour", "cube-recursive", "--k", "4", "--block", "3"],
                                    doc_text, monkeypatch, capsys)
        assert code == 0 and json.loads(coloured)["colouring"]["r"] == 24

    @pytest.mark.parametrize("construction, k", [("save-one-crx1", 1), ("save-one-crx2", 2)])
    def test_save_one_pipeline(self, construction, k, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "wheel", "n=5"], "", monkeypatch, capsys)
        code, coloured, _ = run_cli(["colour", construction, "--k", str(k)], doc_text,
                                    monkeypatch, capsys)
        assert code == 0
        code, report, _ = run_cli(["verify", "--k", str(k)], coloured, monkeypatch, capsys)
        rep = json.loads(report)
        assert code == 0 and (rep["status"], rep["colours"]) == ("certified", 9)

    def test_solve_rx(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "cycle", "n=5"], "", monkeypatch, capsys)
        code, report, _ = run_cli(
            ["solve", "--k", "3", "--index", "rx"], doc_text, monkeypatch, capsys)
        assert code == 0
        assert json.loads(report)["result"]["value"] == 3

    def test_export_dot_pipeline(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "cycle", "n=4"], "", monkeypatch, capsys)
        code, dot, _ = run_cli(["export-dot"], doc_text, monkeypatch, capsys)
        assert code == 0
        assert dot.startswith("graph G {") and "0 -- 1" in dot

    def test_join_and_rx_verify(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(
            ["gen", "path-cycle-join", "k=2", "t=3"], "", monkeypatch, capsys)
        code, coloured, _ = run_cli(
            ["colour", "join-rxk", "--k", "2"], doc_text, monkeypatch, capsys)
        assert code == 0
        code, report, _ = run_cli(
            ["verify", "--k", "2", "--index", "rx"], coloured, monkeypatch, capsys)
        assert code == 0
        assert json.loads(report)["status"] == "certified"

    def test_multipartite_roundtrip(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(
            ["gen", "complete-multipartite", "sizes=1,2,3"], "", monkeypatch, capsys)
        code, coloured, _ = run_cli(
            ["colour", "multipartite-blowup", "--k", "1"], doc_text, monkeypatch, capsys)
        assert code == 0
        assert json.loads(coloured)["colouring"]["r"] == 3

    def test_gen_without_sizes_exit_2(self, monkeypatch, capsys):
        code, out, err = run_cli(["gen", "complete-multipartite"], "", monkeypatch, capsys)
        assert code == 2 and "sizes" in err and not out

    def test_wrong_family_metadata_rejected(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "cycle", "n=5"], "", monkeypatch, capsys)
        code, _, err = run_cli(
            ["colour", "wheel", "--k", "1"], doc_text, monkeypatch, capsys)
        assert code == 2 and "wheel" in err

    _TRIANGLE = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}

    @pytest.mark.parametrize("command, doc", [
        (command, {"n": 3, "edges": [["a", 1]]})
        for command in (["verify", "--k", "2"], ["analyze"], ["colour", "wheel", "--k", "2"])
    ] + [
        (["verify", "--k", "2"], dict(_TRIANGLE, colouring=[1, 2])),
        (["verify", "--k", "2"], dict(_TRIANGLE, colouring={"colours": ["0", 1, 2], "r": 3})),
        (["verify", "--k", "2"], dict(_TRIANGLE, colouring={"colours": [True, 1, 2], "r": 3})),
        (["analyze"], {"n": 3, "edges": [[0.5, 1]]}),
        (["analyze"], {"n": 3, "edges": [[False, 1]]}),
        (["colour", "wheel", "--k", "2"],
         dict(_TRIANGLE, metadata={"family": "wheel", "params": {"n": "x"}})),
        (["colour", "wheel", "--k", "2"], dict(_TRIANGLE, metadata={"family": "wheel"})),
        (["colour", "multipartite-blowup", "--k", "1"],
         dict(_TRIANGLE, metadata={"family": "complete-multipartite",
                                   "params": {"sizes": "1,1,1"}})),
        (["colour", "multipartite-blowup", "--k", "1"],
         dict(_TRIANGLE, metadata={"family": "complete-multipartite", "params": {"sizes": 3}})),
    ], ids=["id-verify", "id-analyze", "id-colour", "colouring-list", "colour-str",
            "colour-bool", "id-float", "id-bool", "param-str", "param-missing", "sizes-str",
            "sizes-int"])
    def test_malformed_document_exit_2(self, command, doc, monkeypatch, capsys):
        code, out, err = run_cli(command, json.dumps(doc), monkeypatch, capsys)
        assert code == 2 and err.startswith("error:") and not out

    _COLOUR_BEYOND_R = dict(_TRIANGLE, colouring={"colours": [0, 1, 3], "r": 3})
    # W_5 with every label moved up by one, so the centre is 0: gen's
    # metadata, but not gen's graph
    _RELABELLED_W5 = {"n": 6, "edges": [[(u + 1) % 6, (v + 1) % 6] for u, v in gen.wheel(5).edges],
                      "metadata": {"family": "wheel", "params": {"n": 5}}}
    _SQUARE_AS_Q2 = {"n": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
                     "metadata": {"family": "hypercube", "params": {"n": 2}}}

    @pytest.mark.parametrize("argv, doc", [
        (["gen", "wheel", "n=abc"], None),
        (["gen", "complete-multipartite", "sizes=1,,2"], None),
        (["-i", "{dir}", "analyze"], None),
        (["-o", "{dir}", "gen", "cycle", "n=4"], None),
        (["analyze"], dict(_TRIANGLE, format_version="x")),
        (["analyze"], dict(_TRIANGLE, format_version=7)),
        (["analyze"], dict(_TRIANGLE, format_version=True)),
        (["export-dot"], _COLOUR_BEYOND_R),
        (["solve", "--k", "1"], _COLOUR_BEYOND_R),
        (["colour", "cube-recursive", "--k", "2"], _SQUARE_AS_Q2),
        (["colour", "save-one-crx1", "--k", "1"], _TRIANGLE),
        (["colour", "no-such-construction", "--k", "1"], _TRIANGLE),
        (["verify", "--k", "2"], _TRIANGLE),
        (["solve", "--k", "1", "--index", "rx", "--mode", "interval"], _TRIANGLE),
        # a --k above what the construction certifies; doc is the gen command
        (["colour", "complete-2rainbow", "--k", "5"], ["gen", "complete", "n=6"]),
        (["colour", "complete-2rainbow", "--k", "0"], ["gen", "complete", "n=6"]),
        (["colour", "save-one-crx2", "--k", "3"], ["gen", "wheel", "n=5"]),
        (["colour", "multipartite-blowup", "--k", "2"],
         ["gen", "complete-multipartite", "sizes=1,2,3"]),
        (["colour", "save-one-crx1", "--k", "2"], ["gen", "wheel", "n=5"]),
        (["colour", "join-rxk", "--k", "4"], ["gen", "path-cycle-join", "k=2", "t=2"]),
        (["colour", "complete-random", "--k", "3", "--seed", "1", "--attempts", "-3"],
         ["gen", "complete", "n=6"]),
        # a cube --k outside 1..2^n, verified or not
        (["colour", "cube", "--k", "100", "--no-verify"], ["gen", "hypercube", "n=3"]),
        (["colour", "cube", "--k", "0"], ["gen", "hypercube", "n=3"]),
        (["colour", "cube-recursive", "--k", "99", "--block", "2"], ["gen", "hypercube", "n=4"]),
        # a key the family does not take, or one given twice
        (["gen", "wheel", "n=5", "k=2"], None),
        (["gen", "petersen", "n=7"], None),
        (["gen", "wheel", "n=5", "n=6"], None),
        (["colour", "wheel", "--k", "2"], _RELABELLED_W5),
        (["colour", "multipartite-random", "--k", "2", "--seed", "1"],
         ["gen", "complete-multipartite", "sizes=2,2,3"]),
        # a budget that runs out in the F_k precheck leaves no interval
        (["solve", "--k", "3", "--budget", "10"], ["gen", "petersen"]),
    ], ids=["param-word", "param-empty-size", "input-dir", "output-dir", "version-str",
            "version-7", "version-bool", "dot-colour-beyond-r", "solve-colour-beyond-r",
            "cube-recursive-no-block", "save-one-on-cycle", "unknown-construction",
            "verify-uncoloured", "rx-interval", "complete-2rainbow-k5", "complete-2rainbow-k0",
            "save-one-crx2-k3",
            "blowup-k2", "save-one-crx1-k2", "join-rxk-above-join-k", "negative-attempts",
            "cube-k100", "cube-k0", "cube-recursive-k99", "gen-extra-key", "gen-petersen-key",
            "gen-repeated-key", "graph-not-the-constructions", "multipartite-random-unbalanced",
            "solve-precheck-budget-out"])
    def test_malformed_input_exit_2(self, argv, doc, tmp_path, monkeypatch, capsys):
        # a bad parameter, an unreadable file or document, one error line each
        argv = [str(tmp_path) if a == "{dir}" else a for a in argv]
        if isinstance(doc, list):
            _, text, _ = run_cli(doc, "", monkeypatch, capsys)
        else:
            text = "" if doc is None else json.dumps(doc)
        code, out, err = run_cli(argv, text, monkeypatch, capsys)
        assert code == 2 and not out
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, doc, message", [
        (["gen", "cycle", "5"], None, "expected key=value, got '5'"),
        (["-i", "{file}", "analyze"], [], "document must be a JSON object"),
        (["analyze"], {"n": "3", "edges": []}, "bad types for n / edges"),
        (["analyze"], dict(_TRIANGLE, metadata=[]), "metadata must be an object"),
        (["verify", "--k", "1"], dict(_TRIANGLE, colouring={"colours": [0, 0, 0], "r": 0}),
         "need at least one colour"),
        (["analyze"], {"n": -1, "edges": []}, "vertex count must be non-negative"),
        (["gen", "complete", "n=0"], None, "complete graph needs n >= 1"),
        (["gen", "complete-bipartite", "m=0", "n=2"], None, "complete bipartite needs m, n >= 1"),
        (["gen", "complete-multipartite", "sizes=0,2"], None,
         "need at least two classes of positive size"),
    ], ids=["param-without-eq", "input-file-not-object", "n-not-int", "metadata-not-object",
            "no-colours", "negative-n", "complete-n0", "bipartite-m0", "sizes-not-positive"])
    def test_input_guard_names_the_fault(self, argv, doc, message, tmp_path, monkeypatch, capsys):
        # each guard on outside input: a document read from --input FILE or
        # stdin, or gen's parameters; exit 2 with the guard's own message
        text = "" if doc is None else json.dumps(doc)
        if "{file}" in argv:
            path = tmp_path / "doc.json"
            path.write_text(text, encoding="utf-8")
            argv, text = [str(path) if a == "{file}" else a for a in argv], ""
        assert run_cli(argv, text, monkeypatch, capsys) == (2, "", f"error: {message}\n")


def _mutated(text, mutate):
    """The document text after mutate(payload) edits its JSON payload."""
    payload = json.loads(text)
    mutate(payload)
    return json.dumps(payload)


def _same_verdict_as_bare(text, k, index="crx"):
    """Verify the document as it is and with its witnesses removed: the
    status, bad set and subsets checked must agree, and every witness the
    seeded report rests on must pass its re-check. Returns both reports."""
    verify = verify_k_rainbow_cycle_colouring if index == "crx" else verify_k_rainbow_index_colouring
    c = parse(text).colouring
    seeded = verify(c, k)
    bare = verify(replace(c, witnesses=()), k)
    assert (seeded.status, seeded.bad_set, seeded.subsets_checked) == (
        bare.status, bare.bad_set, bare.subsets_checked)
    check = check_cycle_witness if index == "crx" else check_tree_witness
    assert all(check(c.graph, w, c, require_rainbow=True) for w in seeded.witnesses)
    if seeded.certified:
        assert check_cover(c, k, seeded.witnesses)
    return seeded, bare


class TestSeededVerify:
    """verify seeds its cover with the witnesses a document carries, after
    re-checking each; a mutated witness is dropped, never trusted."""

    @pytest.fixture(scope="class")
    def wheel_doc(self):
        c = cons.colour_wheel(8, 3)
        text = emit(document_from_graph(c.graph, c))
        assert json.loads(text)["colouring"]["witnesses"]["cycles"] == [
            "0 1 2 3 4 8 7", "0 1 2 8 5 6 7", "0 7 6 5 4 3 8", "1 2 3 4 5 6 8"]
        return c, text

    def test_intact_witnesses_cover_everything(self, wheel_doc):
        _, text = wheel_doc
        seeded, bare = _same_verdict_as_bare(text, 3)
        assert seeded.certified and (seeded.subsets_searched, seeded.search_nodes) == (0, 0)
        assert bare.subsets_searched == 4

    def test_flipped_colour_on_a_witness(self, wheel_doc):
        # edge 0-1 of the first witness takes the colour of its next edge 1-2:
        # that witness is no longer rainbow, and {0, 1, 2} inside it has no
        # rainbow cycle at all
        c, text = wheel_doc
        g = c.graph

        def flip(payload):
            colours = payload["colouring"]["colours"]
            colours[g.edge_id(0, 1)] = colours[g.edge_id(1, 2)]
        seeded, _ = _same_verdict_as_bare(_mutated(text, flip), 3)
        assert (seeded.status, seeded.bad_set) == ("counterexample", (0, 1, 2))

    @pytest.mark.parametrize("cycle", [
        "0 1 2 1",           # every step an edge, but vertex 1 twice
        "0 1 2 3 4 8",       # a cycle of W_8 that repeats a colour
        "0 2 4 6",           # steps that are not edges
        "0 1",               # too short
        "0 1 2 3 4 8 99",    # a vertex the graph does not have
    ])
    def test_sequence_that_is_not_a_witness(self, wheel_doc, cycle):
        c, text = wheel_doc

        def replace_all(payload):
            payload["colouring"]["witnesses"]["cycles"] = [cycle]
        seeded, bare = _same_verdict_as_bare(_mutated(text, replace_all), 3)
        assert seeded.certified and seeded.subsets_searched == bare.subsets_searched

    def test_non_rainbow_cycle_covering_a_counterexample(self):
        # W_5 with every edge but one in colour 0 has no rainbow cycle; the
        # rim cycle holds the colex-least bad pair but is not rainbow
        g = gen.wheel(5)
        c = EdgeColouring(g, (0,) * (g.e - 1) + (1,), 2)
        text = emit(document_from_graph(g, c))

        def add_rim(payload):
            payload["colouring"]["witnesses"] = {"cycles": ["0 1 2 3 4", "0 1 5", "0 1 2 3 4 5"]}
        seeded, _ = _same_verdict_as_bare(_mutated(text, add_rim), 2)
        assert (seeded.status, seeded.bad_set, seeded.witnesses) == (
            "counterexample", (0, 1), ())

    def test_cycles_found_for_another_k(self, wheel_doc):
        # the witnesses of a k = 2 pass are rainbow cycles of the same
        # colouring, so they serve k = 3 as well; those of another
        # colouring's pass are re-checked against this one
        c, text = wheel_doc
        pair_pass = verify_k_rainbow_cycle_colouring(replace(c, witnesses=()), 2)
        other = cons.colour_wheel(8, 2)
        for ws, reused in ((pair_pass.witnesses, True), (other.witnesses, False)):
            def swap(payload):
                payload["colouring"]["witnesses"] = {
                    "cycles": [" ".join(map(str, w.vertices)) for w in ws]}
            seeded, bare = _same_verdict_as_bare(_mutated(text, swap), 3)
            assert seeded.certified
            assert (seeded.subsets_searched < bare.subsets_searched) == reused

    def test_trees_for_the_rainbow_index(self):
        c = cons.colour_join_rxk(2, 3)
        g = c.graph
        text = emit(document_from_graph(g, c))
        trees = json.loads(text)["colouring"]["witnesses"]["trees"]
        assert trees[:2] == ["0-1", "0-1 0-2"]
        seeded, bare = _same_verdict_as_bare(text, 2, "rx")
        assert seeded.certified and (seeded.subsets_searched, bare.subsets_searched) == (
            0, len(trees))

        def flip(payload):
            # the tree 0-1 0-2 is no longer rainbow
            colours = payload["colouring"]["colours"]
            colours[g.edge_id(0, 1)] = colours[g.edge_id(0, 2)]

        def swap(witnesses):
            return lambda payload: payload["colouring"].update(witnesses=witnesses)
        for mutate in (flip,
                       swap({"trees": ["0-1 1-2 0-2"]}),  # a triangle, not a tree
                       swap({"trees": ["0-1 0-2 0-1"]}),  # an edge twice
                       swap({"trees": ["0-1 3"]}),        # a vertex off the tree's edges
                       swap({"cycles": ["0 1 2"]})):      # cycles do not serve rx
            _same_verdict_as_bare(_mutated(text, mutate), 2, "rx")
        # nor do trees serve the cycle index
        seeded, bare = _same_verdict_as_bare(text, 2, "crx")
        assert seeded.subsets_searched == bare.subsets_searched


class TestDocumentCovers:
    """The witnesses that colour writes into a document are a cover on
    their own: check_cover re-checks them against the parsed colouring
    without a search."""

    @pytest.mark.parametrize("family, construction, k, sampled", [
        (["wheel", "n=5"], ["wheel", "--k", "2"], 2, False),
        (["complete", "n=8"],
         ["complete-random", "--k", "3", "--seed", "2026", "--attempts", "2000"], 3, True),
        (["path-cycle-join", "k=2", "t=3"], ["join-rxk", "--k", "2"], 2, False),
        (["hypercube", "n=3"], ["cube", "--k", "3"], 3, False),
    ], ids=["wheel", "complete-random", "join-rxk", "cube"])
    def test_readme_colourings(self, family, construction, k, sampled, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", *family], "", monkeypatch, capsys)
        code, coloured, _ = run_cli(["colour", *construction], doc_text, monkeypatch, capsys)
        assert code == 0
        doc = parse(coloured)
        assert check_cover(doc.colouring, k, doc.colouring.witnesses)
        code, bare, err = run_cli(["colour", *construction, "--no-verify"], doc_text,
                                  monkeypatch, capsys)
        if sampled:
            # the sampler keeps only a colouring that its verification
            # certifies, so it refuses to skip verification
            assert code == 2 and err.startswith("error:") and not bare
        else:
            assert code == 0
            bare_doc = parse(bare)
            assert not check_cover(bare_doc.colouring, k, bare_doc.colouring.witnesses)
        # the first witness with two edges takes one colour on both
        first, second = next(w.edge_ids for w in doc.colouring.witnesses if len(w.edge_ids) >= 2)[:2]

        def flip(payload):
            colours = payload["colouring"]["colours"]
            colours[first] = colours[second]
        flipped = parse(_mutated(coloured, flip))
        assert not check_cover(flipped.colouring, k, flipped.colouring.witnesses)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI was read with before its option tables:
    the reference that main's reading of an argv is checked against."""
    parser = argparse.ArgumentParser(
        prog="rainbowcycles",
        description="Construct, verify and exactly solve k-rainbow cycle colourings.",
    )
    parser.add_argument("--input", "-i", default="-", help="input document (default stdin)")
    parser.add_argument("--output", "-o", default="-", help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named graph family")
    p.add_argument("family", choices=sorted(cli._FAMILIES))
    p.add_argument("params", nargs="*", help="key=value parameters, e.g. n=5 or sizes=1,2,3")

    p = sub.add_parser("colour", help="apply a named colouring construction")
    p.add_argument("construction")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--attempts", type=int, default=500)
    p.add_argument("--regime", default="auto", help="bipartite regime override")
    p.add_argument("--block", type=int, default=None, help="K for cube-recursive")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--no-verify", action="store_true")

    p = sub.add_parser("verify", help="verify a coloured document")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--index", choices=("crx", "rx"), default="crx")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored: verification runs in this process")

    p = sub.add_parser("solve", help="compute crx/rx exactly or as an interval")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--index", choices=("crx", "rx"), default="crx")
    p.add_argument("--mode", choices=("exact", "interval"), default="exact")
    p.add_argument("--budget", type=int, default=None,
                   help=f"search nodes (default {solver.DEFAULT_EXACT_BUDGET:,} in exact "
                        f"mode, {gr.DEFAULT_BUDGET:,} in interval mode)")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("analyze", help="structural report: blocks, girth, F_k, ...")
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("export-dot", help="emit DOT with display colours")
    return parser


_REFERENCE = build_parser()
_SUBPARSERS = next(a for a in _REFERENCE._actions
                   if isinstance(a, argparse._SubParsersAction)).choices


def _outcome(read, argv):
    """(("args", vars of the namespace) or ("exit", code), stdout, stderr)
    of read(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = ("args", vars(read(list(argv))))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _main_args(argv):
    """The namespace main hands its command for argv, every command
    replaced by a stub that keeps it."""
    kept = []
    stubs = {name: (lambda args: kept.append(args) or 0)
             for name in vars(cli) if name.startswith("cmd_")}
    with mock.patch.dict(vars(cli), stubs):
        main(argv)
    return kept[0]


def _reference_outcome(argv):
    """The reference parser's outcome for argv, except that a list where
    one value belongs (argparse reads ``--k=--`` as []) exits 2."""
    expected = _outcome(_REFERENCE.parse_args, argv)[0]
    if expected[0] == "args":
        ns = expected[1]
        actions = _REFERENCE._actions + _SUBPARSERS[ns["command"]]._actions
        if any(a.nargs is None and isinstance(ns[a.dest], list) for a in actions):
            return ("exit", 2)
    return expected


def _assert_read_as_reference(argv):
    """main reads argv into the namespace the reference parser gives, or
    exits as it does: 2 with a usage (its first line) and an error (the
    last) on stderr, or 0 after printing a usage for -h/--help."""
    expected = _reference_outcome(argv)
    got, out, err = _outcome(_main_args, argv)
    assert got == expected, argv
    if expected == ("exit", 2):
        lines = err.splitlines()
        assert lines[0].startswith("usage: rainbowcycles") and not out
        assert ": error: " in lines[-1]
    elif expected == ("exit", 0):
        assert out.startswith("usage: rainbowcycles") and not err


_LONG_FLAGS = sorted({flag for p in [_REFERENCE, *_SUBPARSERS.values()]
                      for flag in p._option_string_actions if flag.startswith("--")})
_VALUES = ["2", "-3", "0", "1.5", "+4", " 5", "x", "", "-", "--", "-x", "crx", "exact", "auto",
           "doc.json", "n=5"]
_WORDS = ["cycle", "wheel", "bogus", "n=5", "sizes=1,2", "-5", "-", "--", "-x", "-ix", "-hi",
          "-hh", "-h=x", "--=x", "---k", "-x y", "-i f"]


@st.composite
def _option(draw, parser, flag, value):
    """parser's option flag with value: spelled in full or as a unique
    prefix, the value separate or after "=" (value None: a flag alone)."""
    prefixes = [flag[:end] for end in range(3, len(flag) + 1)
                if [f for f in parser._option_string_actions if f.startswith(flag[:end])] == [flag]]
    spelled = draw(st.sampled_from(prefixes or [flag]))
    if value is None:
        return [spelled]
    return draw(st.sampled_from([[spelled, value], [f"{spelled}={value}"]]))


@st.composite
def _noise(draw):
    """A text or an option of any command, in any form, with any value."""
    flag = draw(st.sampled_from(_LONG_FLAGS + ["-i", "-o", "-h"]))
    if flag.startswith("--") and draw(st.booleans()):
        flag = flag[:draw(st.integers(2, len(flag)))]
    value = draw(st.sampled_from(_VALUES))
    return draw(st.sampled_from([[flag, value], [f"{flag}={value}"], [flag + value], [flag],
                                 [draw(st.sampled_from(_WORDS))]]))


@st.composite
def _exact_argvs(draw):
    """An argv that cli._read takes: -i/-o before a command, or none; then
    the command's positionals in order, and its options in any order among
    them by their exact flags, each value separate or after "=" and none
    starting with "-", each required option at least once."""
    argv = draw(st.sampled_from([[], ["-i", "doc.json"], ["--output=out"], ["-o", "b", "-i=a"]]))
    command = draw(st.sampled_from(list(_SUBPARSERS)))
    argv.append(command)
    texts = []
    if command == "gen":
        texts = [draw(st.sampled_from(sorted(cli._FAMILIES))),
                 *draw(st.sampled_from([[], ["n=5"], ["m=2", "n=3"]]))]
    elif command == "colour":
        texts = ["wheel"]
    options = []
    for action in _SUBPARSERS[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        flag = action.option_strings[0]
        for _ in range(draw(st.sampled_from([1, 2] if action.required else [0, 1, 2]))):
            if action.nargs == 0:
                options.append([flag])
                continue
            if action.choices:
                value = draw(st.sampled_from(action.choices))
            elif action.type is int:
                value = str(draw(st.integers(0, 20)))
            else:
                value = draw(st.sampled_from(["auto", "four", "x=y", ""]))
            options.append(draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))
    for option in draw(st.permutations(options)):
        while texts and draw(st.booleans()):
            argv.append(texts.pop(0))
        argv += option
    return argv + texts


@st.composite
def _argvs(draw):
    """An exact-flag argv, or: -i/-o before a command, or none; then the
    command's positionals and options with values of their type, the last
    of a repeated one winning, in any order; then maybe misplaced, unknown
    or ill-formed texts."""
    if draw(st.booleans()):
        return draw(_exact_argvs())
    argv = draw(st.sampled_from([[], ["-i", "doc.json"], ["-o", "out"], ["--input=x"], ["-ix"],
                                 ["--out", "y"], ["--in", "-"], ["-i", "a", "-o", "b"]]))
    command = draw(st.sampled_from([*_SUBPARSERS] * 3 + ["bogus", "-i"]))
    argv.append(command)
    parser = _SUBPARSERS.get(command)
    parts = [{"gen": [draw(st.sampled_from(sorted(cli._FAMILIES))), "n=5"],
              "colour": ["wheel"]}.get(command, [])]
    for action in parser._actions[1:] if parser else []:
        if not action.option_strings:
            continue
        times = draw(st.sampled_from([1, 1, 2] if action.required else [0, 0, 1, 2]))
        for _ in range(times):
            if action.nargs == 0:
                value = None
            elif action.choices:
                value = draw(st.sampled_from(action.choices))
            elif action.type is int:
                value = str(draw(st.integers(-3, 20)))
            else:
                value = draw(st.sampled_from(["auto", "four", "-1"]))
            parts.append(draw(_option(parser, action.option_strings[0], value)))
    parts = draw(st.permutations(parts))
    for noise in draw(st.lists(_noise(), max_size=2)):
        parts.insert(draw(st.integers(0, len(parts))), noise)
    return argv + [text for part in parts for text in part]


@settings(max_examples=400, deadline=None)
@given(_argvs())
@example(["verify"])  # --k missing
@example(["colour", "wheel", "--b", "3"])  # a prefix of --block and of --budget
@example(["gen", "cycle", "--", "n=4", "--"])
@example(["colour", "--k=--", "--", "wheel"])
@example(["-hi", "doc.json", "gen", "cycle"])  # -h and -i in one text
def test_argv_read_as_the_reference_parser_reads_it(argv):
    _assert_read_as_reference(argv)


@settings(max_examples=200, deadline=None)
@given(_exact_argvs())
def test_exact_flag_argv_is_read_without_argparse(argv):
    args = cli._read(argv)
    assert args is not None and vars(args) == vars(_REFERENCE.parse_args(argv))


@pytest.mark.parametrize("argv, prog, flag", [
    (["verify", "--k=--"], "rainbowcycles verify", "--k"),
    (["solve", "--k=--"], "rainbowcycles solve", "--k"),
    (["colour", "--k=--", "wheel"], "rainbowcycles colour", "--k"),
    (["verify", "--k", "2", "--budget=--"], "rainbowcycles verify", "--budget"),
    (["--input=--", "gen", "cycle", "n=4"], "rainbowcycles", "-i/--input"),
])
def test_option_value_read_as_a_list_is_refused(argv, prog, flag, capsys):
    # argparse reads "--k=--" as [], which no command can take
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert not out and lines[0].startswith(f"usage: {prog} [-h]")
    assert lines[-1] == f"{prog}: error: argument {flag}: expected one argument"


class TestCachedParser:
    """main reads an exact-flag argv with cli._read and every other argv
    (help, refusals, prefixes, "--", ...) with argparse parsers built from
    the same tables; no option of one call may reach a later one."""

    def test_command_is_looked_up_per_call(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "wheel", "n=5"], "", monkeypatch, capsys)
        _, doc_text, _ = run_cli(["colour", "wheel", "--k", "2"], doc_text, monkeypatch, capsys)
        assert run_cli(["verify", "--k", "2"], doc_text, monkeypatch, capsys)[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.k) or 7)
        assert run_cli(["verify", "--k", "2"], doc_text, monkeypatch, capsys)[0] == 7
        assert seen == [2]

    def test_seed_does_not_stick(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "complete", "n=6"], "", monkeypatch, capsys)
        argv = ["colour", "complete-random", "--k", "3", "--attempts", "2000"]
        code, _, _ = run_cli(argv + ["--seed", "3"], doc_text, monkeypatch, capsys)
        assert code == 0
        code, out, err = run_cli(argv, doc_text, monkeypatch, capsys)
        assert code == 2 and not out
        assert "require an explicit --seed" in err

    def test_output_file_does_not_stick(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(["-o", str(target), "gen", "cycle", "n=5"], "",
                               monkeypatch, capsys)
        assert code == 0 and not out
        written = target.read_text()
        target.unlink()
        code, out, _ = run_cli(["gen", "cycle", "n=5"], "", monkeypatch, capsys)
        assert code == 0 and out == written
        assert not target.exists()

    def test_usage_error_then_valid_call(self, monkeypatch, capsys):
        _, expected, _ = run_cli(["gen", "cycle", "n=5"], "", monkeypatch, capsys)
        for argv in (["verify"], ["gen", "no-such-family"], ["--no-such-option"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: rainbowcycles")
        code, out, _ = run_cli(["gen", "cycle", "n=5"], "", monkeypatch, capsys)
        assert (code, out) == (0, expected)

    def test_help_then_valid_call(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: rainbowcycles [-h] [-i INPUT] [-o OUTPUT]")
        text = " ".join(out.split())
        for name, table in cli._COMMANDS.items():
            assert f" {name} {table.help} " in text
        code, out, _ = run_cli(["gen", "cycle", "n=5"], "", monkeypatch, capsys)
        assert code == 0 and json.loads(out)["n"] == 5

    @pytest.mark.parametrize("command", list(_SUBPARSERS))
    def test_command_help_names_every_option(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: rainbowcycles {command} [-h]")
        # argparse wraps the help, so it is read with whitespace normalised
        text = " ".join(out.split())
        for action in _SUBPARSERS[command]._actions:
            if not action.option_strings or action.dest == "help":
                continue
            flag = max(action.option_strings, key=len)
            row = cli._COMMANDS[command].flags[flag]
            shown = " ".join(row.help.split())
            # the flag, maybe its metavar, then its help
            assert row.help and re.search(rf" {flag}( \S+)? {re.escape(shown)}", text)
            if action.help:
                assert " ".join(action.help.split()) in shown

    def test_parse_matches_a_fresh_parser(self, monkeypatch, capsys):
        # after a call before it, main reads each argv as the reference
        # parser does
        run_cli(["gen", "cycle", "n=4"], "", monkeypatch, capsys)
        for argv in (["verify", "--k", "2"],
                     ["-i", "doc.json", "verify", "--k", "3", "--index", "rx", "--budget", "9"],
                     ["colour", "cube-recursive", "--k", "2", "--block", "3", "--no-verify"],
                     ["colour", "wheel", "--k", "2"],
                     ["solve", "--k", "2", "--mode", "interval", "--seed", "4"],
                     ["solve", "--k", "2"],
                     ["gen", "complete-multipartite", "sizes=1,2"],
                     ["gen", "petersen"]):
            assert vars(_main_args(argv)) == vars(_REFERENCE.parse_args(argv))


def _readme_pipelines():
    """The pipelines of README's CLI section, each a list of argv lists, one
    per stage; a stage's output redirect is dropped."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    pipelines = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            stages = [shlex.split(stage.split(">")[0]) for stage in line.split("|")]
            assert all(argv[0] == "rainbowcycles" for argv in stages), line
            pipelines.append([argv[1:] for argv in stages])
    return pipelines


def test_readme_pipelines_exit_0(monkeypatch, capsys):
    pipelines = _readme_pipelines()
    assert ["export-dot"] in (stages[-1] for stages in pipelines)
    for stages in pipelines:
        text = ""
        for argv in stages:
            code, text, err = run_cli(argv, text, monkeypatch, capsys)
            assert code == 0, (argv, err)
        if stages[-1] == ["export-dot"]:
            assert text.startswith("graph G {")


def test_cli_import_does_not_load_multiprocessing():
    # verification runs in one process
    assert not loaded_by_cli_import("multiprocessing")


def test_cli_import_does_not_load_argparse():
    # main reads its arguments from the option tables in cli
    assert not loaded_by_cli_import("argparse")


# each form of argv the benchmark's workloads send
_BENCH_ARGVS = [
    ["gen", "wheel", "n=9"],
    ["gen", "complete-bipartite", "m=2", "n=5"],
    ["gen", "complete-multipartite", "sizes=2,2,2"],
    ["colour", "wheel", "--k", "2"],
    ["colour", "complete-random", "--k", "3", "--seed", "17", "--attempts", "200"],
    ["verify", "--k", "2"],
    ["verify", "--k", "2", "--workers", "2"],
    ["solve", "--k", "2"],
    ["solve", "--k", "2", "--index", "rx"],
    ["solve", "--k", "3", "--mode", "interval"],
]


def _served_argvs():
    return [argv for stages in _readme_pipelines() for argv in stages] + _BENCH_ARGVS


def test_served_argv_take_the_exact_flag_reader():
    for argv in _served_argvs():
        args = cli._read(argv)
        assert args is not None and vars(args) == vars(_REFERENCE.parse_args(argv)), argv


def test_served_argv_do_not_load_argparse():
    # every cmd_* is stubbed, so main only reads each argv
    then = ("cli = rainbowcycles.cli\n"
            "for name in [n for n in vars(cli) if n.startswith('cmd_')]:\n"
            "    setattr(cli, name, lambda args: 0)\n"
            f"for argv in {_served_argvs()!r}:\n"
            "    assert cli.main(argv) == 0")
    assert not loaded_by_cli_import("argparse", then)


# the reports of README's pipelines, in order, as they decode
_README_REPORTS = [
    {"command": "verify", "index": "crx", "k": 2, "status": "certified", "bad_set": None,
     "subsets_checked": 15, "subsets_searched": 0, "search_nodes": 0,
     "cuts": {"closing": 0, "sides": 0, "short": 0}, "colours": 5},
    {"command": "verify", "index": "crx", "k": 3, "status": "certified", "bad_set": None,
     "subsets_checked": 4960, "subsets_searched": 0, "search_nodes": 0,
     "cuts": {"closing": 0, "sides": 0, "short": 0}, "colours": 10},
    {"command": "solve", "index": "crx", "k": 1, "mode": "exact",
     "result": {"kind": "exact", "lower": 5, "upper": 5, "value": 5,
                "evidence": [{"kind": "distance_bound",
                              "payload": {"length": 5, "mode": "exhaustive", "subset": [0]}}],
                "witness": {"colours": [0, 1, 2, 3, 4], "r": 5}},
     "search_nodes": 25, "cuts": {"closing": 0, "sides": 0, "short": 0, "length": 7}},
    {"command": "analyze", "n": 10, "e": 15, "blocks": [list(range(15))], "cut_vertices": [],
     "is_2_connected": True, "is_minimally_2_connected": False, "in_F1": True,
     "in_F2": True, "girth": 5, "circumference": 9, "is_hamiltonian": False,
     "is_hypohamiltonian": True},
    {"command": "verify", "index": "crx", "k": 3, "status": "certified", "bad_set": None,
     "subsets_checked": 56, "subsets_searched": 0, "search_nodes": 0,
     "cuts": {"closing": 0, "sides": 0, "short": 0}, "colours": 5},
    {"command": "verify", "index": "rx", "k": 2, "status": "certified", "bad_set": None,
     "subsets_checked": 21, "subsets_searched": 0, "search_nodes": 0,
     "cuts": {"closing": 0, "sides": 0, "short": 0}, "colours": 3},
    {"command": "solve", "index": "crx", "k": 2, "mode": "interval",
     "result": {"kind": "interval", "lower": 6, "upper": 7,
                "evidence": [{"kind": "distance_bound",
                              "payload": {"length": 6, "mode": "exhaustive", "subset": [0, 4]}}],
                "witness": {"colours": [0, 3, 5, 1, 5, 2, 5, 3, 5, 4, 5, 0, 6, 1, 6, 2, 6, 6],
                            "r": 7}},
     "search_nodes": 128, "cuts": {"closing": 0, "sides": 4, "short": 8, "incumbent": 0}},
]


def test_readme_reports_are_one_line(monkeypatch, capsys):
    reports = []
    for stages in _readme_pipelines():
        text = ""
        for argv in stages:
            text = run_cli(argv, text, monkeypatch, capsys)[1]
        if stages[-1][0] in ("verify", "solve", "analyze"):
            assert text.count("\n") == 1 and text.endswith("\n"), stages[-1]
            reports.append(json.loads(text))
    assert reports == _README_REPORTS
