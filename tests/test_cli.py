import io
import json

import pytest

from conftest import loaded_by_cli_import
from rainbowcycles import constructions as cons
from rainbowcycles import generators as gen
from rainbowcycles.cli import main
from rainbowcycles.colouring import EdgeColouring, rainbow_colouring
from rainbowcycles.document import document_from_graph, emit, export_dot, parse
from rainbowcycles.errors import InvalidParameter
from rainbowcycles.graph import Graph


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
        assert back.colouring().colour_of == c.colour_of

    def test_foreign_edge_order_is_remapped(self):
        # document lists edges out of canonical order; colours follow the edges
        text = json.dumps({
            "format_version": 1,
            "n": 3,
            "edges": [[1, 2], [0, 1], [0, 2]],
            "colouring": {"colours": [5, 6, 7], "r": 8},
        })
        doc = parse(text)
        assert doc.edges == ((0, 1), (0, 2), (1, 2))
        g = doc.graph()
        c = doc.colouring()
        assert c.colour_of[g.edge_id(1, 2)] == 5
        assert c.colour_of[g.edge_id(0, 1)] == 6
        assert c.colour_of[g.edge_id(0, 2)] == 7

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

    def test_export_dot_mentions_colours(self):
        g = gen.cycle(3)
        c = EdgeColouring(g, (0, 1, 2), 3)
        dot = export_dot(document_from_graph(g, c))
        assert dot.startswith("graph G {")
        assert 'label="2"' in dot


class TestPipelines:
    def test_gen_colour_verify_certified(self, monkeypatch, capsys):
        code, doc_text, _ = run_cli(["gen", "wheel", "n=5"], "", monkeypatch, capsys)
        assert code == 0
        code, coloured, _ = run_cli(
            ["colour", "wheel", "--k", "2"], doc_text, monkeypatch, capsys)
        assert code == 0
        payload = json.loads(coloured)
        assert payload["colouring"]["r"] == 5
        code, report, _ = run_cli(["verify", "--k", "2"], coloured, monkeypatch, capsys)
        assert code == 0
        rep = json.loads(report)
        assert rep["status"] == "certified" and rep["colours"] == 5
        # the first three witnesses hold all 15 pairs of W_5
        assert (rep["subsets_checked"], rep["subsets_searched"]) == (15, 3)

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

    def test_analyze_petersen(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "petersen"], "", monkeypatch, capsys)
        code, report, _ = run_cli(["analyze"], doc_text, monkeypatch, capsys)
        assert code == 0
        rep = json.loads(report)
        assert rep["e"] == 15
        assert rep["is_hypohamiltonian"] is True
        assert rep["girth"] == 5

    def test_verify_counterexample_exit_1(self, monkeypatch, capsys):
        g = gen.wheel(4)
        c = EdgeColouring(g, (0,) * (g.e - 1) + (1,), 2)
        doc_text = emit(document_from_graph(g, c))
        code, report, _ = run_cli(["verify", "--k", "2"], doc_text, monkeypatch, capsys)
        assert code == 1
        assert json.loads(report)["status"] == "counterexample"

    @pytest.mark.parametrize("colouring, code", [
        (lambda g: EdgeColouring(g, tuple(i % 3 for i in range(g.e)), 3), 1),
        (lambda g: cons.colour_wheel(6, 2, verify=False), 0),
    ], ids=["w6-counterexample", "w6-certified"])
    def test_verify_workers_flag_changes_nothing(self, colouring, code, monkeypatch, capsys):
        g = gen.wheel(6)
        doc_text = emit(document_from_graph(g, colouring(g)))
        one = run_cli(["verify", "--k", "2"], doc_text, monkeypatch, capsys)
        two = run_cli(["verify", "--k", "2", "--workers", "2"], doc_text, monkeypatch, capsys)
        assert one[0] == code
        assert one[:2] == two[:2]

    def test_unsupported_regime_exit_2(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(
            ["gen", "complete-bipartite", "m=4", "n=10"], "", monkeypatch, capsys)
        code, _, err = run_cli(
            ["colour", "bipartite", "--k", "3"], doc_text, monkeypatch, capsys)
        assert code == 2
        assert "error" in err

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

    def test_wrong_family_metadata_rejected(self, monkeypatch, capsys):
        _, doc_text, _ = run_cli(["gen", "cycle", "n=5"], "", monkeypatch, capsys)
        code, _, err = run_cli(
            ["colour", "wheel", "--k", "1"], doc_text, monkeypatch, capsys)
        assert code == 2 and "wheel" in err


def test_cli_import_does_not_load_multiprocessing():
    # verification runs in one process
    assert not loaded_by_cli_import("multiprocessing")
