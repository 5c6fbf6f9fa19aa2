"""Command-line surface: gen | colour | verify | solve | analyze | export-dot.

Documents flow through stdin/stdout as JSON, so commands compose into
pipelines. Exit codes: 0 certified/solved, 1 counterexample found,
2 budget exhausted or regime unsupported (or a schema error).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import constructions as cons
from . import generators as gen
from . import graph as gr
from . import solver
from .document import GraphDocument, document_from_graph, emit, export_dot, is_ints, parse
from .errors import BudgetExceeded, ConstructionRejected, InvalidParameter, RainbowError
from .search import verify_k_rainbow_cycle_colouring, verify_k_rainbow_index_colouring

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_UNSUPPORTED = 2

_FAMILIES = {
    "cycle": (gen.cycle, ("n",)),
    "complete": (gen.complete, ("n",)),
    "complete-bipartite": (gen.complete_bipartite, ("m", "n")),
    "wheel": (gen.wheel, ("n",)),
    "hypercube": (gen.hypercube, ("n",)),
    "petersen": (gen.petersen, ()),
    "path-cycle-join": (gen.path_cycle_join, ("k", "t")),
    "complete-multipartite": (gen.complete_multipartite, ("sizes",)),
}


def _parse_params(pairs):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise InvalidParameter(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        if key in out:
            raise InvalidParameter(f"parameter {key!r} given twice")
        try:
            if key == "sizes":
                out[key] = tuple(int(x) for x in value.split(","))
            else:
                out[key] = int(value)
        except ValueError:
            raise InvalidParameter(f"expected integer values, got {item!r}") from None
    return out


def _read_doc(args) -> GraphDocument:
    if args.input and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    return parse(sys.stdin.read())


def _write(args, text: str):
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, payload: dict):
    _write(args, json.dumps(payload) + "\n")


def cmd_gen(args) -> int:
    params = _parse_params(args.params)
    fn, names = _FAMILIES[args.family]
    if sorted(params) != sorted(names):
        raise InvalidParameter(f"{args.family} takes exactly the parameters {names}, "
                               f"got {tuple(params)}")
    g = fn(*(params[p] for p in names))
    meta = {"family": args.family, "params": {p: params[p] for p in names}}
    _write(args, emit(document_from_graph(g, metadata=meta)))
    return EXIT_OK


def _expect_family(doc: GraphDocument, family: str) -> dict:
    """The params of a document made by 'gen family', as gen writes them:
    an int for each parameter of the family, or sizes, a list of ints."""
    p = doc.metadata.get("params")
    ok = doc.metadata.get("family") == family and isinstance(p, dict)
    if ok and family == "complete-multipartite":
        ok = isinstance(p.get("sizes"), list) and is_ints(p["sizes"])
    elif ok:
        ok = is_ints(p.get(name) for name in _FAMILIES[family][1])
    if not ok:
        raise InvalidParameter(
            f"construction expects a document generated by 'gen {family}' "
            f"(found metadata family {doc.metadata.get('family')!r}, params {p!r})"
        )
    return p


def cmd_colour(args) -> int:
    doc = _read_doc(args)
    g = doc.graph
    verify = not args.no_verify
    b = gr.Budget(args.budget)  # refuses a negative --budget, verified or not
    name = args.construction
    if name == "wheel":
        p = _expect_family(doc, "wheel")
        c = cons.colour_wheel(p["n"], args.k, verify=verify, budget=b)
    elif name == "complete-2rainbow":
        p = _expect_family(doc, "complete")
        _certified_up_to(args, 2)
        c = cons.colour_complete_2rainbow(p["n"], verify=verify, budget=b)
    elif name == "complete-random":
        p = _expect_family(doc, "complete")
        _sampler_args(args)
        c = cons.colour_complete_random(p["n"], args.k, args.seed, args.attempts,
                                        budget=b)
    elif name == "bipartite":
        p = _expect_family(doc, "complete-bipartite")
        c = cons.colour_bipartite(p["m"], p["n"], args.k, regime=args.regime,
                                  verify=verify, budget=b)
    elif name == "multipartite-blowup":
        p = _expect_family(doc, "complete-multipartite")
        _certified_up_to(args, 1)
        c = cons.colour_multipartite_blowup(tuple(p["sizes"]), verify=verify,
                                            budget=b)
    elif name == "multipartite-random":
        p = _expect_family(doc, "complete-multipartite")
        _sampler_args(args)
        sizes = tuple(p["sizes"])
        if len(set(sizes)) != 1:
            raise InvalidParameter("multipartite-random needs balanced classes")
        c = cons.colour_balanced_multipartite_random(
            len(sizes), sizes[0], args.k, args.seed, args.attempts, budget=b
        )
    elif name == "cube":
        p = _expect_family(doc, "hypercube")
        c = cons.colour_cube(p["n"], args.k, verify=verify, budget=b)
    elif name == "cube-recursive":
        p = _expect_family(doc, "hypercube")
        if args.block is None:
            raise InvalidParameter("cube-recursive needs --block K")
        c = cons.colour_cube_recursive(p["n"], args.k, args.block)
    elif name == "save-one-crx1":
        _certified_up_to(args, 1)
        c = cons.colour_save_one_crx1(g, verify=verify, budget=b)
    elif name == "save-one-crx2":
        _certified_up_to(args, 2)
        c = cons.colour_save_one_crx2(g, verify=verify, budget=b)
    elif name == "join-rxk":
        p = _expect_family(doc, "path-cycle-join")
        _certified_up_to(args, p["k"])
        c = cons.colour_join_rxk(p["k"], p["t"], verify=verify, budget=b)
    else:
        raise InvalidParameter(f"unknown construction {name!r}")
    if c.graph != g:
        raise InvalidParameter("document graph does not match the construction's graph")
    meta = dict(doc.metadata)
    meta["construction"] = {"name": name, "k": args.k}
    if args.seed is not None:
        meta["construction"]["seed"] = args.seed
    _write(args, emit(GraphDocument(c.graph, c, meta)))
    return EXIT_OK


def _certified_up_to(args, top: int):
    """Refuse a --k outside 1..top, top being the k the construction certifies."""
    if not 1 <= args.k <= top:
        raise InvalidParameter(f"{args.construction} certifies 1 <= k <= {top}, not --k {args.k}")


def _sampler_args(args):
    """A sampler needs a seed, and keeps only a sample that its own
    verification certified, so it cannot skip verification."""
    if args.seed is None:
        raise InvalidParameter("randomised constructions require an explicit --seed")
    if args.no_verify:
        raise InvalidParameter(f"{args.construction} keeps only a verified sample; "
                               "it takes no --no-verify")


def cmd_verify(args) -> int:
    c = _read_doc(args).colouring
    if c is None:
        raise InvalidParameter("document carries no colouring to verify")
    b = gr.Budget(args.budget)
    if args.index == "crx":
        report = verify_k_rainbow_cycle_colouring(c, args.k, budget=b)
    else:
        report = verify_k_rainbow_index_colouring(c, args.k, budget=b)
    _report(args, {
        "command": "verify",
        "index": args.index,
        "k": args.k,
        "status": report.status,
        "bad_set": report.bad_set,
        "subsets_checked": report.subsets_checked,
        "subsets_searched": report.subsets_searched,
        "search_nodes": report.search_nodes,
        "cuts": b.cuts,
        "colours": c.r,
    })
    return EXIT_OK if report.certified else EXIT_COUNTEREXAMPLE


def _result_payload(res: solver.CrxResult) -> dict:
    payload = {
        "kind": res.kind,
        "lower": res.lower,
        "upper": res.upper,
        "evidence": [{"kind": c.kind, "payload": c.payload} for c in res.evidence],
    }
    if res.kind == "exact":
        payload["value"] = res.lower
    if res.witness is not None:
        payload["witness"] = {"colours": list(res.witness.colour_of), "r": res.witness.r}
    return payload


def cmd_solve(args) -> int:
    g = _read_doc(args).graph
    if args.mode == "exact":
        fn = solver.rx_exact if args.index == "rx" else solver.crx_exact
        b = gr.Budget.of(args.budget, solver.DEFAULT_EXACT_BUDGET)
        res = fn(g, args.k, budget=b)
    else:
        if args.index == "rx":
            raise InvalidParameter("interval mode is available for crx only")
        b = gr.Budget(args.budget)
        res = solver.crx_interval(g, args.k, budget=b, seed=args.seed or 0)
    _report(args, {"command": "solve", "index": args.index, "k": args.k,
                   "mode": args.mode, "result": _result_payload(res),
                   "search_nodes": b.used, "cuts": b.cuts})
    if args.mode == "exact" and res.kind != "exact":
        return EXIT_UNSUPPORTED  # budget ran out; interval carries the bounds
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = _read_doc(args).graph
    b = gr.Budget(args.budget)  # one budget for every search below
    dec = gr.block_decomposition(g)
    payload = {
        "command": "analyze",
        "n": g.n,
        "e": g.e,
        "blocks": [sorted(blk.edge_ids) for blk in dec.blocks],
        "cut_vertices": sorted(dec.cut_vertices),
        "is_2_connected": gr.is_k_connected(g, 2),
        "is_minimally_2_connected": gr.is_minimally_2_connected(g),
        "in_F1": gr.in_family_Fk(g, 1),
        "in_F2": gr.in_family_Fk(g, 2),
    }
    try:
        inv = gr.graph_invariants(g, budget=b)
        payload.update(girth=inv.girth, circumference=inv.circumference,
                       is_hamiltonian=inv.is_hamiltonian)
        if 3 <= g.n <= 32:
            # G's Hamilton search has run already, for the circumference
            payload["is_hypohamiltonian"] = (not inv.is_hamiltonian
                                             and gr._vertex_deleted_hamiltonian(g, b))
    except BudgetExceeded as exc:
        payload["budget_exhausted"] = True
        if exc.partial:
            payload.update(exc.partial)
    _report(args, payload)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    _write(args, export_dot(_read_doc(args)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowcycles",
        description="Construct, verify and exactly solve k-rainbow cycle colourings.",
    )
    parser.add_argument("--input", "-i", default="-", help="input document (default stdin)")
    parser.add_argument("--output", "-o", default="-", help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named graph family")
    p.add_argument("family", choices=sorted(_FAMILIES))
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


_PARSER = None  # build_parser(), made by the first call of main and reused


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    # looked up at each call, so a cmd_* replaced after the parser was built runs
    fn = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return fn(args)
    except ConstructionRejected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except (RainbowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
