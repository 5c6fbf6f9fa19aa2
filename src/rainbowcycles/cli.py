"""Command-line surface: gen | colour | verify | solve | analyze | export-dot.

Documents flow through stdin/stdout as JSON, so commands compose into
pipelines. Exit codes: 0 certified/solved, 1 counterexample found,
2 budget exhausted or regime unsupported (or a schema error).

Arguments are read from one table per command (``_COMMANDS``, under
``_TOP`` for -i/-o): its positionals and each option's flags, dest,
converter or choices, default, required flag and help. ``main`` reads an
argv in one of two ways. ``_read`` takes an argv made of a command name,
exact flags of its table (``--k 2`` or ``--k=2``) and positional texts, no
value or positional starting with "-": every README pipeline stage, and
on these argv argparse reads each text as written. Every other argv goes
to an argparse parser built from the same tables on first need: -h/--help,
refusals (exit 2 with a ``usage:`` and an ``error:`` line on stderr), a
unique prefix of a long flag, ``-ovalue``, "--", negative values. It also
refuses an option value read as a list (``--k=--``).
"""

from __future__ import annotations

import functools
import json
import sys
from types import SimpleNamespace

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


class _Arg:
    """One row of a command's table: an option when it has flags, else a
    positional. ``convert`` turns a text into the value, None marking a flag
    that takes no text and stores True. ``nargs`` is None for one text, or
    "*" for a positional that takes every positional text left."""

    __slots__ = ("flags", "dest", "convert", "choices", "default", "required", "help", "nargs")

    def __init__(self, flags: tuple, dest: str, convert=str, choices=None, default=None,
                 required=False, help="", nargs=None):
        self.flags, self.dest, self.convert, self.choices = flags, dest, convert, choices
        self.default, self.required, self.help, self.nargs = default, required, help, nargs


class _Table:
    """A command's rows and the lookups built from them once: ``flags``
    maps each flag to its row (-h and --help are argparse's own)."""

    def __init__(self, prog: str, help: str, *args: _Arg):
        self.prog, self.help, self.args = prog, help, args
        self.defaults = {row.dest: row.default for row in args}
        self.required = tuple(row for row in args if row.required)
        self.positionals = tuple(row for row in args if not row.flags)
        self.flags = {flag: row for row in args for flag in row.flags}


def _opt(flag, dest, convert=int, **kw) -> _Arg:
    return _Arg((flag,), dest, convert, **kw)


_K = _opt("--k", "k", required=True,
         help="every k vertices lie on a rainbow cycle, or on a rainbow tree for --index rx")
_INDEX = _opt("--index", "index", str, choices=("crx", "rx"), default="crx",
              help="crx, rainbow cycles, or rx, rainbow trees (default crx)")
_BUDGET = _opt("--budget", "budget",
               help=f"search nodes at most (default {gr.DEFAULT_BUDGET:,})")

_COMMANDS = {table.prog.split()[1]: table for table in (
    _Table("rainbowcycles gen", "generate a named graph family",
           _Arg((), "family", choices=tuple(sorted(_FAMILIES)), help="the graph family"),
           _Arg((), "params", nargs="*", help="key=value parameters, e.g. n=5 or sizes=1,2,3")),
    _Table("rainbowcycles colour", "apply a named colouring construction",
           _Arg((), "construction", help="the construction's name"),
           _opt("--k", "k", required=True,
                help="the k for which the construction certifies its colouring"),
           _opt("--seed", "seed", help="seed of a randomised construction"),
           _opt("--attempts", "attempts", default=500,
                help="samples a randomised construction draws at most (default 500)"),
           _opt("--regime", "regime", str, default="auto", help="bipartite regime override"),
           _opt("--block", "block", help="K for cube-recursive"),
           _BUDGET,
           _opt("--no-verify", "no_verify", None, default=False,
                help="skip the search that certifies the colouring")),
    _Table("rainbowcycles verify", "verify a coloured document",
           _K, _INDEX, _BUDGET,
           _opt("--workers", "workers", default=1,
                help="accepted and ignored: verification runs in this process")),
    _Table("rainbowcycles solve", "compute crx/rx exactly or as an interval",
           _K, _INDEX,
           _opt("--mode", "mode", str, choices=("exact", "interval"), default="exact",
                help="an exact value, or bounds from one budget (default exact)"),
           _opt("--budget", "budget",
                help=f"search nodes (default {solver.DEFAULT_EXACT_BUDGET:,} in exact "
                     f"mode, {gr.DEFAULT_BUDGET:,} in interval mode)"),
           _opt("--seed", "seed", help="seed of the interval mode's upper bound (default 0)")),
    _Table("rainbowcycles analyze", "structural report: blocks, girth, F_k, ...",
           _opt("--budget", "budget",
                help=f"search nodes for the whole report (default {gr.DEFAULT_BUDGET:,})")),
    _Table("rainbowcycles export-dot", "emit DOT with display colours"),
)}

_TOP = _Table(
    "rainbowcycles", "Construct, verify and exactly solve k-rainbow cycle colourings.",
    _Arg(("-i", "--input"), "input", default="-", help="input document (default stdin)"),
    _Arg(("-o", "--output"), "output", default="-", help="output file (default stdout)"),
)


def _typed(row: _Arg, text: str):
    """row's value for text; ValueError when the row refuses it."""
    value = row.convert(text)
    if row.choices is not None and value not in row.choices:
        raise ValueError(text)
    return value


def _read(argv: list):
    """The namespace of argv, or None unless each text is a command name,
    an exact flag of the table being read (_TOP's, then the command's) with
    its value after "=" or in the next text, or a positional text; no value
    or positional starts with "-", and nothing is left over or missing.
    argparse reads such an argv text by text as written, so this is its
    namespace; every other argv is argparse's to read."""
    ns, table, texts, seen = dict(_TOP.defaults), _TOP, [], set()
    i = 0
    try:
        while i < len(argv):
            text = argv[i]
            i += 1
            if text[:1] != "-":
                if table is not _TOP:
                    texts.append(text)
                elif text in _COMMANDS:
                    table = _COMMANDS[text]
                    ns.update(table.defaults, command=text)
                else:
                    return None
                continue
            flag, eq, value = text.partition("=")
            row = table.flags.get(flag)
            if row is None or (eq and row.convert is None):
                return None
            if row.convert is None:
                ns[row.dest] = True
            else:
                if not eq:
                    if i == len(argv):
                        return None
                    value = argv[i]
                    i += 1
                if value[:1] == "-":
                    return None
                ns[row.dest] = _typed(row, value)
            seen.add(row)
        for row in table.positionals:
            if row.nargs == "*":
                ns[row.dest] = [_typed(row, text) for text in texts]
                texts = []
            elif texts:
                ns[row.dest] = _typed(row, texts.pop(0))
            else:
                return None
    except ValueError:
        return None
    if table is _TOP or texts or not seen.issuperset(table.required):
        return None
    return SimpleNamespace(**ns)


@functools.cache
def _parsers() -> dict:
    """An argparse parser for _TOP and one for each command, keyed by
    table, built from the rows on first need."""
    import argparse

    def add_rows(parser, table):
        for row in table.args:
            if not row.flags:
                parser.add_argument(row.dest, type=row.convert, choices=row.choices,
                                    nargs=row.nargs, help=row.help)
            elif row.convert is None:
                parser.add_argument(*row.flags, dest=row.dest, action="store_true",
                                    help=row.help)
            else:
                parser.add_argument(*row.flags, dest=row.dest, type=row.convert,
                                    choices=row.choices, default=row.default,
                                    required=row.required, help=row.help)
        return parser

    top = add_rows(argparse.ArgumentParser(prog=_TOP.prog, description=_TOP.help), _TOP)
    commands = top.add_subparsers(dest="command", required=True)
    parsers = {_TOP: top}
    for name, table in _COMMANDS.items():
        parsers[table] = add_rows(commands.add_parser(name, prog=table.prog, help=table.help,
                                                      description=table.help), table)
    return parsers


def _argparse_read(argv: list):
    """argv read by argparse, which prints help and refuses what it does
    not read. It reads an option's value "--" (``--k=--``) as the list [],
    which is refused too, under the usage of the option's table."""
    parsers = _parsers()
    args = parsers[_TOP].parse_args(argv)
    for table in (_TOP, _COMMANDS[args.command]):
        for row in table.args:
            if row.nargs is None and isinstance(getattr(args, row.dest), list):
                parsers[table].error(f"argument {'/'.join(row.flags) or row.dest}: "
                                     "expected one argument")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv) or _argparse_read(argv)
    # looked up at each call, so a cmd_* replaced after import runs
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
