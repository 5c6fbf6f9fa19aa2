"""Command-line surface: gen | colour | verify | solve | analyze | export-dot.

Documents flow through stdin/stdout as JSON, so commands compose into
pipelines. Exit codes: 0 certified/solved, 1 counterexample found,
2 budget exhausted or regime unsupported (or a schema error).

Arguments are read from one table per command (``_COMMANDS``, under
``_TOP`` for -i/-o): its positionals and each option's flags, dest,
converter or choices, default, required flag and help. ``main`` reads an
argv with them in one pass and builds no parser, so repeated in-process
calls pay only for the reading. Every argv is read as argparse read it:
``--opt value`` and ``--opt=value``, ``-ovalue``, a unique prefix of a long
flag (looked up only when the exact flag misses), negative numbers as
values, the last of repeated options, and "--" before positional texts. An
argv argparse refused exits 2 with a ``usage:`` and an ``error:`` line on
stderr; -h/--help prints the usage and option list and exits 0.
"""

from __future__ import annotations

import json
import re
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
    that takes no text and stores True. ``nargs`` is "1", "*" (the texts up
    to the next option) or "..." (a command's name and every text after it,
    which that command's table reads)."""

    __slots__ = ("flags", "dest", "convert", "choices", "default", "required", "help", "nargs")

    def __init__(self, flags: tuple, dest: str, convert=str, choices=None, default=None,
                 required=False, help="", nargs="1"):
        self.flags, self.dest, self.convert, self.choices = flags, dest, convert, choices
        self.default, self.required, self.help, self.nargs = default, required, help, nargs


_HELP = _Arg(("-h", "--help"), "help", None, help="show this help message and exit")

# the texts each kind of positional takes, as a pattern over the kinds of the
# texts from where it starts: A a positional text, O an option, - the "--"
# after which every text is positional
_NARGS = {"1": "(-*A-*)", "*": "(-*[A-]*)", "...": "(-*A[-AO]*)"}


class _Table:
    """A command's rows and the lookups built from them once: ``flags`` maps
    each flag, -h and --help included, to its row; ``prefixes`` maps each
    proper prefix of a long flag to (row, flag), or to None where it starts
    more than one long flag; ``patterns[r]`` matches the last r positionals,
    then fewer of them, as argparse tried them."""

    def __init__(self, prog: str, help: str, *args: _Arg):
        self.prog, self.help, self.args = prog, help, args
        self.defaults = {row.dest: row.default for row in args}
        self.required = tuple(row for row in args if row.required)
        self.positionals = tuple(row for row in args if not row.flags)
        self.flags, self.prefixes = {}, {}
        for row in (_HELP,) + args:
            for flag in row.flags:
                self.flags[flag] = row
                if flag.startswith("--"):
                    for end in range(2, len(flag)):
                        prefix = flag[:end]
                        self.prefixes[prefix] = None if prefix in self.prefixes else (row, flag)
        self.patterns = {
            r: [re.compile("".join(_NARGS[row.nargs] for row in self.positionals[-r:][:m]))
                for m in range(r, 0, -1)]
            for r in range(1, len(self.positionals) + 1)
        }


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
    _Arg((), "command", choices=_COMMANDS, nargs="..."),
)
# a negative number is a positional text, since no flag looks like one
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Refused(Exception):
    """An argv that a table refuses; main prints it under that table's
    usage and exits 2."""

    def __init__(self, table: _Table, message: str):
        super().__init__(message)
        self.table = table


def _name(row: _Arg) -> str:
    return "/".join(row.flags) or row.dest


def _metavar(row: _Arg) -> str:
    if row.choices is not None:
        return "{" + ",".join(row.choices) + "}"
    return row.dest.upper() if row.flags else row.dest


def _usage(table: _Table) -> str:
    words = [table.prog]
    for row in (_HELP,) + table.args:
        shown = _metavar(row)
        if row.flags:
            shown = row.flags[0] if row.convert is None else f"{row.flags[0]} {shown}"
            words.append(shown if row.required else f"[{shown}]")
        else:
            words.append({"1": shown, "*": f"[{shown} ...]", "...": f"{shown} ..."}[row.nargs])
    return "usage: " + " ".join(words) + "\n"


def _help(table: _Table) -> str:
    """The usage, then one line per positional (per command, for the
    command) and per option with its help text."""
    positionals, options = [], []
    for row in (_HELP,) + table.args:
        if row.flags:
            shown = ", ".join(row.flags)
            options.append((shown if row.convert is None else f"{shown} {_metavar(row)}",
                            row.help))
        elif row.nargs == "...":
            positionals += [(name, sub.help) for name, sub in row.choices.items()]
        else:
            shown = f" ({', '.join(row.choices)})" if row.choices else ""
            positionals.append((row.dest, row.help + shown))
    width = max(len(left) for left, _ in positionals + options) + 2
    text = _usage(table) + f"\n{table.help}\n"
    for title, lines in (("positional arguments", positionals), ("options", options)):
        if lines:
            text += f"\n{title}:\n" + "".join(f"  {left:{width}}{right}".rstrip() + "\n"
                                                for left, right in lines)
    return text


def _classify(table: _Table, text: str):
    """How ``table`` reads ``text``, as argparse did: None for a positional
    text, else (row, flag, the text attached to the flag or None), with row
    None for an option the table does not have."""
    if not text or text[0] != "-":
        return None
    row = table.flags.get(text)
    if row is not None:
        return row, text, None
    if len(text) == 1:
        return None
    head, eq, attached = text.partition("=")
    if eq and head in table.flags:
        return table.flags[head], head, attached
    if text[1] == "-":
        if head in table.prefixes:
            hit = table.prefixes[head]
            if hit is None:
                matches = ", ".join(f for f in table.flags if f.startswith(head))
                raise _Refused(table, f"ambiguous option: {text} could match {matches}")
            return hit[0], hit[1], attached if eq else None
    elif text[:2] in table.flags:
        # a short flag with its text attached: -ifile
        return table.flags[text[:2]], text[:2], text[2:]
    elif _NEGATIVE.match(text):
        return None
    return None if " " in text else (None, text, None)


def _convert(table: _Table, row: _Arg, text: str):
    try:
        value = row.convert(text)
    except ValueError:
        raise _Refused(table, f"argument {_name(row)}: invalid "
                              f"{row.convert.__name__} value: {text!r}") from None
    if row.choices is not None and value not in row.choices:
        raise _Refused(table, f"argument {_name(row)}: invalid choice: {value!r} "
                              f"(choose from {', '.join(map(repr, row.choices))})")
    return value


def _value(table: _Table, row: _Arg, texts: list):
    """The value of ``row`` from its texts, the first "--" among them
    dropped: one value, or a list when the row takes many texts or when no
    text is left."""
    if "--" in texts:
        texts.remove("--")
    if len(texts) == 1 and row.nargs == "1":
        return _convert(table, row, texts[0])
    return [_convert(table, row, text) for text in texts]


def _read(table: _Table, argv: list, ns: dict) -> list:
    """Read argv into ns with ``table`` as argparse did, a command's texts
    with its own table. Return the texts no row took; raise _Refused for an
    argv argparse refused. -h or --help prints the table's help and exits 0
    once the reading reaches it."""
    ns.update(table.defaults)
    n = len(argv)
    cut = argv.index("--") if "--" in argv else n
    kinds = [_classify(table, text) for text in argv[:cut]]
    pending, pattern = table.positionals, None
    seen, extra, i = set(), [], 0
    while i < n:
        kind = kinds[i] if i < cut else None
        if kind is None:
            match = None
            if pending:
                # as many of the pending positionals as the texts from here fit
                if pattern is None:
                    pattern = "".join(["A" if k is None else "O" for k in kinds])
                    if cut < n:
                        pattern += "-" + "A" * (n - cut - 1)
                for regex in table.patterns[len(pending)]:
                    match = regex.match(pattern, i)
                    if match:
                        break
            if match:
                groups = match.groups()
                for row, group in zip(pending, groups):
                    texts = argv[i:i + len(group)]
                    i += len(group)
                    if row.nargs == "...":
                        command = _convert(table, row, texts[0])
                        ns[row.dest] = command
                        extra += _read(row.choices[command], texts[1:], ns)
                    else:
                        ns[row.dest] = _value(table, row, texts)
                pending = pending[len(groups):]
                continue
            j = next((j for j in range(i, cut) if kinds[j] is not None), n)
            extra += argv[i:j]
            i = j
            continue
        row, flag, attached = kind
        if row is None:
            extra.append(argv[i])
            i += 1
            continue
        taken = []
        while True:
            if attached is None:
                if row.convert is None:
                    taken.append((row, None))
                    i += 1
                elif i + 1 < cut and kinds[i + 1] is None:
                    taken.append((row, argv[i + 1]))
                    i += 2
                else:
                    raise _Refused(table, f"argument {_name(row)}: expected one argument")
                break
            if row.convert is not None:
                taken.append((row, attached))
                i += 1
                break
            # a flag that takes no text, with more attached: -hi is -h -i
            if flag[1] == "-" or not attached or "-" + attached[0] not in table.flags:
                raise _Refused(table, f"argument {_name(row)}: ignored explicit argument "
                                      f"{attached!r}")
            taken.append((row, None))
            flag, attached = "-" + attached[0], attached[1:] or None
            row = table.flags[flag]
        for row, text in taken:
            seen.add(row)
            if row is _HELP:
                sys.stdout.write(_help(table))
                raise SystemExit(0)
            ns[row.dest] = True if row.convert is None else _value(table, row, [text])
    if pending or not seen.issuperset(table.required):
        missing = [_name(row) for row in table.args
                   if row in pending or (row.required and row not in seen)]
        raise _Refused(table, "the following arguments are required: " + ", ".join(missing))
    return extra


def main(argv=None) -> int:
    ns = {}
    try:
        extra = _read(_TOP, sys.argv[1:] if argv is None else list(argv), ns)
        if extra:
            raise _Refused(_TOP, "unrecognized arguments: " + " ".join(extra))
    except _Refused as exc:
        sys.stderr.write(f"{_usage(exc.table)}{exc.table.prog}: error: {exc}\n")
        raise SystemExit(2) from None
    args = SimpleNamespace(**ns)
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
