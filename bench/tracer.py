"""Outside-in tracer: wraps the program's public functions from the
benchmark's side, records one span per call, and derives per-layer metrics.

Nothing in the program changes. ``Tracer.install`` replaces each public
function of the traced modules with a wrapper, and rebinds every other name
bound to the same function object, which covers the ``from .x import y``
copies in other modules. ``uninstall`` puts the originals back. An untraced
run never installs anything.

A span is (name, parent, request, start, end, nodes, outcome, extra). Self
time is a span's duration minus the time covered by its child spans. Nodes
are the change in the ``Budget`` the call received: when the caller passed
no ``Budget`` object, the wrapper passes one carrying the caller's limit
(``Budget(None)`` is the default limit), which every search converts to
anyway, so no answer or budget-out changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

from rainbowcycles.graph import Budget

MODULES = ("cli", "document", "generators", "constructions", "search", "graph", "solver",
           "colouring")

# Private functions that are layer boundaries of their own.
EXTRA_FUNCTIONS = {"search": ("_verify_parallel",)}

# These hand the caller's raw budget to several callees, each of which then
# counts from zero; passing them one shared Budget would change budget-outs.
FAN_OUT = {"constructions.colour_complete_random",
           "constructions.colour_balanced_multipartite_random",
           "constructions.recursive_cube_walk"}

# Per-call extras kept on the span: (args, result) -> number.
EXTRAS = {
    "search.verify_k_rainbow_cycle_colouring": lambda args, result: result.subsets_checked,
    "document.parse": lambda args, result: len(args[0]),
    "document.emit": lambda args, result: len(result),
}

NAME, PARENT, REQUEST, START, END, NODES, OUTCOME, EXTRA = range(8)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.active = False
        self.request = -1
        self._stack: list = []
        self._patches: list = []  # (namespace dict, name, original)

    # -- installation -----------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"rainbowcycles.{m}") for m in MODULES}
        namespaces = [vars(importlib.import_module("rainbowcycles"))]
        namespaces += [vars(mod) for mod in mods.values()]
        wrapped = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                public = not attr.startswith("_") or attr in EXTRA_FUNCTIONS.get(short, ())
                if (public and inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    wrapped[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for ns in namespaces:
            for attr, value in list(ns.items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patch(ns, attr, wrapped[id(value)][1])
        # cli keeps the generator functions in a table built at import time
        families = vars(mods["cli"])["_FAMILIES"]
        for family, (fn, params) in list(families.items()):
            if id(fn) in wrapped:
                self._patch(families, family, (wrapped[id(fn)][1], params))

    def _patch(self, ns, attr, new):
        self._patches.append((ns, attr, ns[attr]))
        ns[attr] = new

    def uninstall(self):
        while self._patches:
            ns, attr, original = self._patches.pop()
            ns[attr] = original
        self.active = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        params = list(inspect.signature(fn).parameters)
        bpos = params.index("budget") if "budget" in params else None
        substitute = bpos is not None and name not in FAN_OUT
        extra = EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            budget = None
            if bpos is not None:
                positional = len(args) > bpos
                given = args[bpos] if positional else kwargs.get("budget")
                if isinstance(given, Budget):
                    budget = given
                elif substitute:
                    budget = Budget(given)
                    if positional:
                        args = args[:bpos] + (budget,) + args[bpos + 1:]
                    else:
                        kwargs["budget"] = budget
            stack = tracer._stack
            span = [name, stack[-1] if stack else None, tracer.request, 0.0, 0.0, None,
                    "value", None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            before = budget.used if budget is not None else 0
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[OUTCOME] = type(exc).__name__
                raise
            else:
                if result is None:
                    span[OUTCOME] = "none"
                if extra is not None:
                    span[EXTRA] = extra(args, result)
                return result
            finally:
                span[END] = perf_counter()
                stack.pop()
                if budget is not None:
                    span[NODES] = budget.used - before

        return wrapper


# ---------------------------------------------------------------------------
# Per-layer metrics


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] is not None:
            covered[sp[PARENT]] += sp[END] - sp[START]
    return [sp[END] - sp[START] - covered[i] for i, sp in enumerate(spans)]


def outermost(spans, names) -> list:
    """Indices of spans named in ``names`` with no ancestor also in ``names``
    (recursive calls count once). Parents precede children in ``spans``."""
    inside = [False] * len(spans)
    out = []
    for i, sp in enumerate(spans):
        parent_inside = sp[PARENT] is not None and inside[sp[PARENT]]
        mine = sp[NAME] in names
        inside[i] = parent_inside or mine
        if mine and not parent_inside:
            out.append(i)
    return out


GROUPS = {
    "search.verify": {"search.verify_k_rainbow_cycle_colouring"},
    "search.verify_par": {"search._verify_parallel"},
    "search.cycle": {"search.rainbow_cycle_through"},
    "search.walk": {"search.find_subdivided_closed_walk"},
    "search.tree": {"search.rainbow_tree_through"},
    "search.min_cycle": {"search.min_cycle_length_through"},
    "graph.in_family": {"graph.in_family_Fk"},
    "graph.k_connected": {"graph.is_k_connected"},
    "graph.cycles": {"graph.enumerate_simple_cycles"},
    "graph.hamilton": {"graph.find_hamilton_cycle", "graph.enumerate_hamilton_cycles"},
    "solver.crx": {"solver.crx_exact"},
    "solver.rx": {"solver.rx_exact"},
    "solver.interval": {"solver.crx_interval"},
    "colouring.check": {"colouring.check_cycle_witness", "colouring.check_tree_witness",
                        "colouring.check_walk_witness"},
    "constructions.walk": {"constructions.recursive_cube_walk"},
}
VERIFIERS = {"search.verify_k_rainbow_cycle_colouring", "search.verify_k_rainbow_index_colouring"}
RANDOMISED = {"constructions.colour_complete_random",
              "constructions.colour_balanced_multipartite_random"}

# name -> (unit, better); the order is the order of the printed report.
METRICS = {
    "cli.calls": ("count", "lower"), "cli.self_s": ("s", "lower"),
    "document.parse_s": ("s", "lower"), "document.emit_s": ("s", "lower"),
    "document.bytes": ("bytes", "lower"),
    "generators.calls": ("count", "lower"), "generators.s": ("s", "lower"),
    "constructions.calls": ("count", "lower"), "constructions.self_s": ("s", "lower"),
    "constructions.verify_s": ("s", "lower"), "constructions.attempts": ("count", "lower"),
    "constructions.walk.calls": ("count", "lower"), "constructions.walk.s": ("s", "lower"),
    "constructions.walk.base_not_found": ("count", "lower"),
    "search.verify.calls": ("count", "lower"), "search.verify.s": ("s", "lower"),
    "search.verify.subsets": ("count", "lower"), "search.verify.nodes": ("count", "lower"),
    "search.verify_par.calls": ("count", "lower"), "search.verify_par.s": ("s", "lower"),
    "search.cycle.calls": ("count", "lower"), "search.cycle.s": ("s", "lower"),
    "search.cycle.nodes": ("count", "lower"), "search.cycle.found_ratio": ("1", "higher"),
    "search.cycle.absent_nodes": ("count", "lower"),
    "search.walk.calls": ("count", "lower"), "search.walk.s": ("s", "lower"),
    "search.walk.nodes": ("count", "lower"), "search.walk.budget_out": ("count", "lower"),
    "search.walk.wasted_nodes": ("count", "lower"),
    "search.walk.found_ratio": ("1", "higher"),
    "search.tree.calls": ("count", "lower"), "search.tree.s": ("s", "lower"),
    "search.tree.nodes": ("count", "lower"),
    "search.min_cycle.calls": ("count", "lower"), "search.min_cycle.s": ("s", "lower"),
    "search.min_cycle.nodes": ("count", "lower"),
    "graph.in_family.calls": ("count", "lower"), "graph.in_family.s": ("s", "lower"),
    "graph.k_connected.calls": ("count", "lower"), "graph.k_connected.s": ("s", "lower"),
    "graph.cycles.s": ("s", "lower"), "graph.cycles.nodes": ("count", "lower"),
    "graph.hamilton.s": ("s", "lower"), "graph.hamilton.nodes": ("count", "lower"),
    "solver.crx.calls": ("count", "lower"), "solver.crx.self_s": ("s", "lower"),
    "solver.crx.nodes": ("count", "lower"),
    "solver.rx.calls": ("count", "lower"), "solver.rx.self_s": ("s", "lower"),
    "solver.rx.nodes": ("count", "lower"),
    "solver.interval.calls": ("count", "lower"), "solver.interval.self_s": ("s", "lower"),
    "colouring.check.calls": ("count", "lower"), "colouring.check.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# Ratios and the calls metric that is their base.
RATIO_BASE = {"search.cycle.found_ratio": "search.cycle.calls",
              "search.walk.found_ratio": "search.walk.calls"}


def layer_metrics(spans) -> dict:
    """Every metric in METRICS except trace.overhead_s, from one traced run."""
    selfs = self_times(spans)
    module = [sp[NAME].split(".", 1)[0] for sp in spans]
    m = {}

    def entries(mod):
        return [i for i, sp in enumerate(spans) if module[i] == mod
                and (sp[PARENT] is None or module[sp[PARENT]] != mod)]

    def self_sum(pred):
        return sum(selfs[i] for i, sp in enumerate(spans) if pred(i, sp))

    m["cli.calls"] = len(entries("cli"))
    m["cli.self_s"] = self_sum(lambda i, sp: module[i] == "cli")
    m["document.parse_s"] = self_sum(lambda i, sp: sp[NAME] == "document.parse")
    m["document.emit_s"] = self_sum(lambda i, sp: sp[NAME] == "document.emit")
    m["document.bytes"] = sum(sp[EXTRA] for sp in spans
                              if sp[NAME] in ("document.parse", "document.emit")
                              and sp[EXTRA] is not None)
    m["generators.calls"] = len(entries("generators"))
    m["generators.s"] = self_sum(lambda i, sp: module[i] == "generators")
    m["constructions.calls"] = len(entries("constructions"))
    m["constructions.self_s"] = self_sum(lambda i, sp: module[i] == "constructions")
    self_verify = [sp for sp in spans if sp[NAME] in VERIFIERS and sp[PARENT] is not None
                   and module[sp[PARENT]] == "constructions"]
    m["constructions.verify_s"] = sum(sp[END] - sp[START] for sp in self_verify)
    m["constructions.attempts"] = sum(spans[sp[PARENT]][NAME] in RANDOMISED
                                      for sp in self_verify)

    for group, names in GROUPS.items():
        outer = outermost(spans, names)
        mine = [i for i, sp in enumerate(spans) if sp[NAME] in names]
        stats = {
            "calls": len(outer),
            "s": sum(selfs[i] for i in mine),
            "nodes": sum(spans[i][NODES] or 0 for i in outer),
        }
        stats["self_s"] = stats["s"]  # the solver rows name their self time self_s
        for key, value in stats.items():
            if f"{group}.{key}" in METRICS:
                m[f"{group}.{key}"] = value
        if group == "search.cycle":
            m["search.cycle.found_ratio"] = _ratio(
                sum(spans[i][OUTCOME] == "value" for i in outer), len(outer))
            m["search.cycle.absent_nodes"] = sum(spans[i][NODES] or 0 for i in outer
                                                 if spans[i][OUTCOME] == "none")
        elif group == "search.walk":
            out = [i for i in outer if spans[i][OUTCOME] == "BudgetExceeded"]
            m["search.walk.budget_out"] = len(out)
            m["search.walk.wasted_nodes"] = sum(spans[i][NODES] or 0 for i in out)
            m["search.walk.found_ratio"] = _ratio(
                sum(spans[i][OUTCOME] == "value" for i in outer), len(outer))
        elif group == "search.verify":
            m["search.verify.subsets"] = sum(spans[i][EXTRA] or 0 for i in outer)
        elif group == "constructions.walk":
            m["constructions.walk.base_not_found"] = sum(
                spans[i][OUTCOME] == "BaseWalkNotFound" for i in outer)
    return m


def _ratio(num, den):
    return num / den if den else 0.0
