"""GraphDocument: the JSON-compatible on-disk form of graphs and colourings.

A document is a Graph, an optional EdgeColouring of it that carries its
witnesses, and metadata. The edge array in the JSON text defines the edge
ids of the colour array next to it. On load, edges are canonicalised to the
library's sorted order and the colour array is remapped along, so semantics
survive the round trip even for documents produced elsewhere. A document
already in that order, as ``emit`` writes it, keeps its colour array as
written. ``parse`` builds the Graph and the EdgeColouring once, so a
malformed colouring is refused whatever the command.

A colouring may carry the witnesses of its self-verification, one string
each: a cycle as its vertex sequence ("0 5 2 6"), a tree as its edges
written as vertex pairs ("0-5 5-2"), or a lone vertex ("3"). Both forms
name vertices, not edge ids, so they survive the canonicalisation. They are
hints: verification re-checks every one and drops those that fail.

``emit`` writes a document on one line with ``json.dumps`` and no
``indent``: any ``indent`` makes ``json`` fall back from its C encoder to the
pure-Python one, which writes one line per integer. ``parse`` reads any JSON
layout, so indented documents written by earlier versions still load. The
CLI writes the reports of ``verify``, ``solve`` and ``analyze`` on one line
the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

from .colouring import CycleWitness, EdgeColouring, TreeWitness
from .errors import InvalidParameter
from .graph import Graph

FORMAT_VERSION = 1

_DOT_PALETTE = (
    "red", "blue", "forestgreen", "orange", "purple", "brown", "magenta",
    "cyan3", "goldenrod", "gray40", "darkolivegreen", "navy",
)


@dataclass(frozen=True)
class GraphDocument:
    graph: Graph
    colouring: EdgeColouring | None  # a colouring of graph, carrying its witnesses
    metadata: dict


def document_from_graph(g: Graph, colouring: EdgeColouring | None = None,
                        metadata: dict | None = None) -> GraphDocument:
    if colouring is not None and colouring.graph != g:
        raise InvalidParameter("colouring belongs to a different graph")
    return GraphDocument(g, colouring, dict(metadata or {}))


def _witness_strings(c: EdgeColouring) -> dict:
    """The document entry of the witnesses: cycles as vertex sequences, trees
    as vertex pairs, or as their one vertex."""
    entry = {}
    for w in c.witnesses:
        if isinstance(w, CycleWitness):
            entry.setdefault("cycles", []).append(" ".join(map(str, w.vertices)))
        else:
            pairs = " ".join("%d-%d" % c.graph.edges[eid] for eid in w.edge_ids)
            entry.setdefault("trees", []).append(pairs or str(min(w.vertices)))
    return entry


def _parse_witnesses(g: Graph, entry) -> tuple:
    """Witness objects from a document entry, on the canonical edge ids of g.
    An entry naming a vertex pair that is not an edge of g is dropped; every
    other check is left to verification."""
    if not isinstance(entry, dict) or not set(entry) <= {"cycles", "trees"}:
        raise InvalidParameter("witnesses must be an object with lists cycles and trees")
    index = g.edge_index
    out = []
    for kind, items in entry.items():
        if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
            raise InvalidParameter(f"witnesses.{kind} must be a list of strings")
        for item in items:
            try:
                if kind == "cycles":
                    vs = tuple(map(int, item.split()))
                    pairs = zip(vs, vs[1:] + vs[:1])
                else:
                    tokens = [tuple(map(int, t.split("-"))) for t in item.split()]
                    pairs = [t for t in tokens if len(t) == 2]
                    vs = frozenset(v for t in tokens for v in t)
            except ValueError:
                raise InvalidParameter(f"bad witness entry {item!r}") from None
            eids = tuple(index.get(pair, -1) for pair in pairs)
            if -1 not in eids:
                out.append(CycleWitness(vs, eids) if kind == "cycles" else TreeWitness(eids, vs))
    return tuple(out)


def emit(doc: GraphDocument) -> str:
    """The document as one line of JSON plus a newline, written by the C
    encoder of ``json`` (an ``indent`` would force the pure-Python one), the
    layout of the CLI's reports too. ``parse`` reads this layout and any
    other."""
    g, c = doc.graph, doc.colouring
    payload = {
        "format_version": FORMAT_VERSION,
        "n": g.n,
        "edges": [list(e) for e in g.edges],
    }
    if c is not None:
        payload["colouring"] = {"colours": list(c.colour_of), "r": c.r}
        if c.witnesses:
            payload["colouring"]["witnesses"] = _witness_strings(c)
    if doc.metadata:
        payload["metadata"] = doc.metadata
    return json.dumps(payload) + "\n"


def is_ints(values) -> bool:
    """True iff every value is an int; a JSON true or false is not."""
    return all(type(x) is int for x in values)


def parse(text: str) -> GraphDocument:
    """The document of a JSON text, in any layout; InvalidParameter names
    what is malformed.

    The edge array is checked in one pass over its entries and one over
    their endpoints. Only when that fails does a pass entry by entry find
    the first bad one to name. A colour array whose edges are already in
    canonical order is taken as it is; any other order is remapped through
    the graph's edge index.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"document is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise InvalidParameter("document must be a JSON object")
    version = payload.get("format_version", FORMAT_VERSION)
    if not is_ints([version]) or version != FORMAT_VERSION:
        raise InvalidParameter(f"unsupported format_version {json.dumps(version)}; "
                               f"expected {FORMAT_VERSION}")
    for key in ("n", "edges"):
        if key not in payload:
            raise InvalidParameter(f"document missing required field {key!r}")
    n = payload["n"]
    raw_edges = payload["edges"]
    if not is_ints([n]) or not isinstance(raw_edges, list):
        raise InvalidParameter("bad types for n / edges")
    if not (all(type(item) is list and len(item) == 2 for item in raw_edges)
            and is_ints(chain.from_iterable(raw_edges))):
        for item in raw_edges:  # find the entry to name
            if not (isinstance(item, list) and len(item) == 2 and is_ints(item)):
                raise InvalidParameter(f"bad edge entry {item!r}")
    given = tuple(map(tuple, raw_edges))
    g = Graph(n, given)  # normalises and sorts edges canonically
    c = None
    if "colouring" in payload:
        col = payload["colouring"]
        arr, r = (col.get("colours"), col.get("r")) if isinstance(col, dict) else (None, None)
        if not (isinstance(arr, list) and len(arr) == len(given) and is_ints(arr + [r])):
            raise InvalidParameter("colouring must be an object listing one int colour "
                                   "per edge plus r")
        if g.edges == given:  # the canonical order, which emit writes
            colours = tuple(arr)
        else:  # remap document edge order onto canonical edge ids
            colours = [0] * len(given)
            for pos, pair in enumerate(given):
                colours[g.edge_id(*pair)] = arr[pos]
            colours = tuple(colours)
        witnesses = _parse_witnesses(g, col["witnesses"]) if "witnesses" in col else ()
        c = EdgeColouring(g, colours, r, unused_ok=True, witnesses=witnesses)
    meta = payload.get("metadata", {})
    if not isinstance(meta, dict):
        raise InvalidParameter("metadata must be an object")
    return GraphDocument(g, c, meta)


def export_dot(doc: GraphDocument) -> str:
    """DOT text with display colours cycled from a fixed palette; the integer
    colouring in the document stays authoritative."""
    lines = ["graph G {"]
    lines.append("  node [shape=circle];")
    g, c = doc.graph, doc.colouring
    for v in range(g.n):
        lines.append(f"  {v};")
    for eid, (u, v) in enumerate(g.edges):
        if c is not None:
            col = c.colour_of[eid]
            dot_colour = _DOT_PALETTE[col % len(_DOT_PALETTE)]
            lines.append(
                f'  {u} -- {v} [color={dot_colour}, label="{col}"];'
            )
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
