"""GraphDocument: the JSON-compatible on-disk form of graphs and colourings.

The edge array in a document defines the edge ids of the colouring stored
next to it. On load, edges are canonicalised to the library's sorted order
and the colour array is remapped along, so semantics survive the round trip
even for documents produced elsewhere.

A colouring may carry the witnesses of its self-verification, one string
each: a cycle as its vertex sequence ("0 5 2 6"), a tree as its edges
written as vertex pairs ("0-5 5-2"), or a lone vertex ("3"). Both forms
name vertices, not edge ids, so they survive the canonicalisation. They are
hints: verification re-checks every one and drops those that fail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
    n: int
    edges: tuple[tuple[int, int], ...]
    colours: tuple[int, ...] | None = None
    r: int | None = None
    metadata: dict = field(default_factory=dict)
    format_version: int = FORMAT_VERSION
    witnesses: tuple = ()  # CycleWitness or TreeWitness objects on canonical edge ids

    def graph(self) -> Graph:
        return Graph(self.n, self.edges)

    def colouring(self) -> EdgeColouring | None:
        if self.colours is None:
            return None
        return EdgeColouring(self.graph(), self.colours, self.r, unused_ok=True,
                             witnesses=self.witnesses)


def document_from_graph(g: Graph, colouring: EdgeColouring | None = None,
                        metadata: dict | None = None) -> GraphDocument:
    if colouring is not None and colouring.graph != g:
        raise InvalidParameter("colouring belongs to a different graph")
    return GraphDocument(
        n=g.n,
        edges=g.edges,
        colours=None if colouring is None else tuple(colouring.colour_of),
        r=None if colouring is None else colouring.r,
        metadata=dict(metadata or {}),
        witnesses=() if colouring is None else colouring.witnesses,
    )


def _witness_strings(doc: GraphDocument) -> dict:
    """The document entry of the witnesses: cycles as vertex sequences, trees
    as vertex pairs, or as their one vertex."""
    entry = {}
    for w in doc.witnesses:
        if isinstance(w, CycleWitness):
            entry.setdefault("cycles", []).append(" ".join(map(str, w.vertices)))
        else:
            pairs = " ".join("%d-%d" % doc.edges[eid] for eid in w.edge_ids)
            entry.setdefault("trees", []).append(pairs or str(min(w.vertices)))
    return entry


def _parse_witnesses(g: Graph, entry) -> tuple:
    """Witness objects from a document entry, on the canonical edge ids of g.
    An entry naming a vertex pair that is not an edge of g is dropped; every
    other check is left to verification."""
    if not isinstance(entry, dict) or not set(entry) <= {"cycles", "trees"}:
        raise InvalidParameter("witnesses must be an object with lists cycles and trees")
    out = []
    for kind, items in entry.items():
        if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
            raise InvalidParameter(f"witnesses.{kind} must be a list of strings")
        for item in items:
            try:
                if kind == "cycles":
                    vs = tuple(int(x) for x in item.split())
                    pairs = zip(vs, vs[1:] + vs[:1])
                else:
                    tokens = [tuple(int(x) for x in t.split("-")) for t in item.split()]
                    pairs = [t for t in tokens if len(t) == 2]
                    vs = frozenset(v for t in tokens for v in t)
            except ValueError:
                raise InvalidParameter(f"bad witness entry {item!r}") from None
            eids = tuple(g.edge_index.get((a, b) if a < b else (b, a), -1) for a, b in pairs)
            if -1 not in eids:
                out.append(CycleWitness(vs, eids) if kind == "cycles" else TreeWitness(eids, vs))
    return tuple(out)


def emit(doc: GraphDocument) -> str:
    payload = {
        "format_version": doc.format_version,
        "n": doc.n,
        "edges": [list(e) for e in doc.edges],
    }
    if doc.colours is not None:
        payload["colouring"] = {"colours": list(doc.colours), "r": doc.r}
        if doc.witnesses:
            payload["colouring"]["witnesses"] = _witness_strings(doc)
    if doc.metadata:
        payload["metadata"] = doc.metadata
    return json.dumps(payload, indent=2) + "\n"


def is_ints(values) -> bool:
    """True iff every value is an int; a JSON true or false is not."""
    return all(type(x) is int for x in values)


def parse(text: str) -> GraphDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"document is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise InvalidParameter("document must be a JSON object")
    for key in ("n", "edges"):
        if key not in payload:
            raise InvalidParameter(f"document missing required field {key!r}")
    n = payload["n"]
    raw_edges = payload["edges"]
    if not is_ints([n]) or not isinstance(raw_edges, list):
        raise InvalidParameter("bad types for n / edges")
    given = []
    for item in raw_edges:
        if not (isinstance(item, list) and len(item) == 2 and is_ints(item)):
            raise InvalidParameter(f"bad edge entry {item!r}")
        u, v = item
        given.append((u, v) if u < v else (v, u))
    g = Graph(n, tuple(given))  # sorts edges canonically
    colours = r = None
    witnesses = ()
    if "colouring" in payload:
        col = payload["colouring"]
        arr, r = (col.get("colours"), col.get("r")) if isinstance(col, dict) else (None, None)
        if not (isinstance(arr, list) and len(arr) == len(given) and is_ints(arr + [r])):
            raise InvalidParameter("colouring must be an object listing one int colour "
                                   "per edge plus r")
        # remap document edge order onto canonical edge ids
        colours = [0] * len(given)
        for pos, pair in enumerate(given):
            colours[g.edge_id(*pair)] = arr[pos]
        colours = tuple(colours)
        if "witnesses" in col:
            witnesses = _parse_witnesses(g, col["witnesses"])
    meta = payload.get("metadata", {})
    if not isinstance(meta, dict):
        raise InvalidParameter("metadata must be an object")
    return GraphDocument(n=n, edges=g.edges, colours=colours, r=r, metadata=meta,
                         format_version=payload.get("format_version", FORMAT_VERSION),
                         witnesses=witnesses)


def export_dot(doc: GraphDocument) -> str:
    """DOT text with display colours cycled from a fixed palette; the integer
    colouring in the document stays authoritative."""
    lines = ["graph G {"]
    lines.append("  node [shape=circle];")
    for v in range(doc.n):
        lines.append(f"  {v};")
    for eid, (u, v) in enumerate(doc.edges):
        if doc.colours is not None:
            c = doc.colours[eid]
            dot_colour = _DOT_PALETTE[c % len(_DOT_PALETTE)]
            lines.append(
                f'  {u} -- {v} [color={dot_colour}, label="{c}"];'
            )
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
