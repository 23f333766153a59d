"""Input parsing and stable serialization for the command-line front door.

Text formats (bit-exact, newline-terminated, `#` starts a comment):

    digraph <n>              graph <n>
    arc <u> <v>              edge <u> <v>
    weight <v> <num> <den>

Vertex tokens are either all decimal indices in [0, n) or all symbolic
labels (mapped to dense indices in first-appearance order); mixing the
two styles in one file is rejected.  Weights default to 1 when omitted.
Counts, indices and weight terms are ASCII digits only: other scripts'
digits, superscripts, signs and underscores, which str.isdigit or int()
would take, are not numbers here.

JSON instances mirror the same content: {"kind": "digraph", "n": ...,
"arcs": [[u,v],...], "weights": [{"num","den"},...], "labels": [...]}
and {"kind": "graph", "n": ..., "edges": [[u,v],...], "labels": [...]}.
Parsing then serializing then parsing is the identity on content.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

from .digraph import (
    Digraph,
    UndirectedGraph,
    WeightedDigraph,
    WeightMap,
    _above,
    bits,
    rational_terms,
)
from .errors import CounterexampleReport, ParseError, SncError, TooLarge

# Largest vertex count accepted from a header or a JSON n, checked before
# anything is allocated (see "Scale limits" in the README).
MAX_VERTICES = 512


def _decimal(token: str) -> bool:
    return token.isascii() and token.isdigit()


class _LabelTable:
    """Vertex token resolution: numeric ids or dense symbolic labels.

    A token's mode, range and label count are checked on its first
    resolution only; its vertex is then read from vertex, which holds
    every token resolved so far (in symbolic mode, exactly the labels)."""

    def __init__(self, n: int):
        self.n = n
        self.mode: Optional[str] = None  # "numeric" | "symbolic"
        self.vertex: dict[str, int] = {}

    def resolve(self, token: str, line: int) -> int:
        v = self.vertex.get(token)
        if v is None:
            v = self.vertex[token] = self._first(token, line)
        return v

    def _first(self, token: str, line: int) -> int:
        numeric = _decimal(token)
        mode = "numeric" if numeric else "symbolic"
        if self.mode is None:
            self.mode = mode
        elif self.mode != mode:
            raise ParseError(
                f"vertex token {token!r} mixes numeric and symbolic labels", line
            )
        if numeric:
            v = int(token)
            if v >= self.n:
                raise ParseError(f"vertex {v} out of range [0,{self.n})", line)
            return v
        if len(self.vertex) >= self.n:
            raise ParseError(f"more than {self.n} distinct labels", line)
        return len(self.vertex)

    def labels(self) -> list[str]:
        """Each vertex's symbolic label, or its index where it has none."""
        names = {v: label for label, v in self.vertex.items()} if self.mode == "symbolic" else {}
        return [names.get(v, str(v)) for v in range(self.n)]


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def check_cap(n: int) -> None:
    if n > MAX_VERTICES:
        raise TooLarge(f"instances are limited to {MAX_VERTICES} vertices, got {n}")


def _parse_header(it, kind: str) -> int:
    """The vertex count on the first line of it, which must read '<kind> <n>'."""
    try:
        lineno, tokens = next(it)
    except StopIteration:
        raise ParseError("empty input", 1) from None
    if len(tokens) != 2 or tokens[0] != kind:
        raise ParseError(f"expected header '{kind} <n>'", lineno)
    if not _decimal(tokens[1]):
        raise ParseError(f"bad vertex count {tokens[1]!r}", lineno)
    n = int(tokens[1])
    check_cap(n)
    return n


def _weight(num: int, den: int) -> int | Fraction:
    """A weight as WeightMap reads it fastest: an int when whole."""
    return num if den == 1 else Fraction(num, den)


def _parse(text: str, kind: str):
    """The graph of the text format of kind, "digraph" or "graph", its
    weights by vertex (a digraph's weight lines) and its labels.  Pairs go
    to from_arcs or from_edges as they are read, so a file's first bad line
    is the one reported."""
    it = _lines(text)
    n = _parse_header(it, kind)
    digraph = kind == "digraph"
    # looked up only once the header has passed the vertex cap
    build = Digraph.from_arcs if digraph else UndirectedGraph.from_edges
    pair = "arc" if digraph else "edge"
    table = _LabelTable(n)
    weights: dict[int, int | Fraction] = {}
    at = 0  # the line of the pair being added

    def pairs():
        nonlocal at
        for lineno, tokens in it:
            if tokens[0] == pair:
                if len(tokens) != 3:
                    raise ParseError(f"expected '{pair} <u> <v>'", lineno)
                at = lineno
                yield table.resolve(tokens[1], lineno), table.resolve(tokens[2], lineno)
            elif tokens[0] == "weight" and digraph:
                if len(tokens) != 4:
                    raise ParseError("expected 'weight <v> <num> <den>'", lineno)
                v = table.resolve(tokens[1], lineno)
                if not (_decimal(tokens[2]) and _decimal(tokens[3])):
                    raise ParseError(
                        "weight numerator and denominator must be nonnegative decimal integers",
                        lineno,
                    )
                num, den = int(tokens[2]), int(tokens[3])
                if den == 0:
                    raise ParseError("weight denominator must be positive", lineno)
                if v in weights:
                    raise ParseError(f"duplicate weight for vertex token {tokens[1]!r}", lineno)
                weights[v] = _weight(num, den)
            else:
                raise ParseError(f"unknown directive {tokens[0]!r}", lineno)

    try:
        g = build(n, pairs())
    except ParseError:  # raised by pairs(), with its own line
        raise
    except SncError as exc:  # build rejected the pair at line at
        raise type(exc)(f"line {at}: {exc}") from None
    return g, weights, table.labels()


def parse_digraph(text: str) -> tuple[WeightedDigraph, list[str]]:
    """Parse the digraph text format; weights default to 1."""
    g, weights, labels = _parse(text, "digraph")
    return WeightedDigraph(g, WeightMap.from_dict(g.n, weights)), labels


def parse_graph(text: str) -> tuple[UndirectedGraph, list[str]]:
    """Parse the undirected graph text format."""
    g, _weights, labels = _parse(text, "graph")
    return g, labels


def _names(labels: Optional[list[str]], n: int) -> list[str]:
    """labels, or each vertex's index as its name when there are none."""
    return labels if labels is not None else [str(v) for v in range(n)]


def serialize_digraph(wd: WeightedDigraph, labels: Optional[list[str]] = None) -> str:
    """Canonical text form: sorted arcs, weight lines only where not 1."""
    d, scale = wd.digraph, wd.weights.scale
    name = _names(labels, d.n)
    lines = [f"digraph {d.n}"]
    for u, heads in enumerate(d.out_masks()):
        if heads:
            arc = f"arc {name[u]} "
            lines += [arc + name[v] for v in bits(heads)]
    for v, s in enumerate(wd.weights.scaled):
        if s != scale:
            g = math.gcd(s, scale)
            lines.append(f"weight {name[v]} {s // g} {scale // g}")
    return "\n".join(lines) + "\n"


def serialize_graph(g: UndirectedGraph, labels: Optional[list[str]] = None) -> str:
    """Canonical text form: sorted edges, the smaller endpoint first."""
    name = _names(labels, g.n)
    lines = [f"graph {g.n}"]
    for u, nbrs in enumerate(g.neighbor_masks()):
        later = _above(nbrs, u)
        if later:
            edge = f"edge {name[u]} "
            lines += [edge + name[v] for v in bits(later)]
    return "\n".join(lines) + "\n"


def digraph_instance_dict(wd: WeightedDigraph, labels: Optional[list[str]] = None) -> dict:
    d = wd.digraph
    return {
        "kind": "digraph",
        "n": d.n,
        "arcs": [list(a) for a in d.arcs()],
        "weights": wd.weights.to_dicts(),
        "labels": _names(labels, d.n),
    }


def graph_instance_dict(g: UndirectedGraph, labels: Optional[list[str]] = None) -> dict:
    return {
        "kind": "graph",
        "n": g.n,
        "edges": [list(e) for e in g.edges()],
        "labels": _names(labels, g.n),
    }


def counterexample(
    stage: str, description: str, instance: WeightedDigraph | UndirectedGraph, **choices
) -> CounterexampleReport:
    """The report of a failed guarantee: its state is the one instance the
    failure happened on, as digraph_instance_dict or graph_instance_dict
    writes it (so load_digraph / load_graph read it back), beside the free
    choices and pointers that replay the failing check on it."""
    dump = digraph_instance_dict if isinstance(instance, WeightedDigraph) else graph_instance_dict
    return CounterexampleReport(stage, description, {"instance": dump(instance), **choices})


def _labels(doc: dict, n: int) -> list[str]:
    if "labels" not in doc:
        return _names(None, n)
    raw = doc["labels"]
    if not isinstance(raw, list) or len(raw) != n:
        raise ParseError("labels list must cover every vertex")
    if not all(isinstance(x, str) for x in raw) or len(set(raw)) != n:
        raise ParseError("labels must be distinct strings")
    return list(raw)


def _vertex_count(doc, kind: str) -> int:
    """The vertex count of a JSON instance of kind, a JSON integer within the cap."""
    if not isinstance(doc, dict):
        raise ParseError("an instance must be a JSON object")
    if doc.get("kind") != kind:
        raise ParseError(f"expected a {kind} instance")
    n = doc.get("n")
    if type(n) is not int or n < 0:
        raise ParseError("instance n must be a nonnegative integer")
    check_cap(n)
    return n


def _from_pairs(build, n: int, doc: dict, pairs_key: str):
    """build(n, pairs) on the vertex pairs of a JSON instance, which must
    be JSON integers (booleans and floats excluded).

    build reads the pairs in one loop and fails at the first pair that is
    ill-typed or that it rejects; only then are all pairs type-checked, so
    that an ill-typed pair anywhere is the ParseError reported before any
    range, loop, duplicate or digon error."""
    pairs = doc.get(pairs_key, [])
    if isinstance(pairs, list):
        try:
            return build(n, pairs)
        except (TypeError, ValueError, SncError):
            if all(
                isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p)
                for p in pairs
            ):
                raise
    raise ParseError(f"instance {pairs_key} must be a list of integer pairs")


def digraph_from_instance_dict(doc: dict) -> tuple[WeightedDigraph, list[str]]:
    n = _vertex_count(doc, "digraph")
    g = _from_pairs(Digraph.from_arcs, n, doc, "arcs")
    raw = doc.get("weights")
    if raw is None:
        w = WeightMap.uniform(n)
    elif isinstance(raw, list) and len(raw) == n:
        w = WeightMap([_weight(*rational_terms(r, "weights")) for r in raw])
    else:
        raise ParseError("weights list must cover every vertex")
    return WeightedDigraph(g, w), _labels(doc, n)


def graph_from_instance_dict(doc: dict) -> tuple[UndirectedGraph, list[str]]:
    n = _vertex_count(doc, "graph")
    return _from_pairs(UndirectedGraph.from_edges, n, doc, "edges"), _labels(doc, n)


def int_list(value, where: str) -> tuple[int, ...]:
    """A JSON list of integers (booleans excluded), or ParseError."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ParseError(f"{where} must be a list of integers")
    return tuple(value)


def fields_match(rebuilt: dict, doc: dict, free: tuple[str, ...]) -> tuple[str, bool]:
    """The check that doc, minus its instance, is exactly the rebuilt
    document, compared as canonical JSON so that 1, 1.0 and true differ.
    The free choices named in free are left out on both sides: a verifier
    names one only when its read checked doc's value to be exactly the
    JSON value that rebuilt holds for it, so no verdict changes."""
    skip = ("instance", *free)
    rebuilt = {k: v for k, v in rebuilt.items() if k not in skip}
    given = {k: v for k, v in doc.items() if k not in skip}
    return "fields_match", json.dumps(rebuilt, sort_keys=True) == json.dumps(given, sort_keys=True)


def load_instance(text: str, kind: Optional[str] = None) -> tuple:
    """(kind, instance, labels) of a text or JSON input, told apart by the
    leading character.  kind "digraph" or "graph" is the kind the input
    must have; None takes the one it names, its JSON kind or its first
    directive past comments.  An input of another kind than the one asked
    for is the JSON reader's kind error or the text parser's header error."""
    if text.lstrip().startswith("{"):
        source = load_json(text)
        named = kind or source.get("kind")
        read_digraph, read_graph = digraph_from_instance_dict, graph_from_instance_dict
    else:
        source = text
        named = kind or next((tokens[0] for _lineno, tokens in _lines(text)), "")
        read_digraph, read_graph = parse_digraph, parse_graph
    if named == "digraph":
        return ("digraph", *read_digraph(source))
    if named == "graph":
        return ("graph", *read_graph(source))
    raise ParseError(f"unknown instance kind {named!r}")


def load_digraph(text: str) -> tuple[WeightedDigraph, list[str]]:
    """Text or JSON digraph input (see load_instance)."""
    return load_instance(text, "digraph")[1:]


def load_graph(text: str) -> tuple[UndirectedGraph, list[str]]:
    """Text or JSON graph input (see load_instance)."""
    return load_instance(text, "graph")[1:]


def load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
        raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object")
    return doc


def digraph_to_dot(wd: WeightedDigraph, labels: Optional[list[str]] = None) -> str:
    """Lossy DOT export for human inspection; missing edges are dashed."""
    d = wd.digraph
    name = _names(labels, d.n)
    out = ["digraph G {"]
    for v in range(d.n):
        w = wd.weights[v]
        out.append(f'  {v} [label="{name[v]} ({w})"];')
    for u, v in d.arcs():
        out.append(f"  {u} -> {v};")
    for u, v in d.missing_pairs():
        out.append(f"  {u} -> {v} [dir=none, style=dashed];")
    out.append("}")
    return "\n".join(out) + "\n"


def graph_to_dot(g: UndirectedGraph, labels: Optional[list[str]] = None) -> str:
    name = _names(labels, g.n)
    out = ["graph G {"]
    for v in range(g.n):
        out.append(f'  {v} [label="{name[v]}"];')
    for u, v in g.edges():
        out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"
