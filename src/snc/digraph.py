"""Core data model: digraphs, undirected graphs, neighborhoods, weights.

Digraphs here are orientations of simple graphs: no loops, no parallel
arcs, no digons (directed 2-cycles).  Vertices are dense integer indices
in [0, n).  Weights are exact rationals (fractions.Fraction); every
comparison made anywhere in the package is exact, never floating point.

Graphs are built single-owner (add_arc / add_edge) and treated as
immutable afterwards; all query methods are read-only and safe to share.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .errors import DigonRejected, DuplicateArc, LoopRejected, NegativeWeight, ParseError

Vertex = int


class Digraph:
    """Loop-free digon-free directed graph with adjacency indexed both ways."""

    __slots__ = ("n", "_out", "_in", "_m")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self._out: list[set[int]] = [set() for _ in range(n)]
        self._in: list[set[int]] = [set() for _ in range(n)]
        self._m = 0

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        g = cls(n)
        for u, v in arcs:
            g.add_arc(u, v)
        return g

    def add_arc(self, u: int, v: int) -> None:
        """Add arc u -> v, enforcing the loop/digon/duplicate bans."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise LoopRejected(f"loop ({u},{v}) rejected")
        if v in self._out[u]:
            raise DuplicateArc(f"arc ({u},{v}) already present")
        if u in self._out[v]:
            raise DigonRejected(f"arc ({u},{v}) would close a digon with ({v},{u})")
        self._out[u].add(v)
        self._in[v].add(u)
        self._m += 1

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0,{self.n})")

    @property
    def arc_count(self) -> int:
        return self._m

    def has_arc(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._out[u]

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs, sorted, for deterministic iteration and serialization."""
        return sorted((u, v) for u in range(self.n) for v in self._out[u])

    def out_neighbors(self, v: int) -> set[int]:
        self._check_vertex(v)
        return set(self._out[v])

    def in_neighbors(self, v: int) -> set[int]:
        self._check_vertex(v)
        return set(self._in[v])

    def out_degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._in[v])

    def second_out_neighbors(self, v: int) -> set[int]:
        """Vertices at directed distance exactly two from v."""
        self._check_vertex(v)
        first = self._out[v]
        second: set[int] = set()
        for w in first:
            second |= self._out[w]
        second -= first
        second.discard(v)
        return second

    def second_in_neighbors(self, v: int) -> set[int]:
        """Vertices at directed distance exactly two to v (reversed arcs)."""
        self._check_vertex(v)
        first = self._in[v]
        second: set[int] = set()
        for w in first:
            second |= self._in[w]
        second -= first
        second.discard(v)
        return second

    def is_tournament(self) -> bool:
        # with loops/digons banned, full arc count forces one arc per pair
        return self._m == self.n * (self.n - 1) // 2

    def missing_pairs(self) -> list[tuple[int, int]]:
        """Unordered pairs with no arc in either direction, sorted."""
        out = self._out
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if v not in out[u] and u not in out[v]
        ]

    def copy(self) -> "Digraph":
        g = Digraph(self.n)
        g._out = [set(s) for s in self._out]
        g._in = [set(s) for s in self._in]
        g._m = self._m
        return g

    def to_dict(self) -> dict:
        return {"n": self.n, "arcs": [list(a) for a in self.arcs()]}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self._out == other._out

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arcs()})"


class UndirectedGraph:
    """Simple undirected graph over dense integer vertices."""

    __slots__ = ("n", "_adj", "_m")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._m = 0

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "UndirectedGraph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_edge(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range [0,{self.n})")
        if u == v:
            raise LoopRejected(f"loop edge ({u},{v}) rejected")
        if v in self._adj[u]:
            raise DuplicateArc(f"edge ({u},{v}) already present")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._m += 1

    @property
    def edge_count(self) -> int:
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._adj[u]

    def neighbors(self, v: int) -> set[int]:
        return set(self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u in range(self.n) for v in self._adj[u] if u < v)

    def non_edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if v not in self._adj[u]
        ]

    def support(self) -> set[int]:
        """Vertices incident to at least one edge (the non-whole vertices
        when this graph was extracted as a missing graph)."""
        return {v for v in range(self.n) if self._adj[v]}

    def isolated(self) -> set[int]:
        return {v for v in range(self.n) if not self._adj[v]}

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        return all(self.has_edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :])

    def is_stable(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        return not any(self.has_edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :])

    def induced(self, vertices: Iterable[int]) -> tuple["UndirectedGraph", list[int]]:
        """Induced subgraph plus the list mapping new index -> old vertex."""
        order = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(order)}
        g = UndirectedGraph(len(order))
        for u in order:
            for w in self._adj[u]:
                if w in pos and u < w:
                    g.add_edge(pos[u], pos[w])
        return g, order

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges()]}

    def __eq__(self, other) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, edges={self.edges()})"


def missing_graph(g: Digraph) -> UndirectedGraph:
    """The undirected graph of pairs carrying no arc in either direction.

    All n vertices are kept; the support of the result (its non-isolated
    vertices) is what a whole-vertex-free reading of the missing graph
    would use as vertex set, and is available via .support().
    """
    return UndirectedGraph.from_edges(g.n, g.missing_pairs())


def rational_dict(x: Fraction) -> dict:
    """The JSON form {"num", "den"} of an exact rational, lowest terms."""
    return {"num": x.numerator, "den": x.denominator}


def rational_from_dict(doc, where: str) -> Fraction:
    """Inverse of rational_dict: two ints with a positive denominator."""
    num, den = (doc.get("num"), doc.get("den")) if isinstance(doc, dict) else (None, None)
    if type(num) is not int or type(den) is not int or den <= 0:
        raise ParseError(f"bad rational in {where}")
    return Fraction(num, den)


class WeightMap:
    """Exact nonnegative rational vertex weights, one per vertex."""

    __slots__ = ("_w",)

    def __init__(self, values: Iterable):
        ws = tuple(Fraction(v) for v in values)
        for i, w in enumerate(ws):
            if w < 0:
                raise NegativeWeight(f"weight of vertex {i} is negative: {w}")
        self._w = ws

    @classmethod
    def uniform(cls, n: int, value=1) -> "WeightMap":
        return cls([value] * n)

    @classmethod
    def from_dict(cls, n: int, mapping: dict, default=1) -> "WeightMap":
        return cls([mapping.get(v, default) for v in range(n)])

    def __len__(self) -> int:
        return len(self._w)

    def __getitem__(self, v: int) -> Fraction:
        return self._w[v]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._w)

    def total(self, vertices: Iterable[int]) -> Fraction:
        return sum((self._w[v] for v in vertices), Fraction(0))

    def to_dicts(self) -> list[dict]:
        return [rational_dict(w) for w in self._w]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightMap):
            return NotImplemented
        return self._w == other._w


class WeightedDigraph:
    """A digraph together with a weight for each of its vertices."""

    __slots__ = ("digraph", "weights")

    def __init__(self, digraph: Digraph, weights: WeightMap):
        if len(weights) != digraph.n:
            raise ValueError(
                f"weight map covers {len(weights)} vertices, digraph has {digraph.n}"
            )
        self.digraph = digraph
        self.weights = weights


class SnpCheck(NamedTuple):
    """Outcome of a weighted second-neighborhood comparison at one vertex."""

    holds: bool
    first_weight: Fraction
    second_weight: Fraction


def has_weighted_snp(d: WeightedDigraph, v: int) -> SnpCheck:
    """Whether w(N+(v)) <= w(N++(v)), with both exact sums."""
    first = d.weights.total(d.digraph.out_neighbors(v))
    second = d.weights.total(d.digraph.second_out_neighbors(v))
    return SnpCheck(first <= second, first, second)
