"""Core data model: digraphs, undirected graphs, neighborhoods, weights.

Digraphs here are orientations of simple graphs: no loops, no parallel
arcs, no digons (directed 2-cycles).  Vertices are dense integer indices
in [0, n).  Weights are exact rationals, held as int numerators over one
common denominator per weight map, so that sums and comparisons of
weights run on ints; Fractions are built only where a weight is
returned.  Every comparison made anywhere in the package is exact, never
floating point.

Adjacency is stored once, as one int bitmask per vertex: a digraph keeps
out-masks (bit u of v's is set when v -> u) and in-masks, an undirected
graph neighbor masks.  Other modules read them through out_mask,
out_masks, in_masks, neighbor_mask and neighbor_masks; the set-returning
accessors are derived from them.

Graphs are built whole, from their arcs, edges or masks, and never
change: the masks are tuples, a digraph with more arcs is a new digraph
(with_arcs), and every query method is read-only and safe to share.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .errors import DigonRejected, DuplicateArc, LoopRejected, NegativeWeight, ParseError


_BYTE_BITS = [tuple(i for i in range(8) if byte >> i & 1) for byte in range(256)]


def bits(mask: int) -> list[int]:
    """The vertices of a nonnegative mask, in increasing order, read a
    byte at a time from a table."""
    return [
        8 * k + i
        for k, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little"))
        for i in _BYTE_BITS[byte]
    ]


def _above(mask: int, v: int) -> int:
    """mask without its bits 0..v."""
    return mask >> (v + 1) << (v + 1)


def _check_masks(masks: list[int]) -> None:
    n = len(masks)
    for v, mask in enumerate(masks):
        if mask < 0 or mask >> n or mask >> v & 1:
            raise ValueError(f"mask of vertex {v} holds a loop or a vertex out of range [0,{n})")


def _second_step(masks: tuple[int, ...], first: int) -> int:
    """Vertices one step past the mask first and not in it."""
    reach = 0
    for u in bits(first):
        reach |= masks[u]
    return reach & ~first


def _arc_error(n: int, out: list[int], u: int, v: int) -> Exception:
    """The error for an arc u -> v that the digraph with out-masks out rejects."""
    for x in (u, v):
        if not 0 <= x < n:
            return ValueError(f"vertex {x} out of range [0,{n})")
    if u == v:
        return LoopRejected(f"loop ({u},{v}) rejected")
    if out[u] >> v & 1:
        return DuplicateArc(f"arc ({u},{v}) already present")
    return DigonRejected(f"arc ({u},{v}) would close a digon with ({v},{u})")


def _edge_error(n: int, u: int, v: int) -> Exception:
    """The error for an edge uv out of range, a loop or already present."""
    if not (0 <= u < n and 0 <= v < n):
        return ValueError(f"edge ({u},{v}) out of range [0,{n})")
    if u == v:
        return LoopRejected(f"loop edge ({u},{v}) rejected")
    return DuplicateArc(f"edge ({u},{v}) already present")


class Digraph:
    """Loop-free digon-free directed graph: an out-mask and an in-mask per vertex."""

    __slots__ = ("n", "_out", "_in", "_m")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self._out = self._in = (0,) * n
        self._m = 0

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        """The digraph on n vertices with the given arcs (see with_arcs)."""
        return cls(n).with_arcs(arcs)

    def with_arcs(self, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        """A new digraph: this one plus the given arcs, read in one loop.
        An endpoint that is not an int (a bool included) is a TypeError;
        the first arc out of range, a loop, already present or closing a
        digon raises ValueError, LoopRejected, DuplicateArc or
        DigonRejected."""
        n = self.n
        out, into = list(self._out), list(self._in)
        for u, v in arcs:
            if type(u) is not int or type(v) is not int:
                raise TypeError(f"arc ({u!r},{v!r}) has an endpoint that is not an int")
            if 0 <= u < n and 0 <= v < n and u != v and not (out[u] | into[u]) >> v & 1:
                out[u] |= 1 << v
                into[v] |= 1 << u
            else:
                raise _arc_error(n, out, u, v)
        return self._from_masks(out, into)

    @classmethod
    def _from_masks(cls, out: list[int], into: list[int]) -> "Digraph":
        """The digraph with out-masks out, already through _check_masks,
        and their transpose into as in-masks; digons are rejected."""
        if any(heads & tails for heads, tails in zip(out, into)):
            raise DigonRejected("out-masks hold a digon")
        g = cls(len(out))
        g._out, g._in = tuple(out), tuple(into)
        g._m = sum(heads.bit_count() for heads in out)
        return g

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0,{self.n})")

    @property
    def arc_count(self) -> int:
        return self._m

    def has_arc(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v >= 0 and self._out[u] >> v & 1 == 1

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs, sorted, for deterministic iteration and serialization."""
        return [(u, v) for u in range(self.n) for v in bits(self._out[u])]

    def out_mask(self, v: int) -> int:
        """Bit u is set when v -> u."""
        self._check_vertex(v)
        return self._out[v]

    def out_masks(self) -> tuple[int, ...]:
        """Every out-mask, indexed by vertex, for scans over the whole digraph."""
        return self._out

    def in_masks(self) -> tuple[int, ...]:
        """Every in-mask, indexed by vertex, for scans over the whole digraph."""
        return self._in

    def second_out_mask(self, v: int) -> int:
        """Vertices at directed distance exactly two from v (with digons
        banned, never v itself)."""
        return _second_step(self._out, self.out_mask(v))

    def missing_mask(self, v: int) -> int:
        """Vertices other than v joined to v by no arc in either direction."""
        self._check_vertex(v)
        return (1 << self.n) - 1 & ~(self._out[v] | self._in[v] | 1 << v)

    def out_degree(self, v: int) -> int:
        return self.out_mask(v).bit_count()

    def second_out_neighbors(self, v: int) -> set[int]:
        """Vertices at directed distance exactly two from v."""
        return set(bits(self.second_out_mask(v)))

    def is_tournament(self) -> bool:
        # with loops/digons banned, full arc count forces one arc per pair
        return self._m == self.n * (self.n - 1) // 2

    def missing_pairs(self) -> list[tuple[int, int]]:
        """Unordered pairs with no arc in either direction, sorted."""
        return [(u, v) for u in range(self.n) for v in bits(_above(self.missing_mask(u), u))]

    def to_dict(self) -> dict:
        return {"n": self.n, "arcs": [list(a) for a in self.arcs()]}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self._out == other._out

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arcs()})"


class UndirectedGraph:
    """Simple undirected graph over dense integer vertices: a neighbor mask per vertex."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self._adj = (0,) * n

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "UndirectedGraph":
        """The graph with the given edges, built in one loop over them.
        An endpoint that is not an int (a bool included) is a TypeError;
        the first edge out of range, a loop or already present raises
        ValueError, LoopRejected or DuplicateArc."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise TypeError(f"edge ({u!r},{v!r}) has an endpoint that is not an int")
            if 0 <= u < n and 0 <= v < n and u != v and not adj[u] >> v & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            else:
                raise _edge_error(n, u, v)
        return cls._from_masks(adj)

    @classmethod
    def _from_masks(cls, adj: list[int]) -> "UndirectedGraph":
        """The graph with neighbor masks adj, symmetric by construction at
        every caller; loops and neighbors out of range are rejected."""
        _check_masks(adj)
        g = cls(len(adj))
        g._adj = tuple(adj)
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v >= 0 and self._adj[u] >> v & 1 == 1

    def neighbor_mask(self, v: int) -> int:
        """Bit u is set when uv is an edge."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0,{self.n})")
        return self._adj[v]

    def neighbor_masks(self) -> tuple[int, ...]:
        """Every neighbor mask, indexed by vertex, for scans over the whole graph."""
        return self._adj

    def degree(self, v: int) -> int:
        return self.neighbor_mask(v).bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(_above(self._adj[u], u))]

    def non_edges(self) -> list[tuple[int, int]]:
        full = (1 << self.n) - 1
        return [(u, v) for u in range(self.n) for v in bits(_above(full & ~self._adj[u], u))]

    def isolated(self) -> set[int]:
        return {v for v in range(self.n) if not self._adj[v]}

    def _set_mask(self, vertices: Iterable[int]) -> int:
        """The mask of the given vertices, which must be in range."""
        mask = 0
        for v in vertices:
            mask |= 1 << v
        if mask >> self.n:
            raise ValueError(f"vertex out of range [0,{self.n})")
        return mask

    def is_clique(self, vertices: Iterable[int]) -> bool:
        """Whether every two of the given vertices are adjacent."""
        mask = self._set_mask(vertices)
        return all(mask & ~self._adj[v] == 1 << v for v in bits(mask))

    def is_stable(self, vertices: Iterable[int]) -> bool:
        """Whether no two of the given vertices are adjacent."""
        mask = self._set_mask(vertices)
        return not any(self._adj[v] & mask for v in bits(mask))

    def __eq__(self, other) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, edges={self.edges()})"


def pair_list(n: int) -> list[tuple[int, int]]:
    """Every pair (u, v), u < v, in sorted order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def orient_pairs(n: int, pairs: list[tuple[int, int]], code: int) -> Digraph:
    """The digraph on n vertices with one arc per pair (u, v): u -> v, or
    v -> u when bit k of code is set for pair k."""
    # the bits of code read once, bit k as character k
    flips = f"{code:0{len(pairs)}b}"[::-1]
    out, into = [0] * n, [0] * n
    for (u, v), flip in zip(pairs, flips):
        if flip == "1":
            u, v = v, u
        out[u] |= 1 << v
        into[v] |= 1 << u
    _check_masks(out)
    return Digraph._from_masks(out, into)


def graph_from_pairs(n: int, pairs: list[tuple[int, int]], code: int) -> UndirectedGraph:
    """The graph on n vertices whose edges are the pairs k with bit k of code set."""
    adj = [0] * n
    for k in bits(code):
        u, v = pairs[k]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return UndirectedGraph._from_masks(adj)


def missing_graph(g: Digraph) -> UndirectedGraph:
    """The undirected graph of pairs carrying no arc in either direction.

    All n vertices are kept; the support of the result (its non-isolated
    vertices) is what a whole-vertex-free reading of the missing graph
    would use as vertex set.
    """
    return UndirectedGraph._from_masks([g.missing_mask(v) for v in range(g.n)])


def rational_dict(x: Fraction) -> dict:
    """The JSON form {"num", "den"} of an exact rational, lowest terms."""
    return {"num": x.numerator, "den": x.denominator}


def rational_terms(doc, where: str) -> tuple[int, int]:
    """The numerator and denominator of rational_dict's form: two ints,
    the denominator positive."""
    num, den = (doc.get("num"), doc.get("den")) if isinstance(doc, dict) else (None, None)
    if type(num) is not int or type(den) is not int or den <= 0:
        raise ParseError(f"bad rational in {where}")
    return num, den


def rational_from_dict(doc, where: str) -> Fraction:
    """Inverse of rational_dict."""
    return Fraction(*rational_terms(doc, where))


class WeightMap:
    """Exact nonnegative rational vertex weights, one per vertex: weight v
    is scaled[v] / scale, with scale the LCM of the weights' denominators
    in lowest terms (1 for integer weights), so equal maps hold equal ints."""

    __slots__ = ("scaled", "scale")

    def __init__(self, values: Iterable):
        scaled, scale = list(values), 1
        if not all(type(x) is int for x in scaled):
            ws = [x if type(x) is Fraction else Fraction(x) for x in scaled]
            scale = math.lcm(*(x.denominator for x in ws))
            scaled = [x.numerator * (scale // x.denominator) for x in ws]
        for i, s in enumerate(scaled):
            if s < 0:
                raise NegativeWeight(f"weight of vertex {i} is negative: {Fraction(s, scale)}")
        self.scaled: tuple[int, ...] = tuple(scaled)
        self.scale: int = scale

    @classmethod
    def uniform(cls, n: int) -> "WeightMap":
        return cls([1] * n)

    @classmethod
    def from_dict(cls, n: int, mapping: dict) -> "WeightMap":
        """Weight mapping[v] for each vertex v in it, 1 for the others."""
        return cls([mapping.get(v, 1) for v in range(n)])

    def __len__(self) -> int:
        return len(self.scaled)

    def __getitem__(self, v: int) -> Fraction:
        return Fraction(self.scaled[v], self.scale)

    def __iter__(self) -> Iterator[Fraction]:
        return (Fraction(s, self.scale) for s in self.scaled)

    def mask_sum(self, mask: int) -> int:
        """scale times the total weight of the vertices of mask."""
        scaled = self.scaled
        return sum([scaled[v] for v in bits(mask)])

    def to_dicts(self) -> list[dict]:
        """rational_dict of each weight, reduced by a gcd rather than a Fraction."""
        scaled, scale = self.scaled, self.scale
        gcds = [math.gcd(s, scale) for s in scaled]
        return [{"num": s // g, "den": scale // g} for s, g in zip(scaled, gcds)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightMap):
            return NotImplemented
        return self.scale == other.scale and self.scaled == other.scaled


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
    g, w = d.digraph, d.weights
    first = w.mask_sum(g.out_mask(v))
    second = w.mask_sum(g.second_out_mask(v))
    return SnpCheck(first <= second, Fraction(first, w.scale), Fraction(second, w.scale))
