"""Generalized-star recognition, decomposition, and the adversarial build.

A generalized star is a clique layered into cores X1..Xn together with a
stable set split into ray classes A1..An (plus isolated vertices A0),
where every vertex of class Ai is adjacent to exactly X1 u ... u Xi.
These are exactly the threshold graphs (Chvatal and Hammer, 1977).
Three equivalent views are implemented:

* structural: peel off an isolated or a dominating vertex until none is
  left, build the decomposition from the peeled stable side and
  validate it (max_stable_set, decompose); recognize decides by this
  route;
* pairwise: no two vertex-disjoint edges induce a subgraph of a
  four-cycle (check_condition_B);
* orientational: every digraph whose missing graph is G has only good
  missing edges; refuted constructively by adversarial_digraph when the
  pairwise condition fails.

Decompositions are not unique (a complete graph also reads as a clique
core with one ray peeled off), so equality of decompositions is never
tested structurally; validate_decomposition is the arbiter everywhere.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .digraph import Digraph, UndirectedGraph, _above, bits, missing_graph
from .errors import InternalTheoremViolation, NotAViolation
from .formats import counterexample
from .good_edges import classify_missing_edge


class GeneralizedStarDecomposition(NamedTuple):
    """Partition (A0..Ak; X1..Xn) of a vertex set.

    a_sets[0] is A0 (isolated vertices, possibly empty); a_sets[i] for
    i >= 1 are the nonempty ray classes; x_sets are the nonempty core
    layers.  The ray list may stop short of the core list: trailing core
    layers with no rays of their own are how plain cliques fit in.
    """

    a_sets: tuple[frozenset[int], ...]
    x_sets: tuple[frozenset[int], ...]

    @property
    def ray_class_count(self) -> int:
        return len(self.a_sets) - 1

    @property
    def layer_count(self) -> int:
        return len(self.x_sets)

    def core(self) -> frozenset[int]:
        return frozenset().union(*self.x_sets)

    def rays(self) -> frozenset[int]:
        return frozenset().union(*self.a_sets[1:])

    def to_dict(self) -> dict:
        return {
            "a_sets": [sorted(s) for s in self.a_sets],
            "x_sets": [sorted(s) for s in self.x_sets],
        }


CLAUSE_PARTITION = "partition"
CLAUSE_CLIQUE = "clique"
CLAUSE_STABLE = "stable"
CLAUSE_NEIGHBORHOODS = "neighborhoods"


def validate_decomposition(
    g: UndirectedGraph, dec: GeneralizedStarDecomposition
) -> tuple[bool, Optional[str]]:
    """Check the four decomposition rules literally and exactly.

    partition: the listed sets are disjoint and cover every vertex.
    clique: the core layers are nonempty and their union is complete.
    stable: ray classes are nonempty, their union with A0 has no edge.
    neighborhoods: A0 vertices are isolated; a class-i ray is adjacent to
    exactly the first i core layers.
    """
    if not dec.a_sets:
        return False, CLAUSE_PARTITION
    # disjoint, in range and covering: every vertex listed exactly once
    if sorted(v for s in (*dec.a_sets, *dec.x_sets) for v in s) != list(range(g.n)):
        return False, CLAUSE_PARTITION

    core = dec.core()
    if any(not x for x in dec.x_sets):
        return False, CLAUSE_CLIQUE
    if not g.is_clique(core):
        return False, CLAUSE_CLIQUE

    if any(not a for a in dec.a_sets[1:]):
        return False, CLAUSE_STABLE
    if not g.is_stable(dec.a_sets[0] | dec.rays()):
        return False, CLAUSE_STABLE

    if dec.ray_class_count > dec.layer_count:
        return False, CLAUSE_NEIGHBORHOODS
    for v in dec.a_sets[0]:
        if g.degree(v) != 0:
            return False, CLAUSE_NEIGHBORHOODS
    ladder = 0
    for i, x in enumerate(dec.x_sets, start=1):
        ladder |= sum(1 << v for v in x)
        if i <= dec.ray_class_count:
            for v in dec.a_sets[i]:
                if g.neighbor_mask(v) != ladder:
                    return False, CLAUSE_NEIGHBORHOODS
    return True, None


def max_stable_set(g: UndirectedGraph) -> Optional[frozenset[int]]:
    """Lexicographically smallest maximum stable set by the threshold peel;
    None when g is not a threshold graph (not a generalized star).

    Vertices sorted by degree, ties by index, are peeled from both ends:
    the lowest goes to the stable side I when it has become isolated,
    else the highest goes to the clique K when it has become dominating,
    else neither exists and g is not threshold.  A peeled clique vertex
    is adjacent to every vertex still in play and a peeled stable vertex
    to none, so a vertex's remaining degree is its degree less the clique
    vertices peeled so far.

    I comes out maximal, so every other maximum stable set is I - i + k
    for a clique vertex k with N(k) & I = {i}.  Neighborhoods in a
    threshold graph are nested, so i is then adjacent to all of K and
    deg(i) = |K| = deg(k).  Of two vertices of equal degree the peel
    sends the lower-indexed one to I (it takes I from the low end and K
    from the high end), so k > i and I is the smallest as a sorted
    sequence.
    """
    degree = [g.degree(v) for v in range(g.n)]
    order = sorted(range(g.n), key=degree.__getitem__)  # stable: ties by index
    lo, hi = 0, g.n - 1
    while lo <= hi:
        peeled = g.n - 1 - hi  # clique vertices peeled so far
        if degree[order[lo]] == peeled:
            lo += 1
        elif degree[order[hi]] - peeled == hi - lo:
            hi -= 1
        else:
            return None
    return frozenset(order[:lo])


def decompose(g: UndirectedGraph) -> Optional[GeneralizedStarDecomposition]:
    """Decomposition of a generalized star; None when g is not one.

    The stable side is max_stable_set(g), whose peel rejects exactly the
    graphs that are not generalized stars.  Its isolated vertices form
    A0, the rest is grouped by increasing degree into ray classes, and
    the core layers are the successive neighborhood increments.  The
    candidate is then validated; a failed clause would falsify the
    characterization and raises InternalTheoremViolation with a
    replayable dump.
    """
    s = max_stable_set(g)
    if s is None:
        return None
    a0 = frozenset(g.isolated())
    by_degree: dict[int, set[int]] = {}
    for v in sorted(s - a0):
        by_degree.setdefault(g.degree(v), set()).add(v)
    a_sets: list[frozenset[int]] = [a0]
    x_sets: list[frozenset[int]] = []
    covered = 0
    for d in sorted(by_degree):
        cls = frozenset(by_degree[d])
        a_sets.append(cls)
        nbhd = 0
        for v in cls:
            nbhd |= g.neighbor_mask(v)
        x_sets.append(frozenset(bits(nbhd & ~covered)))
        covered |= nbhd
    candidate = GeneralizedStarDecomposition(tuple(a_sets), tuple(x_sets))
    ok, clause = validate_decomposition(g, candidate)
    if not ok:
        raise InternalTheoremViolation(
            counterexample(
                "decomposition-invalid", f"peeled decomposition fails the {clause} clause", g
            )
        )
    return candidate


class SquareViolation(NamedTuple):
    """Two vertex-disjoint edges inducing a subgraph of a four-cycle.

    With e1 = (a,x) and e2 = (b,y), the cross edges present in the graph
    all lie on one of the two possible four-cycles through e1 and e2:
    pairing "xb-ay" allows cross edges {x,b} and {a,y} (so {a,b} and
    {x,y} are absent), pairing "xy-ab" allows {x,y} and {a,b}.
    """

    e1: tuple[int, int]
    e2: tuple[int, int]
    pairing: str

    def labeling(self) -> tuple[int, int, int, int]:
        """Vertices (x, y, u, v) with xy and uv edges, xu and yv non-edges."""
        a, x = self.e1
        b, y = self.e2
        if self.pairing == "xb-ay":
            return a, x, b, y
        return a, x, y, b

    def to_dict(self) -> dict:
        x, y, u, v = self.labeling()
        return {
            "e1": list(self.e1),
            "e2": list(self.e2),
            "pairing": self.pairing,
            "labeling": {"x": x, "y": y, "u": u, "v": v},
        }


def check_condition_B(g: UndirectedGraph) -> Optional[SquareViolation]:
    """First pair of disjoint edges inducing a subgraph of a four-cycle, in
    sorted order of edge pairs, or None when no such pair exists.

    An edge after e1 = (a, x) and disjoint from it has both ends above a.
    It makes such a pair exactly when one end lies outside N(a) and the
    other outside N(x) (pairing "xb-ay", or "xy-ab" with the ends
    swapped), so one mask test per edge, against the neighbors of the
    vertices above a outside N(a), finds the first e1 with a hit.  Its
    first e2 comes from one mask of ends y per candidate b in increasing
    order, built by the cross-edge reading and again by the
    covering-endpoint reading, which must agree.
    """
    nbr = [g.neighbor_mask(v) for v in range(g.n)]
    full = (1 << g.n) - 1
    for a in range(g.n):
        na, later = nbr[a], _above(full, a)
        reach = 0  # neighbors of the vertices above a outside na
        for b in bits(later & ~na):
            reach |= nbr[b]
        for x in bits(later & na):
            if reach & later & ~nbr[x] & ~(1 << x):
                return _first_square(g, nbr, a, x)
    return None


def _first_square(g: UndirectedGraph, nbr: list[int], a: int, x: int) -> SquareViolation:
    """The first edge (b, y) that spans a subgraph of a four-cycle with the
    edge (a, x) of g, which must have one; nbr holds g's neighbor masks."""
    na, nx = nbr[a], nbr[x]
    both = na & nx
    for b in bits(_above((1 << g.n) - 1, a) & ~(1 << x)):
        b_in_na, b_in_nx = na >> b & 1, nx >> b & 1
        ys = _above(nbr[b], b) & ~(1 << x)
        # cross-edge reading: "xb-ay" needs no ab and no xy, "xy-ab" no xb and no ay
        cross = ys & ((0 if b_in_na else ~nx) | (0 if b_in_nx else ~na))
        # covering reading: b or y adjacent to both a and x, or a or x adjacent to both b and y
        covered = -1 if both >> b & 1 else both | (na if b_in_na else 0) | (nx if b_in_nx else 0)
        if cross != ys & ~covered:
            odd = cross ^ ys & ~covered
            e2 = [b, (odd & -odd).bit_length() - 1]
            break
        if cross:
            y = (cross & -cross).bit_length() - 1
            return SquareViolation((a, x), (b, y), "xy-ab" if b_in_na or nx >> y & 1 else "xb-ay")
    else:
        e2 = None  # the mask test of check_condition_B found a hit that no y-mask holds
    description = "cross-edge and covering-endpoint readings disagree"
    raise InternalTheoremViolation(
        counterexample("square-formalizations-disagree", description, g, e1=[a, x], e2=e2)
    )


class Classification(NamedTuple):
    """Special-case labels for a valid decomposition (A0 is ignored).

    primary picks the most specific true class; the flags report each
    reading independently.  The sun flag follows the level-count reading
    (at most two core layers), which is broader than a literal sun.
    """

    primary: str  # complete | star | sun | general
    complete: bool
    star: bool
    sun: bool
    layers: int
    ray_classes: int
    isolated: int

    def to_dict(self) -> dict:
        return self._asdict()


def classify_special(dec: GeneralizedStarDecomposition) -> Classification:
    """Label a valid decomposition as complete, star, sun, or general."""
    k = dec.ray_class_count
    layers = dec.layer_count
    core_size = len(dec.core())
    complete = k == 0
    star = core_size == 1
    sun = layers <= 2
    if complete:
        primary = "complete"
    elif star:
        primary = "star"
    elif k == 1 and layers == 1:
        primary = "sun"
    else:
        primary = "general"
    return Classification(
        primary=primary,
        complete=complete,
        star=star,
        sun=sun,
        layers=layers,
        ray_classes=k,
        isolated=len(dec.a_sets[0]),
    )


class AdversarialWitness(NamedTuple):
    """A digraph whose missing graph is G and whose designated missing
    edge is not good."""

    digraph: Digraph
    designated_edge: tuple[int, int]

    def to_dict(self) -> dict:
        return {
            "digraph": self.digraph.to_dict(),
            "designated_edge": list(self.designated_edge),
        }


def adversarial_digraph(g: UndirectedGraph, viol: SquareViolation) -> AdversarialWitness:
    """Orient the non-edges of g so the violating edge xy is not good.

    With labeling (x, y, u, v): every vertex not adjacent to u sends an
    arc into u, except x which receives u -> x; symmetrically for v and
    y with v -> y.  Every remaining non-adjacent pair is oriented lower
    index to higher index.  Then u -> x with y unreachable from u within
    two steps, and v -> y with x unreachable from v, so xy fails both
    goodness conditions.
    """
    x, y, u, v = viol.labeling()
    if len({x, y, u, v}) != 4:
        raise NotAViolation("labeling does not give four distinct vertices")
    if not (g.has_edge(x, y) and g.has_edge(u, v)):
        raise NotAViolation("labeled pairs xy and uv must be edges")
    if g.has_edge(x, u) or g.has_edge(y, v):
        raise NotAViolation("labeled pairs xu and yv must be non-edges")

    # uv is an edge of g, so no arc below joins u and v
    at_u = [(u, x) if w == x else (w, u) for w in range(g.n) if w != u and not g.has_edge(w, u)]
    at_v = [(v, y) if w == y else (w, v) for w in range(g.n) if w != v and not g.has_edge(w, v)]
    rest = [(p, q) for p, q in g.non_edges() if p not in (u, v) and q not in (u, v)]
    d = Digraph.from_arcs(g.n, at_u + at_v + rest)

    if missing_graph(d) != g:
        raise InternalTheoremViolation(
            counterexample(
                "adversarial-missing-graph",
                "constructed digraph does not have the requested missing graph",
                g,
                violation=viol.to_dict(),
            )
        )
    if classify_missing_edge(d, x, y).good:
        raise InternalTheoremViolation(
            counterexample(
                "adversarial-edge-good",
                "designated edge of the adversarial digraph is good",
                g,
                violation=viol.to_dict(),
                edge=[x, y],
            )
        )
    return AdversarialWitness(d, (min(x, y), max(x, y)))


class RecognitionReport(NamedTuple):
    is_generalized_star: bool
    decomposition: Optional[GeneralizedStarDecomposition]
    classification: Optional[Classification]
    violation: Optional[SquareViolation]
    adversarial: Optional[AdversarialWitness]

    def to_dict(self) -> dict:
        return {
            "kind": "recognition_report",
            "is_generalized_star": self.is_generalized_star,
            "decomposition": self.decomposition.to_dict() if self.decomposition else None,
            "classification": self.classification.to_dict() if self.classification else None,
            "square_violation": self.violation.to_dict() if self.violation else None,
            "adversarial": self.adversarial.to_dict() if self.adversarial else None,
        }


def route_agreement(
    g: UndirectedGraph,
) -> tuple[Optional[SquareViolation], Optional[GeneralizedStarDecomposition]]:
    """Run both recognition routes; they must agree.

    A disagreement between the pairwise condition and the constructive
    decomposition would falsify the characterization theorem and raises
    InternalTheoremViolation with a replayable dump.
    """
    viol = check_condition_B(g)
    dec = decompose(g)
    if (viol is None) != (dec is not None):
        raise InternalTheoremViolation(
            counterexample(
                "route-agreement",
                "pairwise condition and decomposition disagree",
                g,
                violation=viol and viol.to_dict(),
            )
        )
    return viol, dec


def recognize(g: UndirectedGraph) -> RecognitionReport:
    """Report the decomposition of a generalized star, or the square
    violation with its adversarial digraph.

    The peel decides.  Only when it rejects does route_agreement run the
    pairwise scan, whose first violation names the adversarial digraph.
    """
    dec = decompose(g)
    if dec is not None:
        return RecognitionReport(True, dec, classify_special(dec), None, None)
    viol, _ = route_agreement(g)
    assert viol is not None
    return RecognitionReport(False, None, None, viol, adversarial_digraph(g, viol))
