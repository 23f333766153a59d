"""Good missing edges and the certified witness pipeline.

A missing edge ab of a digraph is good when (i) every in-neighbor of a
reaches b within two steps, or (ii) every in-neighbor of b reaches a
within two steps.  Condition (i) licenses the convenient orientation
(a,b); condition (ii) licenses (b,a).  Classification works on the
digraph's int bitmasks: with R(x) the mask of the vertices that reach x
within two steps (x's in-mask ORed with its in-neighbors' in-masks),
(i) holds exactly when the in-mask of a lies inside R(b), and the
lowest in-neighbor of a outside R(b) is the failure witness.
all_missing_edges_good builds R once per vertex from the in-masks,
classify_missing_edge only for the two endpoints of its edge.

When every missing edge is good, a vertex with the weighted second
neighborhood property is found constructively: complete the digraph to a
tournament T with convenient orientations, take a weighted local median
order of T, complete the digraph a second time to T', with the
orientations at the order's feed vertex f pointed toward f, re-certify
the same order on T', and read the inequality off the original digraph.
One list of checks, _checks, holds every step that the supporting theory
guarantees: order_feedback_on_t_prime, first_neighborhood_kept,
second_neighborhood_closed and witness_inequality.  find_witness_good
raises InternalTheoremViolation on the first that fails, with the check's
name as its stage and the instance with the certificate's free choices,
the orientations and the order, as its dump; verify_certificate reports
the same list between its input checks and fields_match.

A certificate's free choices are its orientations and order, a
fallback's is its witness.  _checks (through _certificate) and _fallback
derive every other field, except that the order comes with its objective
and the fallback with its not-good edges: local search reads the
objective off its final scan state, and verify_certificate off the one
scan state of the order on T that also gives the order's feedback
verdict on T; find_witness takes the not-good edges from the NotAllGood
it caught, and verify_fallback classifies, so each classifies once.  The
producers and verify_certificate / verify_fallback share them, so
verification re-runs the theorem checks and compares the rebuilt
document with the given one.  Each free choice is checked where
it is read to be exactly the JSON value that the rebuilt document holds
for it, so fields_match compares the derived fields only.
"""
from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .digraph import Digraph, WeightedDigraph, WeightMap, bits, has_weighted_snp, rational_dict
from .errors import InternalTheoremViolation, NoWitnessFound, NotAllGood, NotMissing, ParseError
from .formats import counterexample, fields_match, int_list
from .median_order import CertifiedOrder, _verdict, feed_vertex, feedback_check, local_median_order


class MissingEdgeStatus(NamedTuple):
    """Goodness verdict for one missing edge {a,b} with a < b.

    A failure witness for (i) is a vertex v with v -> a and b not within
    two steps of v; symmetrically for (ii).
    """

    a: int
    b: int
    satisfies_i: bool
    satisfies_ii: bool
    witness_against_i: Optional[int] = None
    witness_against_ii: Optional[int] = None

    @property
    def good(self) -> bool:
        return self.satisfies_i or self.satisfies_ii

    def to_dict(self) -> dict:
        a, b, i, ii, witness_i, witness_ii = self
        return {
            "edge": [a, b],
            "satisfies_i": i,
            "satisfies_ii": ii,
            "good": i or ii,
            "witness_against_i": witness_i,
            "witness_against_ii": witness_ii,
        }


class ConvenientOrientation(NamedTuple):
    """Arc chosen for a missing edge, tagged with the licensing condition."""

    tail: int
    head: int
    condition: str  # "i" or "ii"


_ARC = itemgetter(0, 1)  # an orientation's arc, (tail, head)
_CONDITIONS = itemgetter(2, 3)  # a status's (satisfies_i, satisfies_ii)
_new = tuple.__new__  # a record from its fields, without the keyword-aware constructor


def _reaching(into: Sequence[int], x: int) -> int:
    """The mask of the vertices that reach x within two steps, into being
    the digraph's in-masks: x's in-mask ORed with its in-neighbors'
    in-masks.  With digons banned, x itself is never among them."""
    reach = into[x]
    for u in bits(into[x]):
        reach |= into[u]
    return reach


def _statuses(into: Sequence[int], reaching, pairs) -> list[MissingEdgeStatus]:
    """Conditions (i) and (ii) for each missing edge (a, b), a < b, of
    pairs, with into the digraph's in-masks and reaching[x] the _reaching
    mask of each endpoint x: the in-neighbors of a outside reaching[b]
    fail (i), and the lowest of them is its witness; likewise for (ii)."""
    return [
        _new(
            MissingEdgeStatus,
            (
                a,
                b,
                not against_i,
                not against_ii,
                (against_i & -against_i).bit_length() - 1 if against_i else None,
                (against_ii & -against_ii).bit_length() - 1 if against_ii else None,
            ),
        )
        for a, b in pairs
        for against_i, against_ii in [(into[a] & ~reaching[b], into[b] & ~reaching[a])]
    ]


def classify_missing_edge(d: Digraph, a: int, b: int) -> MissingEdgeStatus:
    """Evaluate conditions (i) and (ii) for the missing edge {a,b}.

    The quantifier ranges over every other vertex of the digraph, whole
    vertices included.  Endpoints are normalized so a < b; condition (i)
    is stated for the lower-indexed endpoint.  Failure witnesses are the
    first failing in-neighbors in index order.
    """
    a, b = (a, b) if a < b else (b, a)
    if d.has_arc(a, b) or d.has_arc(b, a) or a == b:
        raise NotMissing(f"{{{a},{b}}} is not a missing edge")
    if a < 0 or b >= d.n:
        raise ValueError(f"vertex {a if a < 0 else b} out of range [0,{d.n})")
    into = d.in_masks()
    return _statuses(into, {a: _reaching(into, a), b: _reaching(into, b)}, [(a, b)])[0]


def all_missing_edges_good(d: Digraph) -> tuple[bool, list[MissingEdgeStatus]]:
    """Goodness of every missing edge, in sorted edge order, from one
    _reaching mask per vertex."""
    into = d.in_masks()
    statuses = _statuses(into, [_reaching(into, x) for x in range(d.n)], d.missing_pairs())
    return all(map(any, map(_CONDITIONS, statuses))), statuses


def complete_to_tournament(
    d: Digraph, statuses: Sequence[MissingEdgeStatus]
) -> tuple[Digraph, list[ConvenientOrientation]]:
    """Add one convenient orientation per missing edge, statuses being the
    verdicts of all_missing_edges_good(d); a missing edge that is not good
    raises NotAllGood, which names every such edge, and statuses that miss
    a missing edge raise ValueError.

    Deterministic rule: when both conditions hold the (i)-orientation
    (lower index -> higher index) wins.
    """
    orientations = [
        ConvenientOrientation(a, b, "i") if i else ConvenientOrientation(b, a, "ii") if ii else None
        for a, b, i, ii, _wi, _wii in statuses
    ]
    if None in orientations:
        bad = [(s.a, s.b) for s in statuses if not s.good]
        raise NotAllGood(f"missing edges not good: {bad}", tuple(bad))
    t = d.with_arcs(map(_ARC, orientations))
    if not t.is_tournament():
        raise ValueError("statuses did not cover every missing edge")
    return t, orientations


def reorient_at_feed(d: Digraph, orientations: Sequence[ConvenientOrientation], f: int) -> Digraph:
    """T': the completion of d by orientations, with every completed
    missing edge at f pointed at f."""
    return d.with_arcs([(u + v - f, f) if f in (u, v) else (u, v) for u, v, _ in orientations])


class WitnessCertificate(NamedTuple):
    """A vertex with the weighted SNP plus the full audit trail.

    orientations and the order are the free choices; _certificate derives
    every other field from them.  lhs and rhs are the exact weights of the
    first and second out-neighborhoods of the witness in the original
    digraph, under the original (unperturbed) weights.
    """

    witness: int
    orientations: tuple[ConvenientOrientation, ...]
    order: CertifiedOrder
    reoriented_arcs: tuple[tuple[int, int], ...]
    lhs: Fraction
    rhs: Fraction
    first_neighborhood: tuple[int, ...]
    second_neighborhood: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "kind": "witness_certificate",
            "certified": True,
            "witness": self.witness,
            "orientations": [{"arc": [u, v], "condition": c} for u, v, c in self.orientations],
            "order": list(self.order.order),
            "objective": self.order.objective.to_dict(),
            "reoriented_arcs": [list(a) for a in self.reoriented_arcs],
            "lhs": rational_dict(self.lhs),
            "rhs": rational_dict(self.rhs),
            "first_neighborhood": list(self.first_neighborhood),
            "second_neighborhood": list(self.second_neighborhood),
        }


class FallbackWitness(NamedTuple):
    """Uncertified witness from the exhaustive scan (non-good instances)."""

    witness: int
    lhs: Fraction
    rhs: Fraction
    snp_vertices: tuple[int, ...]
    not_good_edges: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {
            "kind": "witness_fallback",
            "certified": False,
            "witness": self.witness,
            "lhs": rational_dict(self.lhs),
            "rhs": rational_dict(self.rhs),
            "snp_vertices": list(self.snp_vertices),
            "not_good_edges": [list(e) for e in self.not_good_edges],
        }


def _certificate(
    w: WeightMap,
    orientations: Sequence[ConvenientOrientation],
    co: CertifiedOrder,
    first: int,
    second: int,
) -> WitnessCertificate:
    """The certificate of an order co, with its objective, of a completion
    by orientations, first and second being the masks of the first and
    second out-neighborhoods of its feed vertex in the original digraph;
    every other field is computed here.  The witness is the feed vertex."""
    f = feed_vertex(co)
    return WitnessCertificate(
        witness=f,
        orientations=tuple(orientations),
        order=co,
        # every completed missing edge at f, as it points in T'
        reoriented_arcs=tuple(sorted((u + v - f, f) for u, v, _ in orientations if f in (u, v))),
        lhs=Fraction(w.mask_sum(first), w.scale),
        rhs=Fraction(w.mask_sum(second), w.scale),
        first_neighborhood=tuple(bits(first)),
        second_neighborhood=tuple(bits(second)),
    )


def _fallback(
    wd: WeightedDigraph, v: int, snp: Sequence[int], not_good: tuple[tuple[int, int], ...]
) -> FallbackWitness:
    """The fallback document for witness v among the vertices snp with the
    weighted SNP, in increasing order, and the missing edges not_good that
    are not good, every other field derived here."""
    check = has_weighted_snp(wd, v)
    return FallbackWitness(
        witness=v,
        lhs=check.first_weight,
        rhs=check.second_weight,
        snp_vertices=tuple(snp),
        not_good_edges=not_good,
    )


def find_witness_good(
    wd: WeightedDigraph, move_limit: Optional[int] = None
) -> WitnessCertificate:
    """Run the certified pipeline; requires every missing edge good.  The
    first of _checks that fails is raised under its name (see above)."""
    _ok, statuses = all_missing_edges_good(wd.digraph)
    t, orientations = complete_to_tournament(wd.digraph, statuses)
    co = local_median_order(t, wd.weights, move_limit=move_limit)
    cert, checks = _checks(wd, orientations, co)
    for name, ok in checks:
        if not ok:
            raise InternalTheoremViolation(
                counterexample(
                    name,
                    "a step that the witness proof guarantees failed",
                    wd,
                    orientations=cert.to_dict()["orientations"],
                    order=list(co.order),
                )
            )
    return cert


def _checks(
    wd: WeightedDigraph,
    orientations: Sequence[ConvenientOrientation],
    co: CertifiedOrder,
) -> tuple[WitnessCertificate, list[tuple[str, bool]]]:
    """The certificate of an order co of the completion of wd by
    orientations, with the checks of the steps the theory guarantees, in
    proof order: on T', where the completed missing edges at the feed
    vertex f point at it, the order keeps the feedback property, f keeps
    its out-neighbors and gains no second out-neighbor outside the
    original N+ and N++; and f has the weighted SNP in wd."""
    d, w = wd.digraph, wd.weights
    f = feed_vertex(co)
    first, second = d.out_mask(f), d.second_out_mask(f)
    cert = _certificate(w, orientations, co, first, second)
    t2 = reorient_at_feed(d, orientations, f)
    return cert, [
        ("order_feedback_on_t_prime", feedback_check(t2, w, co.order) is None),
        ("first_neighborhood_kept", t2.out_mask(f) == first),
        ("second_neighborhood_closed", not (t2.second_out_mask(f) & ~(first | second))),
        ("witness_inequality", cert.lhs <= cert.rhs),
    ]


def _snp_vertices(wd: WeightedDigraph) -> list[int]:
    """The vertices with the weighted SNP, in increasing order."""
    return [v for v in range(wd.digraph.n) if has_weighted_snp(wd, v).holds]


def find_witness(wd: WeightedDigraph, move_limit: Optional[int] = None):
    """Dispatch front door.

    Certified pipeline when every missing edge is good; otherwise an
    exhaustive scan over all vertices (correctness over speed at desk
    scale).  An instance where the scan finds nothing would refute the
    second neighborhood conjecture and is raised as NoWitnessFound with a
    counterexample report.
    """
    if wd.digraph.n == 0:
        raise ValueError("empty digraph has no witness")
    try:
        return find_witness_good(wd, move_limit=move_limit)
    except NotAllGood as exc:  # some missing edge is not good: scan every vertex
        not_good = exc.edges
    snp = _snp_vertices(wd)
    if not snp:
        raise NoWitnessFound(
            counterexample("snp-conjecture", "no vertex has the weighted SNP", wd)
        )
    return _fallback(wd, snp[0], snp, not_good)


def _orientation_error(raw, arc) -> ParseError:
    """The error of orientations raw whose first malformed item has arc arc."""
    if not isinstance(raw, list) or not all(isinstance(o, dict) for o in raw):
        return ParseError("orientations must be a list of objects")
    if not isinstance(arc, list) or any(type(x) is not int for x in arc):
        return ParseError("orientation arc must be a list of integers")
    return ParseError('an orientation is {"arc": [tail, head], "condition": "i" or "ii"}')


def verify_certificate(wd: WeightedDigraph, doc: dict) -> list[tuple[str, bool]]:
    """Re-derive a witness_certificate document from its free choices.

    Reads only orientations and order from doc, checks them as inputs,
    runs the theorem checks of _checks on them, and compares the rebuilt
    certificate with doc in fields_match.  The read checks each
    orientation to be {"arc": [two JSON integers], "condition": "i" or
    "ii"} and the order to be a list of JSON integers, exactly what the
    rebuilt certificate holds, so fields_match leaves both out; an
    orientation with another key keeps the orientations in, and fails
    there.  Returns (check name, ok) pairs; all must be true for a sound
    certificate.  Ill-typed choices raise ParseError, the orientations'
    before the order's.
    """
    d, w = wd.digraph, wd.weights
    raw = doc.get("orientations")
    if not isinstance(raw, list):
        raise _orientation_error(raw, None)
    # the status of each missing edge that no orientation has covered yet
    status = {(s.a, s.b): s for s in all_missing_edges_good(d)[1]}
    orientations = []
    covered = licensed = True
    exact = True  # every object has the keys arc and condition only
    for o in raw:
        arc = o.get("arc") if isinstance(o, dict) else None
        if not isinstance(arc, list) or len(arc) != 2 or o.get("condition") not in ("i", "ii"):
            raise _orientation_error(raw, arc)
        (u, v), c = arc, o["condition"]
        if type(u) is not int or type(v) is not int:
            raise _orientation_error(raw, arc)
        orientations.append(ConvenientOrientation(u, v, c))
        exact = exact and len(o) == 2
        s = status.pop((u, v) if u < v else (v, u), None)
        if s is None:  # not a missing edge, or one already covered
            covered = False
        elif not (s.satisfies_i and u < v if c == "i" else s.satisfies_ii and u > v):
            # condition (i) licenses the lower endpoint as tail, (ii) the higher
            licensed = False
    order = int_list(doc.get("order"), "order")
    if not order or sorted(order) != list(range(d.n)):
        return [("order_is_permutation", False)]
    if not covered or status:
        return [("orientations_cover_missing_edges", False)]
    # every missing edge covered once: the completion T is a tournament
    violation, objective = _verdict(d.with_arcs(map(_ARC, orientations)), w, order)
    cert, checks = _checks(wd, orientations, CertifiedOrder(order, objective))
    return [
        ("orientations_cover_missing_edges", True),
        ("orientations_licensed", licensed),
        ("order_feedback_on_t", violation is None),
        *checks,
        fields_match(cert.to_dict(), doc, ("orientations", "order") if exact else ("order",)),
    ]


def verify_fallback(wd: WeightedDigraph, doc: dict) -> list[tuple[str, bool]]:
    """Re-derive a witness_fallback document from its witness alone.

    The witness is read as a JSON integer, exactly the one the rebuilt
    document holds, so fields_match compares the derived fields only."""
    v = doc.get("witness")
    if type(v) is not int:
        raise ParseError("witness must be an integer")
    if not 0 <= v < wd.digraph.n:
        return [("witness_in_range", False)]
    _ok, statuses = all_missing_edges_good(wd.digraph)
    not_good = tuple((s.a, s.b) for s in statuses if not s.good)
    fallback = _fallback(wd, v, _snp_vertices(wd), not_good)
    return [
        ("witness_inequality", fallback.lhs <= fallback.rhs),
        fields_match(fallback.to_dict(), doc, ("witness",)),
    ]
