"""Good missing edges and the certified witness pipeline.

A missing edge ab of a digraph is good when (i) every in-neighbor of a
reaches b within two steps, or (ii) every in-neighbor of b reaches a
within two steps.  Condition (i) licenses the convenient orientation
(a,b); condition (ii) licenses (b,a).

When every missing edge is good, a vertex with the weighted second
neighborhood property is found constructively: complete the digraph to a
tournament with convenient orientations, take a weighted local median
order, reorient the completed missing edges at its feed vertex toward
that vertex, re-certify the same order on the reoriented tournament, and
read the inequality off the original digraph.  Every step that the
supporting theory guarantees is asserted at run time; a failure raises
InternalTheoremViolation with a full replayable dump instead of being
swallowed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .digraph import Digraph, WeightedDigraph, WeightMap
from .errors import (
    CounterexampleReport,
    InternalTheoremViolation,
    NoWitnessFound,
    NotAllGood,
    NotMissing,
)
from .median_order import (
    CertifiedOrder,
    feed_vertex,
    feedback_check,
    local_median_order,
)


@dataclass(frozen=True)
class MissingEdgeStatus:
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
        return {
            "edge": [self.a, self.b],
            "satisfies_i": self.satisfies_i,
            "satisfies_ii": self.satisfies_ii,
            "good": self.good,
            "witness_against_i": self.witness_against_i,
            "witness_against_ii": self.witness_against_ii,
        }


@dataclass(frozen=True)
class ConvenientOrientation:
    """Arc chosen for a missing edge, tagged with the licensing condition."""

    tail: int
    head: int
    condition: str  # "i" or "ii"

    def to_dict(self) -> dict:
        return {"arc": [self.tail, self.head], "condition": self.condition}


def _reaches_within_two(d: Digraph, v: int, target: int) -> bool:
    return target in d._out[v] or target in d.second_out_neighbors(v)


def classify_missing_edge(d: Digraph, a: int, b: int) -> MissingEdgeStatus:
    """Evaluate conditions (i) and (ii) for the missing edge {a,b}.

    The quantifier ranges over every other vertex of the digraph, whole
    vertices included.  Endpoints are normalized so a < b; condition (i)
    is stated for the lower-indexed endpoint.
    """
    a, b = (a, b) if a < b else (b, a)
    if d.has_arc(a, b) or d.has_arc(b, a) or a == b:
        raise NotMissing(f"{{{a},{b}}} is not a missing edge")
    d._check_vertex(a)
    d._check_vertex(b)

    witness_i = witness_ii = None
    for v in sorted(d.in_neighbors(a)):
        if v != b and not _reaches_within_two(d, v, b):
            witness_i = v
            break
    for v in sorted(d.in_neighbors(b)):
        if v != a and not _reaches_within_two(d, v, a):
            witness_ii = v
            break
    return MissingEdgeStatus(
        a,
        b,
        satisfies_i=witness_i is None,
        satisfies_ii=witness_ii is None,
        witness_against_i=witness_i,
        witness_against_ii=witness_ii,
    )


def all_missing_edges_good(d: Digraph) -> tuple[bool, list[MissingEdgeStatus]]:
    """Goodness of every missing edge, in sorted edge order."""
    statuses = [classify_missing_edge(d, a, b) for a, b in d.missing_pairs()]
    return all(s.good for s in statuses), statuses


def complete_to_tournament(
    d: Digraph, statuses: Optional[Sequence[MissingEdgeStatus]] = None
) -> tuple[Digraph, list[ConvenientOrientation]]:
    """Add one convenient orientation per missing edge.

    Deterministic rule: when both conditions hold the (i)-orientation
    (lower index -> higher index) wins.
    """
    if statuses is None:
        ok, statuses = all_missing_edges_good(d)
        if not ok:
            raise NotAllGood("some missing edge is not good")
    if not all(s.good for s in statuses):
        raise NotAllGood("some missing edge is not good")
    t = d.copy()
    orientations = []
    for s in statuses:
        if s.satisfies_i:
            o = ConvenientOrientation(s.a, s.b, "i")
        else:
            o = ConvenientOrientation(s.b, s.a, "ii")
        t.add_arc(o.tail, o.head)
        orientations.append(o)
    if not t.is_tournament():
        raise NotAllGood("statuses did not cover every missing edge")
    return t, orientations


def reorient_at_feed(
    t: Digraph, missing_of_d: Sequence[tuple[int, int]], f: int
) -> Digraph:
    """Redirect every completed missing edge incident to f to point at f."""
    flip_heads = set()
    for a, b in missing_of_d:
        if f == a and t.has_arc(f, b):
            flip_heads.add(b)
        elif f == b and t.has_arc(f, a):
            flip_heads.add(a)
    if not flip_heads:
        return t.copy()
    t2 = Digraph(t.n)
    for u, v in t.arcs():
        if u == f and v in flip_heads:
            t2.add_arc(v, u)
        else:
            t2.add_arc(u, v)
    return t2


@dataclass(frozen=True)
class WitnessCertificate:
    """A vertex with the weighted SNP plus the full audit trail.

    lhs and rhs are the exact weights of the first and second out-
    neighborhoods of the witness in the original digraph, under the
    original (unperturbed) weights; lhs <= rhs always holds.
    """

    witness: int
    orientations: tuple[ConvenientOrientation, ...]
    order: CertifiedOrder
    reoriented_arcs: tuple[tuple[int, int], ...]
    recheck_violations: int
    lhs: Fraction
    rhs: Fraction
    first_neighborhood: tuple[int, ...]
    second_neighborhood: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "kind": "witness_certificate",
            "certified": True,
            "witness": self.witness,
            "orientations": [o.to_dict() for o in self.orientations],
            "order": list(self.order.order),
            "objective": self.order.objective.to_dict(),
            "violations_checked": self.order.violations_checked,
            "reoriented_arcs": [list(a) for a in self.reoriented_arcs],
            "t_prime_recheck_violations": self.recheck_violations,
            "lhs": {"num": self.lhs.numerator, "den": self.lhs.denominator},
            "rhs": {"num": self.rhs.numerator, "den": self.rhs.denominator},
            "first_neighborhood": list(self.first_neighborhood),
            "second_neighborhood": list(self.second_neighborhood),
        }


@dataclass(frozen=True)
class FallbackWitness:
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
            "lhs": {"num": self.lhs.numerator, "den": self.lhs.denominator},
            "rhs": {"num": self.rhs.numerator, "den": self.rhs.denominator},
            "snp_vertices": list(self.snp_vertices),
            "not_good_edges": [list(e) for e in self.not_good_edges],
        }


def _dump_state(d: Digraph, w: WeightMap, **extra) -> dict:
    state = {"digraph": d.to_dict(), "weights": w.to_dicts()}
    state.update(extra)
    return state


def find_witness_good(
    wd: WeightedDigraph, move_limit: Optional[int] = None
) -> WitnessCertificate:
    """Run the certified pipeline; requires every missing edge good."""
    d, w = wd.digraph, wd.weights
    ok, statuses = all_missing_edges_good(d)
    if not ok:
        bad = [(s.a, s.b) for s in statuses if not s.good]
        raise NotAllGood(f"missing edges not good: {bad}")
    t, orientations = complete_to_tournament(d, statuses)
    co = local_median_order(t, w, move_limit=move_limit)
    f = feed_vertex(co)
    missing = d.missing_pairs()
    t2 = reorient_at_feed(t, missing, f)

    recheck = feedback_check(t2, w, co.order)
    if recheck:
        raise InternalTheoremViolation(
            CounterexampleReport(
                stage="feedback-after-reorientation",
                description="reorienting missing edges at the feed vertex broke the feedback property",
                state=_dump_state(
                    d,
                    w,
                    tournament=t.to_dict(),
                    reoriented=t2.to_dict(),
                    order=list(co.order),
                    violations=[v.to_dict() for v in recheck],
                ),
            )
        )

    n_plus_d = d.out_neighbors(f)
    if t2.out_neighbors(f) != n_plus_d:
        raise InternalTheoremViolation(
            CounterexampleReport(
                stage="first-neighborhood-mismatch",
                description="feed vertex gained out-neighbors after reorientation",
                state=_dump_state(d, w, reoriented=t2.to_dict(), feed=f),
            )
        )
    n_plus_plus_d = d.second_out_neighbors(f)
    closure = t2.second_out_neighbors(f)
    if not closure <= (n_plus_d | n_plus_plus_d):
        raise InternalTheoremViolation(
            CounterexampleReport(
                stage="second-neighborhood-closure",
                description="second neighborhood in the reoriented tournament escaped the original one",
                state=_dump_state(
                    d, w, reoriented=t2.to_dict(), feed=f, escaped=sorted(closure - (n_plus_d | n_plus_plus_d))
                ),
            )
        )

    lhs = w.total(n_plus_d)
    rhs = w.total(n_plus_plus_d)
    if lhs > rhs:
        raise InternalTheoremViolation(
            CounterexampleReport(
                stage="witness-inequality",
                description="feed vertex failed the weighted SNP in the original digraph",
                state=_dump_state(
                    d, w, feed=f, lhs=str(lhs), rhs=str(rhs), order=list(co.order)
                ),
            )
        )

    flipped = tuple(
        sorted((x, f) for (a, b) in missing for x in (a, b) if f in (a, b) and x != f)
    )
    return WitnessCertificate(
        witness=f,
        orientations=tuple(orientations),
        order=co,
        reoriented_arcs=flipped,
        recheck_violations=0,
        lhs=lhs,
        rhs=rhs,
        first_neighborhood=tuple(sorted(n_plus_d)),
        second_neighborhood=tuple(sorted(n_plus_plus_d)),
    )


def find_witness(wd: WeightedDigraph, move_limit: Optional[int] = None):
    """Dispatch front door.

    Certified pipeline when every missing edge is good; otherwise an
    exhaustive scan over all vertices (correctness over speed at desk
    scale).  An instance where the scan finds nothing would refute the
    second neighborhood conjecture and is raised as NoWitnessFound with a
    counterexample report.
    """
    d, w = wd.digraph, wd.weights
    if d.n == 0:
        raise ValueError("empty digraph has no witness")
    ok, statuses = all_missing_edges_good(d)
    if ok:
        return find_witness_good(wd, move_limit=move_limit)

    from .oracle import brute_force_snp_vertices  # lazy: oracle imports this module

    snp = brute_force_snp_vertices(wd)
    if not snp:
        raise NoWitnessFound(
            CounterexampleReport(
                stage="snp-conjecture",
                description="no vertex has the weighted SNP",
                state=_dump_state(d, w),
            )
        )
    v = min(snp)
    lhs = w.total(d.out_neighbors(v))
    rhs = w.total(d.second_out_neighbors(v))
    return FallbackWitness(
        witness=v,
        lhs=lhs,
        rhs=rhs,
        snp_vertices=tuple(sorted(snp)),
        not_good_edges=tuple((s.a, s.b) for s in statuses if not s.good),
    )


def certificate_from_dict(doc: dict) -> WitnessCertificate:
    """Rebuild a certificate from its serialized form (for re-verification)."""
    from .median_order import perturbed_from_dict

    def rat(d: dict) -> Fraction:
        return Fraction(int(d["num"]), int(d["den"]))

    order = CertifiedOrder(
        order=tuple(int(v) for v in doc["order"]),
        objective=perturbed_from_dict(doc["objective"]),
        violations_checked=int(doc["violations_checked"]),
    )
    orientations = tuple(
        ConvenientOrientation(int(o["arc"][0]), int(o["arc"][1]), str(o["condition"]))
        for o in doc["orientations"]
    )
    return WitnessCertificate(
        witness=int(doc["witness"]),
        orientations=orientations,
        order=order,
        reoriented_arcs=tuple((int(a), int(b)) for a, b in doc["reoriented_arcs"]),
        recheck_violations=int(doc["t_prime_recheck_violations"]),
        lhs=rat(doc["lhs"]),
        rhs=rat(doc["rhs"]),
        first_neighborhood=tuple(int(v) for v in doc["first_neighborhood"]),
        second_neighborhood=tuple(int(v) for v in doc["second_neighborhood"]),
    )


def verify_certificate(wd: WeightedDigraph, cert: WitnessCertificate) -> list[tuple[str, bool]]:
    """Re-derive every claim of a certificate from scratch.

    Returns (check name, ok) pairs; all must be true for a sound
    certificate.  Shares no state with the pipeline that produced it.
    """
    d, w = wd.digraph, wd.weights
    checks: list[tuple[str, bool]] = []

    missing = set(d.missing_pairs())
    oriented = {tuple(sorted((o.tail, o.head))): o for o in cert.orientations}
    checks.append(("orientations_cover_missing_edges", set(oriented) == missing))

    sound = True
    for o in cert.orientations:
        s = classify_missing_edge(d, o.tail, o.head)
        licensed = s.satisfies_i if o.condition == "i" else s.satisfies_ii
        # condition (i) belongs to the lower endpoint as tail, (ii) to the higher
        direction_ok = (o.condition == "i") == (o.tail < o.head)
        sound = sound and licensed and direction_ok
    checks.append(("orientations_licensed", sound))

    t = d.copy()
    try:
        for o in cert.orientations:
            t.add_arc(o.tail, o.head)
        extends = t.is_tournament()
    except Exception:
        extends = False
    checks.append(("completion_is_tournament", extends))

    checks.append(("order_feedback_on_t", extends and not feedback_check(t, w, cert.order.order)))

    f = cert.witness
    checks.append(("witness_is_feed_vertex", bool(cert.order.order) and cert.order.order[-1] == f))

    if extends:
        t2 = reorient_at_feed(t, sorted(missing), f)
        checks.append(("order_feedback_on_t_prime", not feedback_check(t2, w, cert.order.order)))
    else:
        checks.append(("order_feedback_on_t_prime", False))

    lhs = w.total(d.out_neighbors(f))
    rhs = w.total(d.second_out_neighbors(f))
    checks.append(("lhs_matches", lhs == cert.lhs))
    checks.append(("rhs_matches", rhs == cert.rhs))
    checks.append(("witness_inequality", lhs <= rhs))
    checks.append(
        ("neighborhoods_match",
         tuple(sorted(d.out_neighbors(f))) == cert.first_neighborhood
         and tuple(sorted(d.second_out_neighbors(f))) == cert.second_neighborhood)
    )
    return checks
