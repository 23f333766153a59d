"""Goodness classification, convenient orientations, witness pipeline."""
from __future__ import annotations

import json
from fractions import Fraction

import pytest

from snc import (
    ConvenientOrientation,
    Digraph,
    FallbackWitness,
    MissingEdgeStatus,
    NotAllGood,
    NotMissing,
    WeightMap,
    WeightedDigraph,
    WitnessCertificate,
    all_missing_edges_good,
    classify_missing_edge,
    complete_to_tournament,
    feedback_check,
    find_witness,
    find_witness_good,
    has_weighted_snp,
    reorient_at_feed,
    verify_certificate,
)
from snc import good_edges
from snc.digraph import bits
from snc.errors import InternalTheoremViolation
from snc.formats import load_digraph
from snc.good_edges import _certificate, _checks, verify_fallback
from snc.median_order import CertifiedOrder, order_objective
from snc.generators import (
    Rng,
    gen_generalized_star,
    random_digraph_missing,
    random_star_profile,
    random_weights,
)
from snc.oracle import brute_force_snp_vertices


def single_missing() -> Digraph:
    # one missing edge {0,1}, dominated by vertex 2
    return Digraph.from_arcs(3, [(2, 0), (2, 1)])


def two_k2() -> Digraph:
    # both missing edges fail both conditions
    return Digraph.from_arcs(4, [(2, 0), (3, 1), (1, 2), (0, 3)])


def star_missing() -> Digraph:
    # missing edges {0,1} and {0,2} share vertex 0
    return Digraph.from_arcs(4, [(1, 2), (3, 0), (1, 3), (2, 3)])


class TestClassify:
    def test_dominated_edge_satisfies_both(self):
        s = classify_missing_edge(single_missing(), 0, 1)
        assert s.satisfies_i and s.satisfies_ii and s.good

    def test_two_k2_edge_fails_both_with_witnesses(self):
        s = classify_missing_edge(two_k2(), 0, 1)
        assert not s.satisfies_i and not s.satisfies_ii and not s.good
        assert s.witness_against_i == 2  # 2 -> 0 yet 1 is beyond two steps of 2
        assert s.witness_against_ii == 3

    def test_vacuous_goodness_without_in_arcs(self):
        d = Digraph.from_arcs(3, [(0, 2)])
        s = classify_missing_edge(d, 0, 1)
        assert s.satisfies_i and s.satisfies_ii

    def test_rejects_non_missing_pairs(self):
        with pytest.raises(NotMissing):
            classify_missing_edge(single_missing(), 0, 2)

    def test_failure_witnesses_recheck(self):
        d = two_k2()
        for a, b in d.missing_pairs():
            s = classify_missing_edge(d, a, b)
            if s.witness_against_i is not None:
                v = s.witness_against_i
                assert d.has_arc(v, s.a)
                assert not (d.out_mask(v) | d.second_out_mask(v)) >> s.b & 1
            if s.witness_against_ii is not None:
                v = s.witness_against_ii
                assert d.has_arc(v, s.b)
                assert not (d.out_mask(v) | d.second_out_mask(v)) >> s.a & 1


def reference_status(d: Digraph, a: int, b: int) -> MissingEdgeStatus:
    """Independent set-based classification of the missing edge {a,b}, a < b."""

    def reaches(v: int, x: int) -> bool:
        return x in set(bits(d.out_mask(v))) | d.second_out_neighbors(v)

    against_i = next((v for v in bits(d.in_masks()[a]) if not reaches(v, b)), None)
    against_ii = next((v for v in bits(d.in_masks()[b]) if not reaches(v, a)), None)
    return MissingEdgeStatus(a, b, against_i is None, against_ii is None, against_i, against_ii)


def test_classification_matches_set_reference():
    rng = Rng(2024)
    for k in range(150):
        n = 2 + rng.below(13)
        missing = (k % 3 + 1) / 4  # a quarter, half or three quarters of the pairs
        arcs = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.below(1 << 16) >= missing * (1 << 16):
                    arcs.append((u, v) if rng.next_u64() & 1 else (v, u))
        d = Digraph.from_arcs(n, arcs)
        expect = [reference_status(d, a, b) for a, b in d.missing_pairs()]
        ok, statuses = all_missing_edges_good(d)
        assert statuses == expect
        assert all(type(s) is MissingEdgeStatus for s in statuses)
        assert ok == all(s.good for s in expect)
        for s in expect:
            assert classify_missing_edge(d, s.a, s.b) == classify_missing_edge(d, s.b, s.a) == s
            assert type(classify_missing_edge(d, s.a, s.b)) is MissingEdgeStatus
            assert s.to_dict() == {
                "edge": [s.a, s.b],
                "satisfies_i": s.satisfies_i,
                "satisfies_ii": s.satisfies_ii,
                "good": s.good,
                "witness_against_i": s.witness_against_i,
                "witness_against_ii": s.witness_against_ii,
            }


def test_all_missing_edges_good_examples():
    t = Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
    assert all_missing_edges_good(t) == (True, [])
    ok, statuses = all_missing_edges_good(single_missing())
    assert ok and len(statuses) == 1 and statuses[0].good
    ok, statuses = all_missing_edges_good(two_k2())
    assert not ok and all(not s.good for s in statuses) and len(statuses) == 2


def complete(d: Digraph):
    return complete_to_tournament(d, all_missing_edges_good(d)[1])


class TestCompletion:
    def test_lower_endpoint_wins_when_both_conditions_hold(self):
        t, orientations = complete(single_missing())
        assert [(o.tail, o.head, o.condition) for o in orientations] == [(0, 1, "i")]
        assert t.is_tournament() and t.has_arc(0, 1)

    def test_tournament_input_unchanged(self):
        t0 = Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
        t, orientations = complete(t0)
        assert orientations == [] and t == t0

    def test_star_missing_takes_condition_ii_arcs(self):
        t, orientations = complete(star_missing())
        assert [(o.tail, o.head, o.condition) for o in orientations] == [
            (1, 0, "ii"),
            (2, 0, "ii"),
        ]

    def test_not_all_good_raises(self):
        with pytest.raises(NotAllGood, match=r"missing edges not good: \[\(0, 1\), \(2, 3\)\]"):
            complete(two_k2())

    def test_statuses_must_cover_every_missing_edge(self):
        with pytest.raises(ValueError, match="did not cover"):
            complete_to_tournament(star_missing(), all_missing_edges_good(star_missing())[1][:1])


class TestReorient:
    def test_identity_when_feed_off_missing_edges(self):
        d = single_missing()
        t, orientations = complete(d)
        t2 = reorient_at_feed(d, orientations, 2)
        assert t2 == t

    def test_identity_when_already_toward_feed(self):
        d = single_missing()
        t, orientations = complete(d)  # adds (0,1)
        t2 = reorient_at_feed(d, orientations, 1)
        assert t2 == t

    def test_flips_arc_away_from_feed(self):
        d = single_missing()
        t, orientations = complete(d)
        t2 = reorient_at_feed(d, orientations, 0)
        assert t2.has_arc(1, 0) and not t2.has_arc(0, 1)
        assert t2.arc_count == t.arc_count

    def test_matches_t_with_the_arcs_at_the_feed_reversed(self):
        """T' is T with each completed missing arc leaving f reversed,
        in-masks and arc count included, for every feed vertex f."""
        for i in range(40):
            rng = Rng(0x7E ^ i)
            g, _dec = gen_generalized_star(spec=random_star_profile(2 + rng.below(13), rng))
            d = random_digraph_missing(g, rng.next_u64())
            t, orientations = complete(d)
            for f in range(d.n):
                expect = _flip(t, lambda u, v: u == f and not d.has_arc(u, v))
                t2 = reorient_at_feed(d, orientations, f)
                assert t2 == expect and t2.in_masks() == expect.in_masks()
                assert t2.arc_count == expect.arc_count


class TestWitnessPipeline:
    def test_single_missing_instance(self):
        wd = WeightedDigraph(single_missing(), WeightMap.uniform(3))
        cert = find_witness_good(wd)
        assert cert.witness == 1
        assert cert.order.order == (2, 0, 1)
        assert (cert.lhs, cert.rhs) == (Fraction(0), Fraction(0))
        assert all(ok for _name, ok in verify_certificate(wd, cert.to_dict()))

    def test_tournament_reduces_to_feed_vertex(self):
        t = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        wd = WeightedDigraph(t, WeightMap([1, 2, 3]))
        cert = find_witness_good(wd)
        assert cert.orientations == ()
        assert cert.reoriented_arcs == ()
        assert has_weighted_snp(wd, cert.witness).holds

    def test_star_missing_cross_checked_by_scan(self):
        wd = WeightedDigraph(star_missing(), WeightMap.uniform(4))
        cert = find_witness_good(wd)
        assert cert.witness in brute_force_snp_vertices(wd)

    def test_requires_all_good(self):
        with pytest.raises(NotAllGood, match="missing edges not good"):
            find_witness_good(WeightedDigraph(two_k2(), WeightMap.uniform(4)))


class TestDispatch:
    def test_certified_path_taken_for_good_instances(self):
        result = find_witness(WeightedDigraph(single_missing(), WeightMap.uniform(3)))
        assert isinstance(result, WitnessCertificate)

    def test_fallback_still_finds_witness_on_two_k2(self):
        result = find_witness(WeightedDigraph(two_k2(), WeightMap.uniform(4)))
        assert isinstance(result, FallbackWitness)
        assert result.snp_vertices == (0, 1, 2, 3)
        assert result.witness == 0
        assert result.not_good_edges == ((0, 1), (2, 3))

    def test_empty_digraph_rejected(self):
        with pytest.raises(ValueError):
            find_witness(WeightedDigraph(Digraph(0), WeightMap([])))


def test_certificate_survives_serialization_round_trip():
    wd = WeightedDigraph(star_missing(), WeightMap([2, 0, 1, 3]))
    doc = json.loads(json.dumps(find_witness_good(wd).to_dict()))
    checks = verify_certificate(wd, doc)
    assert all(ok for _name, ok in checks) and ("fields_match", True) in checks


def test_pipeline_invariants_on_random_good_instances():
    """Certified witness agrees with the scan; the order certifies on both
    the completed and the reoriented tournament."""
    for i in range(60):
        rng = Rng(0x600D ^ i)
        n = 2 + rng.below(9)
        g, _dec = gen_generalized_star(spec=random_star_profile(n, rng))
        d = random_digraph_missing(g, rng.next_u64())
        w = random_weights(g.n, rng.next_u64(), 10)
        wd = WeightedDigraph(d, w)
        cert = find_witness_good(wd)
        assert cert.witness in brute_force_snp_vertices(wd)
        assert cert.lhs <= cert.rhs
        checks = verify_certificate(wd, cert.to_dict())
        assert all(ok for _name, ok in checks), checks
        # feedback survives reorienting toward any certified feed vertex
        t2 = reorient_at_feed(d, cert.orientations, cert.witness)
        assert feedback_check(t2, w, cert.order.order) is None
        # closure of the second neighborhood
        np_d = set(bits(d.out_mask(cert.witness)))
        assert set(bits(t2.out_mask(cert.witness))) == np_d
        assert t2.second_out_neighbors(cert.witness) <= np_d | d.second_out_neighbors(cert.witness)


def _flip(t: Digraph, which) -> Digraph:
    """t with each arc (u, v) for which which(u, v) holds reversed."""
    return Digraph.from_arcs(t.n, [(v, u) if which(u, v) else (u, v) for u, v in t.arcs()])


def _completion(d: Digraph, orientations) -> Digraph:
    """d with the arc of each orientation added."""
    return d.with_arcs((o.tail, o.head) for o in orientations)


def _skip(t, w, order):
    return None


# one forced failure per check of good_edges._checks, by the module
# attributes of good_edges it replaces
POST_CHECK_FAILURES = {
    # every arc reversed: the order loses the feedback property
    "order_feedback_on_t_prime": {
        "reorient_at_feed": lambda d, orientations, f: _flip(
            _completion(d, orientations), lambda u, v: True
        ),
    },
    # the arcs at the feed vertex reversed, the feedback recheck skipped
    "first_neighborhood_kept": {
        "reorient_at_feed": lambda d, orientations, f: _flip(
            reorient_at_feed(d, orientations, f), lambda u, v: f in (u, v)
        ),
        "feedback_check": _skip,
    },
    # the arcs away from the feed vertex reversed, the feedback recheck skipped
    "second_neighborhood_closed": {
        "reorient_at_feed": lambda d, orientations, f: _flip(
            reorient_at_feed(d, orientations, f), lambda u, v: f not in (u, v)
        ),
        "feedback_check": _skip,
    },
    # the certificate's inequality turned around
    "witness_inequality": {
        "_certificate": lambda *a: _certificate(*a)._replace(lhs=Fraction(1), rhs=Fraction(0)),
    },
}


@pytest.mark.parametrize("stage", sorted(POST_CHECK_FAILURES))
def test_post_check_failure_dump_replays(monkeypatch, stage):
    """Each check of find_witness_good, forced to fail, dumps the instance,
    the orientations and the order under the check's name; _checks on the
    completion rebuilt from them fails that check first again, and
    verify_certificate reports it false for the document they rebuild."""
    for name, patched in POST_CHECK_FAILURES[stage].items():
        monkeypatch.setattr(good_edges, name, patched)
    caught = 0
    for i in range(20):
        rng = Rng(0xD0 ^ i)
        g, _dec = gen_generalized_star(spec=random_star_profile(3 + rng.below(8), rng))
        d = random_digraph_missing(g, rng.next_u64())
        wd = WeightedDigraph(d, random_weights(g.n, rng.next_u64(), 10))
        try:
            find_witness_good(wd)
        except InternalTheoremViolation as exc:
            report = exc.report
        else:
            continue
        assert report.stage == stage
        state = report.state
        assert set(state) == {"instance", "orientations", "order"}
        loaded = load_digraph(json.dumps(state["instance"]))[0]
        assert (loaded.digraph, loaded.weights) == (d, wd.weights)
        orientations = [
            ConvenientOrientation(*o["arc"], o["condition"]) for o in state["orientations"]
        ]
        t = _completion(loaded.digraph, orientations)
        order = tuple(state["order"])
        co = CertifiedOrder(order, order_objective(t, loaded.weights, order))
        cert, checks = _checks(loaded, orientations, co)
        assert next(name for name, ok in checks if not ok) == stage
        verdict = dict(verify_certificate(loaded, cert.to_dict()))
        assert verdict[stage] is False and verdict["fields_match"] is True
        caught += 1
    assert caught


def test_each_pass_classifies_once(monkeypatch):
    """find_witness_good and verify_certificate each classify the missing
    edges once on a good instance; find_witness and verify_fallback each
    classify once on the two-K2 digraph, where the fallback is taken."""
    calls = []

    def counted(d):
        calls.append(d)
        return all_missing_edges_good(d)

    monkeypatch.setattr(good_edges, "all_missing_edges_good", counted)
    for i in range(10):
        rng = Rng(0xC1 ^ i)
        g, _dec = gen_generalized_star(spec=random_star_profile(3 + rng.below(10), rng))
        wd = WeightedDigraph(random_digraph_missing(g, rng.next_u64()), WeightMap.uniform(g.n))
        calls.clear()
        cert = find_witness_good(wd)
        assert len(calls) == 1
        calls.clear()
        assert all(ok for _name, ok in verify_certificate(wd, cert.to_dict()))
        assert len(calls) == 1
    wd = WeightedDigraph(two_k2(), WeightMap.uniform(4))
    calls.clear()
    fallback = find_witness(wd)
    assert isinstance(fallback, FallbackWitness) and len(calls) == 1
    calls.clear()
    assert all(ok for _name, ok in verify_fallback(wd, fallback.to_dict()))
    assert len(calls) == 1
