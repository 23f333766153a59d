"""Verification by rebuilding: every emitted document is re-derived from
its free choices, each free choice checked where the verifier reads it
and every derived field compared with the rebuilt one, so a round trip
through JSON verifies and any single-field tamper does not.  Every
verdict of fields_match here is also checked against the whole-document
comparison it narrows, reference_match."""
from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from snc import (
    CertifiedOrder,
    ConvenientOrientation,
    Digraph,
    FallbackWitness,
    ParseError,
    WeightedDigraph,
    WeightMap,
    exact_median_order,
    find_witness,
    find_witness_good,
    good_edges,
    has_weighted_snp,
    local_median_order,
    median_order,
    order_objective,
)
from snc.formats import digraph_from_instance_dict, digraph_instance_dict, fields_match
from snc.generators import (
    Rng,
    gen_generalized_star,
    random_digraph_missing,
    random_graph,
    random_star_profile,
    random_tournament,
    random_weights,
)
from snc.good_edges import (
    _checks,
    _fallback,
    all_missing_edges_good,
    verify_certificate,
    verify_fallback,
)
from snc.median_order import verify_order


def _document(result, wd: WeightedDigraph) -> dict:
    doc = dict(result.to_dict(), instance=digraph_instance_dict(wd))
    return json.loads(json.dumps(doc))


def certificate_doc(seed: int):
    rng = Rng(seed)
    n = 2 + rng.below(8)
    g, _dec = gen_generalized_star(spec=random_star_profile(n, rng))
    d = random_digraph_missing(g, rng.next_u64())
    wd = WeightedDigraph(d, random_weights(n, rng.next_u64(), 5))
    return _document(find_witness_good(wd), wd)


def fallback_doc(seed: int):
    """A fallback document, or None when every missing edge is good."""
    rng = Rng(seed)
    n = 4 + rng.below(5)
    d = random_digraph_missing(random_graph(n, rng.next_u64()), rng.next_u64())
    wd = WeightedDigraph(d, random_weights(n, rng.next_u64(), 5))
    result = find_witness(wd)
    return _document(result, wd) if isinstance(result, FallbackWitness) else None


def order_doc(seed: int):
    rng = Rng(seed)
    n = 1 + rng.below(8)
    t = random_tournament(n, rng.next_u64())
    w = random_weights(n, rng.next_u64(), 5)
    co = exact_median_order(t, w) if rng.next_u64() & 1 else local_median_order(t, w)
    return _document(co, WeightedDigraph(t, w))


# kind -> (document maker, verifier, free choices)
KINDS = {
    "witness_certificate": (certificate_doc, verify_certificate, ("orientations", "order")),
    "witness_fallback": (fallback_doc, verify_fallback, ("witness",)),
    "certified_order": (order_doc, verify_order, ("order",)),
}

seeds = st.integers(0, 2**64 - 1)


def _make(kind: str, seed: int) -> dict:
    doc = KINDS[kind][0](seed)
    assume(doc is not None)
    return doc


def reference_match(rebuilt: dict, doc: dict) -> bool:
    """The whole-document comparison: doc minus its instance is rebuilt,
    as canonical JSON, free choices included."""
    given = {k: v for k, v in doc.items() if k != "instance"}
    return json.dumps(rebuilt, sort_keys=True) == json.dumps(given, sort_keys=True)


def checks_against_reference(kind: str, doc: dict) -> list[tuple[str, bool]]:
    """The checks of kind's verifier on doc, each fields_match verdict
    asserted equal to reference_match's on the same rebuilt document."""

    def compared(rebuilt, given, free):
        check = fields_match(rebuilt, given, free)
        assert check[1] == reference_match(rebuilt, given), (free, given)
        return check

    wd, _labels = digraph_from_instance_dict(doc["instance"])
    with mock.patch.object(good_edges, "fields_match", compared), mock.patch.object(
        median_order, "fields_match", compared
    ):
        return KINDS[kind][1](wd, doc)


def verified(kind: str, doc: dict) -> bool:
    return all(ok for _name, ok in checks_against_reference(kind, doc))


def mutate(value, draw):
    """A JSON value that differs from value, mostly of the same shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + draw(st.sampled_from([-1, 1, 7]))
    if isinstance(value, str):
        return value + "x"
    if value is None or value == [] or value == {}:
        return draw(st.sampled_from([0, [0], {"x": 0}]))
    if isinstance(value, list):
        i = draw(st.integers(0, len(value) - 1))
        how = draw(st.sampled_from(["drop", "repeat", "change"]))
        if how == "drop":
            return value[:i] + value[i + 1 :]
        if how == "repeat":
            return value + [value[i]]
        return value[:i] + [mutate(value[i], draw)] + value[i + 1 :]
    key = draw(st.sampled_from(sorted(value)))
    how = draw(st.sampled_from(["drop", "add", "change"]))
    if how == "drop":
        return {k: v for k, v in value.items() if k != key}
    if how == "add":
        return dict(value, **{key + "_": value[key]})
    return dict(value, **{key: mutate(value[key], draw)})


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_round_trip_verifies(kind, seed):
    doc = _make(kind, seed)
    assert doc["kind"] == kind
    assert verified(kind, doc)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None)
@given(seed=seeds, data=st.data())
def test_tampered_derived_field_fails(kind, seed, data):
    doc = _make(kind, seed)
    derived = sorted(set(doc) - {"instance"} - set(KINDS[kind][2]))
    key = data.draw(st.sampled_from(derived))
    tampered = dict(doc, **{key: mutate(doc[key], data.draw)})
    assert json.dumps(tampered, sort_keys=True) != json.dumps(doc, sort_keys=True)
    assert not verified(kind, tampered)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_tampered_free_choice_fails(kind, seed):
    doc = _make(kind, seed)
    n = doc["instance"]["n"]
    tampered = []
    if "order" in KINDS[kind][2]:
        order = doc["order"]
        tampered.append(dict(doc, order=order + order[:1]))  # not a permutation
        if n >= 2:
            # a permutation with another last vertex: the derived fields no longer match
            tampered.append(dict(doc, order=order[-1:] + order[:-1]))
    if "orientations" in KINDS[kind][2]:
        if doc["orientations"]:
            flipped = [dict(doc["orientations"][0], arc=doc["orientations"][0]["arc"][::-1])]
            tampered.append(dict(doc, orientations=flipped + doc["orientations"][1:]))
        # an extra orientation of a pair that is no missing edge
        extra = {"arc": [0, 1], "condition": "i"}
        tampered.append(dict(doc, orientations=doc["orientations"] + [extra]))
    if "witness" in KINDS[kind][2]:
        tampered += [dict(doc, witness=n), dict(doc, witness=-1)]
    for bad in tampered:
        assert not verified(kind, bad)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100, deadline=None)
@given(seed=seeds, data=st.data())
def test_mutated_free_choice_keeps_the_reference_verdict(kind, seed, data):
    # fields_match leaves out only what the read checked; verified asserts
    # the verdict against reference_match, whatever the mutation did
    doc = _make(kind, seed)
    key = data.draw(st.sampled_from(KINDS[kind][2]))
    tampered = dict(doc, **{key: mutate(doc[key], data.draw)})
    try:
        verified(kind, tampered)
    except ParseError:
        pass


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(seed=seeds, data=st.data())
def test_dropped_or_added_key_fails(kind, seed, data):
    doc = _make(kind, seed)
    assert not verified(kind, dict(doc, extra=0))
    key = data.draw(st.sampled_from(sorted(set(doc) - {"instance"})))
    dropped = {k: v for k, v in doc.items() if k != key}
    if key in KINDS[kind][2]:
        with pytest.raises(ParseError):
            verified(kind, dropped)
    else:
        assert not verified(kind, dropped)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [None, "0", [True], [0.0], {"0": 0}, True, 1.0])
def test_ill_typed_free_choice_is_a_parse_error(kind, bad):
    doc = next(d for d in map(KINDS[kind][0], range(100)) if d is not None)
    for key in KINDS[kind][2]:
        with pytest.raises(ParseError):
            verified(kind, dict(doc, **{key: bad}))


@pytest.mark.parametrize("bad", [True, 1.0], ids=["true", "float"])
def test_true_or_a_float_inside_a_free_choice_is_a_parse_error(bad):
    # fields_match does not compare free choices, so their read must refuse
    # a JSON value that Python finds equal to an int
    order = order_doc(0)
    cert = next(d for d in map(certificate_doc, range(100)) if d["orientations"])
    first, rest = cert["orientations"][0], cert["orientations"][1:]
    tampered = [
        ("certified_order", dict(order, order=[bad] + order["order"][1:])),
        ("witness_certificate", dict(cert, order=[bad] + cert["order"][1:])),
        ("witness_certificate", dict(cert, orientations=[dict(first, arc=[bad, first["arc"][1]]), *rest])),
        ("witness_certificate", dict(cert, orientations=[dict(first, arc=[first["arc"][0], bad]), *rest])),
        ("witness_certificate", dict(cert, orientations=[dict(first, condition=bad), *rest])),
    ]
    for kind, doc in tampered:
        with pytest.raises(ParseError):
            verified(kind, doc)


def test_orientation_keys_and_list_order_keep_their_verdicts():
    # the verdicts of the whole-document comparison, case by case: an
    # orientation object with an extra key and an extra top-level key fail
    # fields_match alone, and a reordered orientation list still verifies,
    # since the rebuilt certificate lists the orientations as given
    doc = next(d for d in map(certificate_doc, range(100)) if len(d["orientations"]) >= 2)
    kind = "witness_certificate"
    noted = [dict(doc["orientations"][0], note=0), *doc["orientations"][1:]]
    for tampered in (dict(doc, orientations=noted), dict(doc, extra=0)):
        checks = checks_against_reference(kind, tampered)
        assert [name for name, ok in checks if not ok] == ["fields_match"]
    assert verified(kind, dict(doc, orientations=doc["orientations"][::-1]))


@pytest.mark.parametrize("kind", KINDS)
def test_equal_values_of_another_json_type_fail(kind):
    # 1.0 and true compare equal to 1 in Python; the comparison is on JSON text
    doc = next(d for d in map(KINDS[kind][0], range(100)) if d is not None)
    key = "feed_vertex" if kind == "certified_order" else "certified"
    value = doc[key]
    assert not verified(kind, dict(doc, **{key: float(value)}))
    other = int(value) if isinstance(value, bool) else bool(value)
    assert not verified(kind, dict(doc, **{key: other}))


# missing edge {0,1}; with arcs 0 -> 2 -> 1, (i) holds vacuously and (ii)
# fails (2 -> 1, and 2 reaches no 0); with arcs 1 -> 2 -> 0 it is the reverse
@pytest.mark.parametrize(
    "arcs, orientation",
    [
        ([(0, 2), (2, 1)], ConvenientOrientation(1, 0, "ii")),
        ([(0, 2), (2, 1)], ConvenientOrientation(1, 0, "i")),
        ([(1, 2), (2, 0)], ConvenientOrientation(0, 1, "i")),
        ([(1, 2), (2, 0)], ConvenientOrientation(0, 1, "ii")),
    ],
    ids=["ii-fails", "i-licenses-the-other-arc", "i-fails", "ii-licenses-the-other-arc"],
)
def test_unlicensed_orientation_fails_its_check(arcs, orientation):
    d = Digraph.from_arcs(3, arcs)
    wd = WeightedDigraph(d, WeightMap.uniform(3))
    t = d.with_arcs([(orientation.tail, orientation.head)])
    co = local_median_order(t, wd.weights)
    doc = _checks(wd, [orientation], co)[0].to_dict()
    checks = dict(verify_certificate(wd, doc))
    assert checks["orientations_licensed"] is False
    assert checks["fields_match"] is True


def test_order_without_feedback_fails_its_checks():
    # 2 -> 0, 2 -> 1 and the missing edge oriented 0 -> 1: the order 1, 0, 2
    # puts the source last, so it fails the feedback property on t and t'
    d = Digraph.from_arcs(3, [(2, 0), (2, 1)])
    wd = WeightedDigraph(d, WeightMap.uniform(3))
    t = d.with_arcs([(0, 1)])
    order = (1, 0, 2)
    co = CertifiedOrder(order, order_objective(t, wd.weights, order))
    doc = _checks(wd, [ConvenientOrientation(0, 1, "i")], co)[0].to_dict()
    checks = dict(verify_certificate(wd, doc))
    assert checks["order_feedback_on_t"] is False and checks["order_feedback_on_t_prime"] is False
    assert checks["witness_inequality"] is False  # w(N+(2)) = 2 > w(N++(2)) = 0
    assert checks["orientations_licensed"] is True and checks["fields_match"] is True
    checks = dict(verify_order(WeightedDigraph(t, wd.weights), co.to_dict()))
    assert checks == {"order_feedback": False, "fields_match": True}


def test_fallback_witness_without_the_snp_fails_its_check():
    # two disjoint missing edges that are not good, plus 3 -> 4: vertex 3
    # reaches 1 and 4 in one step and only 2 in two
    d = Digraph.from_arcs(5, [(2, 0), (3, 1), (1, 2), (0, 3), (3, 4)])
    wd = WeightedDigraph(d, WeightMap.uniform(5))
    snp = [v for v in range(5) if has_weighted_snp(wd, v).holds]
    not_good = tuple((s.a, s.b) for s in all_missing_edges_good(d)[1] if not s.good)
    doc = _fallback(wd, 3, snp, not_good).to_dict()
    checks = dict(verify_fallback(wd, doc))
    assert checks == {"witness_inequality": False, "fields_match": True}


@pytest.mark.parametrize("kind", ["witness_certificate", "certified_order"])
def test_verifiers_read_the_objective_off_their_feedback_scan(kind, monkeypatch):
    """Both verifiers take the objective from the scan state that gives the
    feedback verdict, never from a second pass through order_objective."""
    docs = [KINDS[kind][0](seed) for seed in range(30)]
    boom = mock.Mock(side_effect=AssertionError("order_objective called"))
    monkeypatch.setattr(median_order, "order_objective", boom)
    monkeypatch.setattr(good_edges, "order_objective", boom, raising=False)
    assert all(verified(kind, doc) for doc in docs)


def test_order_on_a_non_tournament_fails_its_check():
    # a certified order of a 3-cycle, checked against the cycle minus one arc
    doc = local_median_order(Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)]), WeightMap.uniform(3))
    tampered = WeightedDigraph(Digraph.from_arcs(3, [(0, 1), (1, 2)]), WeightMap.uniform(3))
    assert verify_order(tampered, doc.to_dict()) == [("instance_is_tournament", False)]
