"""Recognition routes, decomposition validity, adversarial construction.

The nested star fixture has edges {0,1},{0,2},{0,3},{1,3}: core layers
{0} then {1}, ray 2 adjacent to {0}, ray 3 adjacent to {0,1}.  Its two
maximum stable sets are {1,2} and {2,3}; the lexicographic tie-break
picks {1,2}, computed here by the exhaustive subset oracle.
"""
from __future__ import annotations

import itertools
import json

import pytest

from snc import (
    Digraph,
    GeneralizedStarDecomposition,
    InternalTheoremViolation,
    MissingEdgeStatus,
    NotAViolation,
    UndirectedGraph,
    adversarial_digraph,
    all_missing_edges_good,
    check_condition_B,
    classify_missing_edge,
    classify_special,
    decompose,
    max_stable_set,
    missing_graph,
    recognize,
    validate_decomposition,
)
from snc import stars
from snc.generators import Rng, random_graph
from snc.oracle import graph_from_code
from snc.formats import load_graph
from snc.generators import GenSpec, gen_generalized_star, random_star_profile
from snc.stars import SquareViolation, route_agreement


def two_k2() -> UndirectedGraph:
    return UndirectedGraph.from_edges(4, [(0, 1), (2, 3)])


def p4() -> UndirectedGraph:
    return UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def nested_star() -> UndirectedGraph:
    return UndirectedGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 3)])


def k13() -> UndirectedGraph:
    return UndirectedGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def brute_max_stable_lexmin(g: UndirectedGraph) -> frozenset[int]:
    """Oracle: scan all subsets, keep maximum size, break ties by sorted
    sequence."""
    best: tuple[int, ...] = ()
    for r in range(g.n, -1, -1):
        candidates = [
            c for c in itertools.combinations(range(g.n), r) if g.is_stable(c)
        ]
        if candidates:
            best = min(candidates)
            break
    return frozenset(best)


def recognition_inputs():
    """Every labeled graph on up to 6 vertices, then the 2000 seeded random
    graphs on 6..9 vertices of the theorem3 acceptance sweep's random leg
    (seed 13), drawn as that leg draws them."""
    for n in range(1, 7):
        for code in range(1 << n * (n - 1) // 2):
            yield graph_from_code(n, code)
    for i in range(2000):
        rng = Rng(13 ^ i)
        yield random_graph(6 + rng.below(4), rng.next_u64())


def _induces_square_subgraph(na: int, nx: int, e2: tuple[int, int]):
    """The pairing whose four-cycle holds every cross edge between
    e1 = (a, x), given by the neighbor masks na and nx of its endpoints,
    and e2 = (b, y); None when neither four-cycle does."""
    b, y = e2
    if not (nx >> y & 1 or na >> b & 1):  # no xy, no ab
        return "xb-ay"
    if not (nx >> b & 1 or na >> y & 1):  # no xb, no ay
        return "xy-ab"
    return None


def _endpoint_covers(na: int, nx: int, e2: tuple[int, int]) -> bool:
    # equivalent reading: some endpoint of one edge is adjacent to both
    # endpoints of the other (an endpoint of e2 adjacent to both a and x
    # is a bit of na & nx)
    both = 1 << e2[0] | 1 << e2[1]
    return na & both == both or nx & both == both or na & nx & both != 0


def ref_condition_B(g: UndirectedGraph):
    """Reference: the first square pair by testing every pair of edges in
    sorted order, with both formalizations required to agree."""
    edges = g.edges()
    for idx, e1 in enumerate(edges):
        na, nx = g.neighbor_mask(e1[0]), g.neighbor_mask(e1[1])
        for e2 in edges[idx + 1 :]:
            if e1[0] in e2 or e1[1] in e2:
                continue
            pairing = _induces_square_subgraph(na, nx, e2)
            assert _endpoint_covers(na, nx, e2) == (pairing is None)
            if pairing is not None:
                return SquareViolation(e1, e2, pairing)
    return None


def star_minus_edge(spec, k: int) -> UndirectedGraph:
    """The generalized star of spec without its edge number k (mod m)."""
    g, _dec = gen_generalized_star(spec=spec)
    edges = g.edges()
    return UndirectedGraph.from_edges(g.n, edges[: k % len(edges)] + edges[k % len(edges) + 1 :])


class TestConditionB:
    def test_two_disjoint_bare_edges_violate(self):
        v = check_condition_B(two_k2())
        assert v is not None and v.e1 == (0, 1) and v.e2 == (2, 3)

    def test_path_violates_via_middle_edge(self):
        v = check_condition_B(p4())
        assert v is not None
        assert {v.e1, v.e2} == {(0, 1), (2, 3)}

    def test_nested_star_has_no_violation(self):
        assert check_condition_B(nested_star()) is None

    def test_both_formalizations_agree_exhaustively(self):
        for n in (2, 3, 4):
            for code in range(1 << n * (n - 1) // 2):
                g = graph_from_code(n, code)
                edges = g.edges()
                for e1, e2 in itertools.combinations(edges, 2):
                    if set(e1) & set(e2):
                        continue
                    na, nx = g.neighbor_mask(e1[0]), g.neighbor_mask(e1[1])
                    assert _endpoint_covers(na, nx, e2) == (
                        _induces_square_subgraph(na, nx, e2) is None
                    )

    def test_mask_scan_matches_pair_scan_on_every_small_graph(self):
        for n in range(1, 7):
            for code in range(1 << n * (n - 1) // 2):
                g = graph_from_code(n, code)
                assert check_condition_B(g) == ref_condition_B(g)

    def test_mask_scan_matches_pair_scan_on_random_and_near_stars(self):
        rng = Rng(11)
        for _ in range(300):
            g = random_graph(7 + rng.below(14), rng.next_u64())
            assert check_condition_B(g) == ref_condition_B(g)
        for _ in range(300):
            g = star_minus_edge(random_star_profile(4 + rng.below(20), rng), rng.next_u64())
            assert check_condition_B(g) == ref_condition_B(g)

    def test_star_minus_last_core_edge_at_256(self):
        # four ray classes of 32 over four core layers of 32, minus the last
        # edge (254, 255); the pair scan takes 96 s here to find the same pair
        g = star_minus_edge(GenSpec(a_profile=(32,) * 4, x_profile=(32,) * 4), -1)
        assert check_condition_B(g) == SquareViolation((96, 254), (97, 255), "xb-ay")


class TestMaxStableSet:
    def test_examples(self):
        k3 = UndirectedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert max_stable_set(k3) == {0}
        assert max_stable_set(k13()) == {1, 2, 3}
        assert max_stable_set(nested_star()) == {1, 2}

    def test_against_subset_oracle(self):
        """The peel rejects exactly the graphs with a square violation and
        picks the subset oracle's choice on every threshold graph."""
        for g in recognition_inputs():
            s = max_stable_set(g)
            assert (s is None) == (check_condition_B(g) is not None)
            if s is not None:
                assert s == brute_max_stable_lexmin(g)


class TestDecompose:
    def test_star(self):
        dec = decompose(k13())
        assert dec.a_sets == (frozenset(), frozenset({1, 2, 3}))
        assert dec.x_sets == (frozenset({0}),)

    def test_nested_star_validates(self):
        assert validate_decomposition(nested_star(), decompose(nested_star())) == (True, None)

    def test_two_k2_fails(self):
        assert decompose(two_k2()) is None

    def test_isolated_vertices_go_to_a0(self):
        g = UndirectedGraph.from_edges(5, [(0, 1)])
        assert decompose(g).a_sets[0] == {2, 3, 4}

    def test_edgeless_graph_is_degenerate_star(self):
        assert decompose(UndirectedGraph(5)).x_sets == ()

    def test_invalid_candidate_is_an_internal_violation(self, monkeypatch):
        monkeypatch.setattr(stars, "validate_decomposition", lambda g, dec: (False, "clique"))
        with pytest.raises(InternalTheoremViolation) as raised:
            decompose(nested_star())
        report = raised.value.report
        assert report.stage == "decomposition-invalid" and "clique" in report.description
        # the dump is the graph alone; decomposing it again fails alike
        g, _labels = load_graph(json.dumps(report.state["instance"]))
        assert g == nested_star() and list(report.state) == ["instance"]
        with pytest.raises(InternalTheoremViolation) as again:
            decompose(g)
        assert again.value.report == report


class TestValidator:
    def test_complete_graph_clique_only_reading(self):
        k3 = UndirectedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        dec = GeneralizedStarDecomposition(
            (frozenset(),), (frozenset({0, 1, 2}),)
        )
        assert validate_decomposition(k3, dec) == (True, None)

    def test_nested_star_layer_swap_fails_neighborhoods(self):
        dec = GeneralizedStarDecomposition(
            (frozenset(), frozenset({2}), frozenset({3})),
            (frozenset({1}), frozenset({0})),
        )
        ok, clause = validate_decomposition(nested_star(), dec)
        assert not ok and clause == "neighborhoods"

    def test_partition_gaps_fail(self):
        dec = GeneralizedStarDecomposition(
            (frozenset(), frozenset({1, 2, 3})), (frozenset(),)
        )
        ok, clause = validate_decomposition(k13(), dec)
        assert not ok and clause == "partition"

    # on the path 0-1-2, whose decompositions are A1 = {0, 2} over X1 = {1};
    # each reading passes every clause before the one it breaks
    @pytest.mark.parametrize(
        "a_sets, x_sets, clause",
        [
            ((), ({0, 1, 2},), "partition"),
            (((), (0, 2)), ((1,), ()), "clique"),
            (((), (1,)), ((0, 2),), "clique"),
            (((), (0, 2), ()), ((1,),), "stable"),
            (((), (0, 1)), ((2,),), "stable"),
            (((), (0,), (2,)), ((1,),), "neighborhoods"),
            (((0,), (2,)), ((1,),), "neighborhoods"),
        ],
        ids=[
            "no-a0",
            "empty-core-layer",
            "core-not-clique",
            "empty-ray-class",
            "rays-not-stable",
            "more-ray-classes-than-layers",
            "a0-not-isolated",
        ],
    )
    def test_each_reject_names_its_clause(self, a_sets, x_sets, clause):
        p3 = UndirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        dec = GeneralizedStarDecomposition(
            tuple(map(frozenset, a_sets)), tuple(map(frozenset, x_sets))
        )
        assert validate_decomposition(p3, dec) == (False, clause)

    def test_nested_neighborhoods_in_accepted_decompositions(self):
        for seed in range(40):
            n = 2 + seed % 7
            g = random_graph(n, seed * 997 + 13)
            dec = decompose(g)
            if dec is None:
                continue
            classes = dec.a_sets[1:]
            for i, cls_i in enumerate(classes):
                for cls_j in classes[i:]:
                    for a in cls_i:
                        for b in cls_j:
                            assert not g.neighbor_mask(a) & ~g.neighbor_mask(b)


class TestClassify:
    def test_complete_reading(self):
        dec = GeneralizedStarDecomposition((frozenset(),), (frozenset({0, 1, 2, 3}),))
        assert classify_special(dec).primary == "complete"

    def test_star_takes_precedence_and_carries_sun_flag(self):
        c = classify_special(decompose(k13()))
        assert c.primary == "star" and c.star and c.sun

    def test_nested_star_is_general_with_level_count_sun_flag(self):
        c = classify_special(decompose(nested_star()))
        assert c.primary == "general"
        assert c.sun  # two core layers
        assert c.layers == 2 and c.ray_classes == 2

    def test_three_layer_star_loses_sun_flag(self):
        from snc.generators import gen_generalized_star

        _g, dec = gen_generalized_star(a_profile=(1, 1, 1), x_profile=(1, 1, 1))
        c = classify_special(dec)
        assert c.primary == "general" and not c.sun and c.layers == 3


class TestAdversarial:
    def test_two_k2_matches_hand_construction(self):
        g = two_k2()
        viol = check_condition_B(g)
        w = adversarial_digraph(g, viol)
        assert w.digraph.arcs() == [(0, 3), (1, 2), (2, 0), (3, 1)]
        assert w.designated_edge == (0, 1)
        assert not classify_missing_edge(w.digraph, 0, 1).good

    def test_path_designated_edge_not_good(self):
        g = p4()
        viol = check_condition_B(g)
        w = adversarial_digraph(g, viol)
        assert missing_graph(w.digraph) == g
        assert not classify_missing_edge(w.digraph, *w.designated_edge).good

    def test_rejects_star_labelings(self):
        from snc.stars import SquareViolation

        g = nested_star()
        fake = SquareViolation((0, 2), (1, 3), "xb-ay")
        with pytest.raises(NotAViolation):
            adversarial_digraph(g, fake)

    def test_random_violating_graphs(self):
        found = 0
        for seed in range(60):
            n = 4 + seed % 5
            g = random_graph(n, seed * 11 + 3)
            viol = check_condition_B(g)
            if viol is None:
                continue
            found += 1
            w = adversarial_digraph(g, viol)
            assert missing_graph(w.digraph) == g
            status = classify_missing_edge(w.digraph, *w.designated_edge)
            assert not status.satisfies_i and not status.satisfies_ii
        assert found > 20

    @pytest.mark.parametrize(
        "name, patched, stage",
        [
            ("missing_graph", lambda d: UndirectedGraph(d.n), "adversarial-missing-graph"),
            (
                "classify_missing_edge",
                lambda d, x, y: MissingEdgeStatus(x, y, True, True),
                "adversarial-edge-good",
            ),
        ],
        ids=["missing-graph", "edge-good"],
    )
    def test_failure_dump_replays(self, monkeypatch, name, patched, stage):
        # the dump is the graph and the violation; building on them again fails alike
        monkeypatch.setattr(stars, name, patched)
        with pytest.raises(InternalTheoremViolation) as raised:
            adversarial_digraph(p4(), check_condition_B(p4()))
        report = raised.value.report
        assert report.stage == stage
        g, _labels = load_graph(json.dumps(report.state["instance"]))
        v = report.state["violation"]
        viol = SquareViolation(tuple(v["e1"]), tuple(v["e2"]), v["pairing"])
        assert (g, viol) == (p4(), check_condition_B(p4()))
        with pytest.raises(InternalTheoremViolation) as again:
            adversarial_digraph(g, viol)
        assert again.value.report == report


class TestRecognize:
    def test_star(self):
        report = recognize(k13())
        assert report.is_generalized_star
        assert report.classification.primary == "star"
        assert report.adversarial is None

    def test_two_k2_attaches_adversarial_witness(self):
        report = recognize(two_k2())
        assert not report.is_generalized_star
        assert report.violation is not None
        assert report.adversarial is not None
        assert missing_graph(report.adversarial.digraph) == two_k2()

    def test_nested_star(self):
        report = recognize(nested_star())
        assert report.is_generalized_star
        assert report.classification.primary == "general"
        assert report.classification.sun


def test_route_agreement_exhaustive_small():
    for g in recognition_inputs():
        viol, dec = route_agreement(g)
        assert (viol is None) == (dec is not None)
        if dec is not None:
            assert validate_decomposition(g, dec) == (True, None)


def test_orientation_characterization_small():
    """Square-free graphs admit only good completions; violating graphs
    admit the adversarial one."""
    for n in range(1, 5):
        for graph_code in range(1 << n * (n - 1) // 2):
            g = graph_from_code(n, graph_code)
            non_edges = g.non_edges()
            viol = check_condition_B(g)
            if viol is None:
                for code in range(1 << len(non_edges)):
                    d = Digraph.from_arcs(
                        g.n,
                        [(v, u) if code >> k & 1 else (u, v) for k, (u, v) in enumerate(non_edges)],
                    )
                    ok, _statuses = all_missing_edges_good(d)
                    assert ok
            else:
                w = adversarial_digraph(g, viol)
                assert not classify_missing_edge(w.digraph, *w.designated_edge).good
