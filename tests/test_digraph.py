"""Core model: neighborhoods, missing graphs, weights, SNP checks."""
from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snc import (
    Digraph,
    DigonRejected,
    DuplicateArc,
    LoopRejected,
    NegativeWeight,
    UndirectedGraph,
    WeightMap,
    WeightedDigraph,
    has_weighted_snp,
    missing_graph,
)
import snc
from snc.generators import (
    Rng,
    gen_generalized_star,
    random_digraph_missing,
    random_graph,
    random_star_profile,
    random_weights,
)
from snc.digraph import bits, graph_from_pairs, orient_pairs, pair_list
from snc.oracle import bfs_distances, brute_force_snp_vertices, graph_from_code, tournament_from_code


def cycle3() -> Digraph:
    return Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def transitive3() -> Digraph:
    return Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])


def test_add_arc_base_case():
    g = Digraph(2).with_arcs([(0, 1)])
    assert g.arcs() == [(0, 1)]


def test_add_arc_rejects_loop():
    with pytest.raises(LoopRejected):
        Digraph(2).with_arcs([(0, 0)])


def test_add_arc_rejects_digon():
    g = Digraph.from_arcs(2, [(0, 1)])
    with pytest.raises(DigonRejected):
        g.with_arcs([(1, 0)])


def test_add_arc_rejects_duplicate():
    g = Digraph.from_arcs(2, [(0, 1)])
    with pytest.raises(DuplicateArc):
        g.with_arcs([(0, 1)])


def test_with_arcs_leaves_the_original_and_rejects_what_from_arcs_rejects():
    base = [(0, 1), (1, 2)]
    d = Digraph.from_arcs(4, base)
    e = d.with_arcs([(2, 3), (3, 0)])
    assert e.arcs() == [(0, 1), (1, 2), (2, 3), (3, 0)] and e.arc_count == 4
    assert e.in_masks()[0] == 1 << 3 and d.in_masks()[0] == 0
    bad_arcs = [(0, 0), (0, 1), (1, 0), (2, 4), (-1, 2), (True, 2), (2, 1.0)]
    for bad in bad_arcs:
        with pytest.raises(Exception) as whole:
            Digraph.from_arcs(4, base + [(2, 3), bad])
        with pytest.raises(Exception) as added:
            d.with_arcs([(2, 3), bad])
        assert type(added.value) is type(whole.value)
        assert str(added.value) == str(whole.value)
    assert d.arcs() == base and d.arc_count == 2 and d.out_masks() == (0b10, 0b100, 0, 0)


def test_out_neighborhoods():
    assert bits(cycle3().out_mask(0)) == [1]
    assert bits(transitive3().out_mask(0)) == [1, 2]
    assert bits(Digraph(1).out_mask(0)) == []
    assert bits(cycle3().in_masks()[0]) == [2]


def test_second_out_neighborhood():
    assert cycle3().second_out_neighbors(0) == {2}
    assert transitive3().second_out_neighbors(0) == set()
    # distance oracle confirms vertex 3 sits at distance 3, not 2
    path = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)])
    dist = bfs_distances(path, 0)
    assert {v for v in range(4) if dist[v] == 2} == {2}
    assert path.second_out_neighbors(0) == {2}


def second_in_mask(d: Digraph, v: int) -> int:
    """Vertices at directed distance exactly two to v, read off in_masks()."""
    into = d.in_masks()
    reach = 0
    for u in bits(into[v]):
        reach |= into[u]
    return reach & ~into[v]


def test_second_in_neighborhood_mirrors_reversed_arcs():
    path = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)])
    assert second_in_mask(path, 3) == 1 << 1
    assert second_in_mask(cycle3(), 0) == 1 << 1


def test_neighborhoods_disjoint_and_match_bfs_on_random_digraphs():
    for n in range(1, 13):
        for trial in range(6):
            rng_seed = n * 1000 + trial
            g = random_digraph_missing(random_graph(n, rng_seed), rng_seed ^ 0xABCDEF)
            for v in range(n):
                first = set(bits(g.out_mask(v)))
                second = g.second_out_neighbors(v)
                assert not first & second
                assert v not in first and v not in second
                dist = bfs_distances(g, v)
                assert second == {u for u in range(n) if dist[u] == 2}
                assert first == {u for u in range(n) if dist[u] == 1}


def test_missing_graph_examples():
    t = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
    assert missing_graph(t).edges() == []
    d = Digraph.from_arcs(3, [(2, 0), (2, 1)])
    m = missing_graph(d)
    assert m.edges() == [(0, 1)]
    assert m.isolated() == {2}
    empty = Digraph(3)
    assert missing_graph(empty).edges() == [(0, 1), (0, 2), (1, 2)]


def test_missing_edges_partition_all_pairs():
    for seed in range(8):
        g = random_digraph_missing(random_graph(7, seed), seed + 100)
        arc_pairs = {tuple(sorted(a)) for a in g.arcs()}
        missing = set(g.missing_pairs())
        all_pairs = {(u, v) for u in range(7) for v in range(u + 1, 7)}
        assert arc_pairs | missing == all_pairs
        assert not arc_pairs & missing


def test_tournament_iff_no_missing_edges():
    for seed in range(8):
        g = random_digraph_missing(random_graph(6, seed), seed)
        assert g.is_tournament() == (not g.missing_pairs())
        if g.is_tournament():
            assert g.arc_count == 15


def test_rational_arithmetic_is_exact():
    a, b = Fraction(1, 3), Fraction(2, 7)
    direct = a + b
    common = Fraction(1 * 7 + 2 * 3, 21)
    assert direct == common == Fraction(13, 21)


def test_has_weighted_snp_examples():
    w = WeightMap.uniform(3)
    check = has_weighted_snp(WeightedDigraph(cycle3(), w), 0)
    assert check == (True, Fraction(1), Fraction(1))
    check = has_weighted_snp(WeightedDigraph(transitive3(), w), 0)
    assert check == (False, Fraction(2), Fraction(0))
    # a sink always has the property
    check = has_weighted_snp(WeightedDigraph(transitive3(), w), 2)
    assert check == (True, Fraction(0), Fraction(0))


def test_weight_map_rejects_negative():
    with pytest.raises(NegativeWeight):
        WeightMap([1, -1])


@pytest.mark.parametrize(
    "values, message",
    [
        ([1, -3], "weight of vertex 1 is negative: -3"),
        ([Fraction(1, 2), 0, -3], "weight of vertex 2 is negative: -3"),
        ([Fraction(-1, 2)], "weight of vertex 0 is negative: -1/2"),
        ([2, Fraction(-2, 4), -1], "weight of vertex 1 is negative: -1/2"),
    ],
)
def test_weight_map_negative_weight_message(values, message):
    with pytest.raises(NegativeWeight) as exc:
        WeightMap(values)
    assert str(exc.value) == message


weight_values_st = st.lists(
    st.one_of(
        st.integers(0, 40),
        st.just(0),
        st.builds(Fraction, st.integers(0, 40), st.integers(1, 12)),
    ),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(weight_values_st, st.data())
def test_weight_map_ints_over_one_denominator(values, data):
    """The int numerators over one common denominator read back as the
    lowest-terms Fractions of the input, and their mask sums as the
    Fraction sums."""
    w = WeightMap(values)
    ref = [Fraction(x) for x in values]
    assert list(w) == ref and [w[v] for v in range(len(w))] == ref
    assert all(type(x) is Fraction for x in w)
    assert w.to_dicts() == [{"num": x.numerator, "den": x.denominator} for x in ref]
    assert all(type(s) is int for s in w.scaled) and type(w.scale) is int
    mask = data.draw(st.integers(0, (1 << len(values)) - 1))
    expect = sum((ref[v] for v in range(len(ref)) if mask >> v & 1), Fraction(0))
    assert Fraction(w.mask_sum(mask), w.scale) == expect


def test_weight_map_equality_is_by_value():
    assert WeightMap([Fraction(2, 4), 1]) == WeightMap([Fraction(1, 2), Fraction(1)])
    assert WeightMap([Fraction(4, 2), 0]) == WeightMap([2, 0])
    assert WeightMap([1, 2]) != WeightMap([Fraction(1, 2), 1])


def test_weight_map_keeps_other_rational_inputs():
    w = WeightMap([True, False, 0.5, "1/3", 2.25, "7"])
    assert list(w) == [1, 0, Fraction(1, 2), Fraction(1, 3), Fraction(9, 4), 7]
    assert w.scale == 12


def _fraction_snp(d: Digraph, weights: list[Fraction], v: int) -> tuple[bool, Fraction, Fraction]:
    """Reference for has_weighted_snp: the Fraction sums over the
    neighborhood sets."""
    first = sum((weights[u] for u in bits(d.out_mask(v))), Fraction(0))
    second = sum((weights[u] for u in d.second_out_neighbors(v)), Fraction(0))
    return first <= second, first, second


def _fraction_snp_vertices(d: Digraph, weights: list[Fraction]) -> set[int]:
    """Reference for brute_force_snp_vertices: Fraction sums over the
    breadth-first distance levels."""
    out = set()
    for v in range(d.n):
        dist = bfs_distances(d, v)
        first = sum((weights[u] for u in range(d.n) if dist[u] == 1), Fraction(0))
        second = sum((weights[u] for u in range(d.n) if dist[u] == 2), Fraction(0))
        if first <= second:
            out.add(v)
    return out


def _assert_snp_checks_match_reference(d: Digraph, weights: list[Fraction]) -> None:
    wd = WeightedDigraph(d, WeightMap(weights))
    for v in range(d.n):
        assert tuple(has_weighted_snp(wd, v)) == _fraction_snp(d, weights, v)
    assert brute_force_snp_vertices(wd) == _fraction_snp_vertices(d, weights)


def test_snp_checks_match_fraction_reference_on_all_small_oriented_graphs():
    """Every labeled oriented graph on at most 4 vertices (each pair
    missing or oriented either way), under unit, all-zero and rational
    weights."""
    rational = [Fraction(1, 2), Fraction(2, 3), 0, Fraction(5, 6)]
    for n in range(5):
        pairs = pair_list(n)
        for code in range(3 ** len(pairs)):
            arcs = []
            for u, v in pairs:
                code, state = divmod(code, 3)
                if state:
                    arcs.append((u, v) if state == 1 else (v, u))
            d = Digraph.from_arcs(n, arcs)
            for weights in ([Fraction(1)] * n, [Fraction(0)] * n, rational[:n]):
                _assert_snp_checks_match_reference(d, weights)


def test_snp_checks_match_fraction_reference_on_star_missing_digraphs():
    """Seeded instances built as the theorem2 sweep builds them, n <= 14,
    under their integer weights and under the same numerators over
    per-vertex denominators."""
    for i in range(150):
        rng = Rng(0x5EED ^ i)
        n = 2 + rng.below(13)
        g, _dec = gen_generalized_star(spec=random_star_profile(n, rng))
        d = random_digraph_missing(g, rng.next_u64())
        ints = list(random_weights(n, rng.next_u64(), 10))
        _assert_snp_checks_match_reference(d, ints)
        _assert_snp_checks_match_reference(d, [x / (1 + rng.below(6)) for x in ints])


def test_weighted_digraph_requires_full_cover():
    with pytest.raises(ValueError):
        WeightedDigraph(Digraph(3), WeightMap.uniform(2))


def test_undirected_graph_basics():
    g = UndirectedGraph.from_edges(4, [(0, 1), (1, 2)])
    assert bits(g.neighbor_mask(1)) == [0, 2]
    assert g.degree(3) == 0
    assert g.isolated() == {3}
    assert g.non_edges() == [(0, 2), (0, 3), (1, 3), (2, 3)]
    with pytest.raises(LoopRejected):
        UndirectedGraph.from_edges(4, g.edges() + [(2, 2)])


def test_clique_and_stable_match_the_pairwise_reference():
    for n in range(6):
        pairs = pair_list(n)
        for code in range(1 << len(pairs)):
            g = graph_from_code(n, code)
            for subset in range(1 << n):
                vs = bits(subset)
                adjacent = [g.has_edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]
                assert g.is_clique(vs) == all(adjacent)
                assert g.is_stable(vs) == (not any(adjacent))
    with pytest.raises(ValueError):
        UndirectedGraph(2).is_clique([0, 2])


def test_rng_is_deterministic_and_bounded():
    a = [Rng(9).below(10) for _ in range(20)]
    b = [Rng(9).below(10) for _ in range(20)]
    assert a == b
    assert all(0 <= x < 10 for x in a)


def _same_digraph(d: Digraph, e: Digraph) -> bool:
    # __eq__ compares out-masks only; the in-masks and the arc count must match too
    return d == e and d.arc_count == e.arc_count and d.in_masks() == e.in_masks()


def test_direct_mask_builds_match_checked_builds():
    for n in range(1, 5):
        pairs = pair_list(n)
        for code in range(1 << len(pairs)):
            arcs = [(v, u) if code >> k & 1 else (u, v) for k, (u, v) in enumerate(pairs)]
            assert _same_digraph(tournament_from_code(n, code), Digraph.from_arcs(n, arcs))
            edges = [p for k, p in enumerate(pairs) if code >> k & 1]
            g = graph_from_code(n, code)
            assert g == UndirectedGraph.from_edges(n, edges)
            non_edges = g.non_edges()
            for orientation in range(1 << len(non_edges)):
                arcs = [
                    (v, u) if orientation >> k & 1 else (u, v)
                    for k, (u, v) in enumerate(non_edges)
                ]
                assert _same_digraph(
                    orient_pairs(n, non_edges, orientation), Digraph.from_arcs(n, arcs)
                )


def test_orient_pairs_reads_codes_longer_than_a_limb():
    """Codes of 65 to a few thousand pairs, in seeded order, against the
    arcs that the bit k of code rule chooses."""
    rng = Rng(2030)
    for k in (65, 127, 128, 129, 500, 2000, 4000):
        n = 3 + rng.below(4)
        while n * (n - 1) // 2 < k:
            n += 1
        pairs = pair_list(n)
        rng.shuffle(pairs)
        pairs = pairs[:k]
        code = rng.code(k)
        for c in (code, code ^ ((1 << k) - 1), 0, (1 << k) - 1):
            arcs = [(v, u) if c >> i & 1 else (u, v) for i, (u, v) in enumerate(pairs)]
            assert _same_digraph(orient_pairs(n, pairs, c), Digraph.from_arcs(n, arcs))


def test_masks_agree_with_arcs_and_edges():
    for seed in range(24):
        n = 1 + seed % 12
        g = random_graph(n, seed)
        d = random_digraph_missing(g, seed ^ 0x5A5A)
        arcs, edges = set(d.arcs()), set(g.edges())
        for v in range(n):
            assert d.out_mask(v) == sum(1 << u for u in range(n) if (v, u) in arcs)
            assert d.in_masks()[v] == sum(1 << u for u in range(n) if (u, v) in arcs)
            assert g.neighbor_mask(v) == sum(
                1 << u for u in range(n) if (min(u, v), max(u, v)) in edges
            )
            # the digraph misses exactly the edges of g
            assert d.missing_mask(v) == g.neighbor_mask(v)
        assert missing_graph(d) == g
        assert type(d.in_masks()) is tuple and len(d.in_masks()) == n
        assert _same_digraph(Digraph.from_arcs(n, d.arcs()), d)
        assert _same_digraph(d.with_arcs([]), d)


def test_mask_builds_reject_invalid_masks():
    with pytest.raises(ValueError):
        orient_pairs(2, [(1, 1)], 0)
    with pytest.raises(DigonRejected):
        orient_pairs(2, [(0, 1), (0, 1)], 0b10)
    with pytest.raises(ValueError):
        graph_from_pairs(2, [(1, 1)], 1)
    with pytest.raises(ValueError):
        Digraph(2).out_mask(2)


def test_only_digraph_reads_the_adjacency_store():
    offenders = []
    for path in sorted(Path(snc.__file__).parent.glob("*.py")):
        if path.name == "digraph.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("_out", "_in", "_adj"):
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert offenders == []


def test_only_the_constructors_set_the_adjacency_store():
    # graphs are built whole: outside digraph's __init__ and _from_masks,
    # no assignment targets a mask store or an arc count, or an item of one
    store = ("_out", "_in", "_adj", "_m")
    offenders = []
    for path in sorted(Path(snc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exempt = {
            id(node)
            for func in ast.walk(tree)
            if path.name == "digraph.py"
            and isinstance(func, ast.FunctionDef)
            and func.name in ("__init__", "_from_masks")
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            if any(
                isinstance(t, ast.Attribute) and t.attr in store
                for target in targets
                for t in ast.walk(target)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_formats_builds_counterexample_reports():
    # every dump goes through formats.counterexample: one instance plus choices
    offenders = []
    for path in sorted(Path(snc.__file__).parent.glob("*.py")):
        if path.name == "formats.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and "CounterexampleReport" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_the_cli_and_the_package_import_the_oracle():
    # the oracle cross-checks the library, so no library module may rest on it
    offenders = []
    for path in sorted(Path(snc.__file__).parent.glob("*.py")):
        if path.name in ("cli.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(a.name for a in node.names)]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "oracle" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_formats_and_the_cli_import_json():
    # every comparison a verifier makes goes through formats.fields_match
    offenders = []
    for path in sorted(Path(snc.__file__).parent.glob("*.py")):
        if path.name in ("formats.py", "cli.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[0] == "json" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
