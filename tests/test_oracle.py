"""Brute-force ground truth, sweeps, and the cubic-root constant."""
from __future__ import annotations

import json
import multiprocessing
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from snc import (
    Digraph,
    InternalTheoremViolation,
    MissingEdgeStatus,
    NotMissing,
    TooLarge,
    WeightMap,
    WeightedDigraph,
    brute_force_snp_vertices,
    check_gamma_property,
    gamma_bracket,
    gamma_constant,
    has_weighted_snp,
    local_median_order,
    recognize,
    sweep_gamma,
    sweep_proposition1,
    sweep_theorem1,
    sweep_theorem2,
    sweep_theorem3,
)
from snc import oracle, stars
from snc.formats import counterexample, load_digraph, load_graph
from snc.generators import (
    Rng,
    gen_generalized_star,
    random_digraph_missing,
    random_graph,
    random_star_profile,
    random_tournament,
    random_weights,
)
from snc.digraph import orient_pairs
from snc.median_order import feed_vertex
from snc.oracle import gamma_sign, graph_from_code, tournament_from_code


@pytest.fixture
def fake_pool(monkeypatch):
    """multiprocessing.Pool run in process on a machine of 4 cores: the
    list of each started pool's worker count, filled without forking."""
    started = []

    class InProcessPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, blocks):
            return [func(*block) for block in blocks]

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(oracle, "_CORES", 4)
    return started


def cycle3() -> Digraph:
    return Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def transitive3() -> Digraph:
    return Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])


def theorem2_instance(seed: int, i: int, max_n: int) -> tuple[WeightedDigraph, dict]:
    """The instance and the profile dict of sample i of a theorem2 sweep."""
    rng = Rng(seed ^ i)
    spec = random_star_profile(2 + rng.below(max_n - 1), rng)
    g, _ = gen_generalized_star(spec=spec)
    d = random_digraph_missing(g, rng.next_u64())
    return WeightedDigraph(d, random_weights(g.n, rng.next_u64(), 10)), spec.to_dict()


class TestBruteForce:
    def test_examples(self):
        w = WeightMap.uniform(3)
        assert brute_force_snp_vertices(WeightedDigraph(cycle3(), w)) == {0, 1, 2}
        # vertex 0 compares (2, 0); vertex 1 compares (1, 0); only the sink holds
        assert brute_force_snp_vertices(WeightedDigraph(transitive3(), w)) == {2}
        one = WeightedDigraph(Digraph(1), WeightMap.uniform(1))
        assert brute_force_snp_vertices(one) == {0}

    def test_agrees_with_direct_check_everywhere(self):
        for seed in range(20):
            n = 1 + seed % 9
            g = random_digraph_missing(random_graph(n, seed), seed + 1000)
            w = random_weights(n, seed + 2000, 7)
            wd = WeightedDigraph(g, w)
            scan = brute_force_snp_vertices(wd)
            direct = {v for v in range(n) if has_weighted_snp(wd, v).holds}
            assert scan == direct


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 64), (5, 1024)])
    def test_counts(self, n, count):
        # the codes 0 .. 2^(n(n-1)/2) - 1 give every tournament once, in code order
        codes = range(1 << n * (n - 1) // 2)
        seen = [tournament_from_code(n, code) for code in codes]
        assert len(seen) == count
        assert all(t.is_tournament() for t in seen)
        assert len({tuple(t.arcs()) for t in seen}) == count
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        flips = [sum(1 << k for k, (u, v) in enumerate(pairs) if t.has_arc(v, u)) for t in seen]
        assert flips == list(codes)

    def test_covers_both_orientations(self):
        arcs = {tuple(tournament_from_code(2, code).arcs()) for code in (0, 1)}
        assert arcs == {((0, 1),), ((1, 0),)}

    def test_too_large(self):
        with pytest.raises(TooLarge):
            sweep_theorem1(7)


class TestSweeps:
    def test_theorem1_small(self):
        r = sweep_theorem1(3)
        assert (r.instances, len(r.failures)) == (8, 0)
        r = sweep_theorem1(1)
        assert (r.instances, len(r.failures)) == (1, 0)
        r = sweep_theorem1(4, cumulative=True)
        assert (r.instances, len(r.failures)) == (75, 0)

    def test_theorem1_parallel_matches_serial(self, monkeypatch):
        monkeypatch.setattr(oracle, "_CORES", 3)  # three workers on any machine
        serial = sweep_theorem1(4)
        parallel = sweep_theorem1(4, jobs=3)
        assert serial.to_dict() == parallel.to_dict()

    def test_proposition1_small(self):
        r = sweep_proposition1(60, 8, seed=5)
        assert (r.instances, len(r.failures)) == (60, 0)
        assert sweep_proposition1(0, 8, seed=5).instances == 0

    def test_proposition1_rejects_weight_caps_outside_the_stream(self, monkeypatch):
        """Before any instance runs: a cap of 2^64 or more once hung the
        weight draw of the first sample."""
        monkeypatch.setattr(oracle, "_drive", lambda *args: pytest.fail("ran"))
        for max_weight in (-1, 2**64, 2**70):
            with pytest.raises(ValueError, match="max_weight"):
                sweep_proposition1(1, 2, seed=0, max_weight=max_weight)

    def test_theorem2_at_its_cap(self):
        r = sweep_theorem2(2, 128, seed=1)
        assert (r.instances, len(r.failures)) == (2, 0)

    def test_theorem2_small(self):
        r = sweep_theorem2(40, 10, seed=9)
        assert (r.instances, len(r.failures)) == (40, 0)

    def test_theorem2_deterministic_report(self):
        a = sweep_theorem2(10, 8, seed=4).to_dict()
        b = sweep_theorem2(10, 8, seed=4).to_dict()
        assert a == b
        c = sweep_theorem2(10, 8, seed=4, jobs=2).to_dict()
        assert a == c

    def test_theorem2_guard(self):
        with pytest.raises(TooLarge):
            sweep_theorem2(1, 129, seed=0)

    def test_theorem3_small(self):
        r = sweep_theorem3(3)
        assert len(r.failures) == 0
        assert r.data["route_agreement_graphs"] == 11  # 1 + 2 + 8
        r = sweep_theorem3(4, random_samples=25, random_min_n=5, random_max_n=7, seed=2)
        assert len(r.failures) == 0
        assert r.data["random_route_agreement_graphs"] == 25

    def test_theorem3_guard(self):
        with pytest.raises(TooLarge):
            sweep_theorem3(6)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_reports_do_not_depend_on_jobs(self, jobs, monkeypatch):
        monkeypatch.setattr(oracle, "_CORES", jobs)  # as many workers as asked for
        sweeps = [
            lambda j: sweep_proposition1(7, 6, seed=5, jobs=j),
            lambda j: sweep_proposition1(2, 6, seed=5, jobs=j),  # fewer samples than jobs
            lambda j: sweep_proposition1(0, 6, seed=5, jobs=j),
            lambda j: sweep_theorem2(5, 8, seed=4, jobs=j),
            lambda j: sweep_theorem2(0, 8, seed=4, jobs=j),
            lambda j: sweep_theorem3(
                3, random_samples=5, random_min_n=5, random_max_n=7, seed=2, jobs=j
            ),
            lambda j: sweep_theorem3(2, random_samples=1, seed=2, jobs=j),
            lambda j: sweep_gamma(9, 8, seed=6, jobs=j),
            lambda j: sweep_gamma(0, 8, seed=6, jobs=j),
        ]
        for sweep in sweeps:
            assert sweep(1).to_dict() == sweep(jobs).to_dict()

    def test_rejects_negative_samples_and_zero_jobs(self):
        with pytest.raises(ValueError, match="non-negative"):
            sweep_proposition1(-5, 5, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            sweep_gamma(-1, 5, seed=0)
        with pytest.raises(ValueError, match="jobs"):
            sweep_theorem1(3, jobs=0)

    def test_serial_driver_memory_does_not_grow_with_instances(self):
        tracemalloc.start()
        try:
            assert oracle._drive(lambda i: (1, []), [(100000, ())], 1) == (100000, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_one_pool_per_sweep_leg(self, fake_pool):
        """Every size of a leg shares one pool: theorem1 on 1..5 vertices
        starts one, and theorem3 one per exhaustive leg."""
        assert sweep_theorem1(5, cumulative=True, jobs=2) == sweep_theorem1(5, cumulative=True)
        assert fake_pool == [2]
        fake_pool.clear()
        assert sweep_theorem3(4, jobs=2) == sweep_theorem3(4)
        assert fake_pool == [2, 2]

    def test_workers_are_capped_at_the_core_count(self, fake_pool):
        assert oracle._drive(lambda i: (1, []), [(1000, ())], 100000) == (1000, [])
        assert oracle._drive(lambda i: (1, []), [(3, ()), (0, ()), (3, ())], 100000) == (6, [])
        assert sweep_proposition1(12, 5, seed=3, jobs=100000) == sweep_proposition1(12, 5, seed=3)
        assert fake_pool == [4, 4, 4]

    def test_workers_are_the_fewer_of_parts_and_blocks(self, fake_pool):
        # 5 indices in blocks of ceil(5 / 4) = 2 make 3 blocks: no idle worker
        assert oracle._drive(lambda i: (1, []), [(5, ())], 4) == (5, [])
        # spaces of 1 and 3 indices in blocks of 2 make 3 blocks for 2 workers
        assert oracle._drive(lambda i: (1, []), [(1, ()), (3, ())], 2) == (4, [])
        assert fake_pool == [3, 2]

    def test_rejects_a_negative_space_before_any_runs(self):
        with pytest.raises(ValueError, match="non-negative"):
            oracle._drive(lambda i: pytest.fail("ran"), [(2, ()), (-1, ())], 1)


class TestSweepFailures:
    """The failure path of the sweep driver, through checks forced to fail."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_prop1_counterexamples_in_index_order_and_replayable(self, monkeypatch, jobs):
        monkeypatch.setattr(
            oracle, "has_weighted_snp", lambda wd, v: SimpleNamespace(holds=wd.digraph.n % 2)
        )
        r = sweep_proposition1(12, 5, seed=8, jobs=jobs)
        even = [i for i in range(12) if (1 + Rng(8 ^ i).below(5)) % 2 == 0]
        assert even and r.instances == 12
        assert [f.state["index"] for f in r.failures] == even
        for f in r.failures:
            assert f.stage == "feed-vertex-weighted-snp"
            assert set(f.state) == {"instance", "index", "order", "feed"}
            rng = Rng(8 ^ f.state["index"])
            n = 1 + rng.below(5)
            t, w = random_tournament(n, rng.next_u64()), random_weights(n, rng.next_u64(), 10)
            wd = load_digraph(json.dumps(f.state["instance"]))[0]
            assert (wd.digraph, wd.weights) == (t, w)
            # replay: the same order, and its feed vertex fails the (patched) check again
            order = local_median_order(wd.digraph, wd.weights).order
            assert (list(order), order[-1]) == (f.state["order"], f.state["feed"])
            assert not oracle.has_weighted_snp(wd, f.state["feed"]).holds

    def test_theorem1_failures_in_order_across_sizes(self, monkeypatch):
        """Failures at several sizes merge ordered by (n, code) whatever
        the worker count: here every feed vertex 0 on 2 or more vertices."""
        monkeypatch.setattr(
            oracle, "has_weighted_snp", lambda wd, v: SimpleNamespace(holds=v or wd.digraph.n < 2)
        )
        expected = [
            (n, code)
            for n in range(2, 5)
            for code in range(1 << (n * (n - 1) // 2))
            if feed_vertex(local_median_order(tournament_from_code(n, code), WeightMap.uniform(n))) == 0
        ]
        assert len({n for n, _code in expected}) == 3
        reports = []
        for jobs in (1, 2, 3):
            monkeypatch.setattr(oracle, "_CORES", jobs)
            r = sweep_theorem1(4, cumulative=True, jobs=jobs)
            assert r.instances == 75
            assert [(f.state["instance"]["n"], f.state["code"]) for f in r.failures] == expected
            reports.append(r.to_dict())
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_route_agreement_report_matches_recognize(self, monkeypatch, jobs):
        real = stars.decompose
        monkeypatch.setattr(stars, "decompose", lambda g: None if g.n == 3 else real(g))
        r = sweep_theorem3(3, jobs=jobs)
        # no graph on 3 vertices has two disjoint edges, so all 8 disagree
        graphs = [load_graph(json.dumps(f.state["instance"]))[0] for f in r.failures]
        assert graphs == [graph_from_code(3, code) for code in range(8)]
        for g, f in zip(graphs, r.failures):
            assert f.stage == "route-agreement"
            assert f.state["violation"] is None
            with pytest.raises(InternalTheoremViolation) as raised:
                recognize(g)
            assert raised.value.report.to_dict() == f.to_dict()

    def test_cross_oracle_counterexamples_replay(self, monkeypatch):
        # an exhaustive scan that finds no SNP vertex rejects every witness
        monkeypatch.setattr(oracle, "brute_force_snp_vertices", lambda wd: set())
        r = sweep_theorem2(4, 8, seed=5)
        assert [f.state["index"] for f in r.failures] == [0, 1, 2, 3]
        for f in r.failures:
            assert f.stage == "cross-oracle"
            assert set(f.state) == {"instance", "index", "profile", "orientations", "order"}
            wd = load_digraph(json.dumps(f.state["instance"]))[0]
            # the dumped choices are the certificate the pipeline builds again
            cert = oracle.find_witness_good(wd)
            assert cert.to_dict()["orientations"] == f.state["orientations"]
            assert list(cert.order.order) == f.state["order"]
            assert cert.witness not in oracle.brute_force_snp_vertices(wd)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_theorem2_passes_reported_failures_through(self, monkeypatch, jobs):
        def fail(wd):
            raise InternalTheoremViolation(counterexample("forced", "forced failure", wd, order=[0]))

        monkeypatch.setattr(oracle, "find_witness_good", fail)
        r = sweep_theorem2(4, 8, seed=5, jobs=jobs)
        assert r.instances == 4 and len(r.failures) == 4
        for i, f in enumerate(r.failures):
            # the pipeline's own report, with nothing added
            assert (f.stage, f.description) == ("forced", "forced failure")
            assert set(f.state) == {"instance", "order"}
            wd = load_digraph(json.dumps(f.state["instance"]))[0]
            expected, _profile = theorem2_instance(5, i, 8)
            assert (wd.digraph, wd.weights) == (expected.digraph, expected.weights)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_theorem2_pipeline_errors_dump_the_instance(self, monkeypatch, jobs):
        def fail(wd):
            raise NotMissing("forced")

        monkeypatch.setattr(oracle, "find_witness_good", fail)
        r = sweep_theorem2(4, 8, seed=5, jobs=jobs)
        assert [f.state["index"] for f in r.failures] == [0, 1, 2, 3]
        for f in r.failures:
            assert (f.stage, f.description) == ("witness-pipeline-error", "forced")
            assert set(f.state) == {"instance", "index", "profile"}
            wd = load_digraph(json.dumps(f.state["instance"]))[0]
            expected, profile = theorem2_instance(5, f.state["index"], 8)
            assert (wd.digraph, wd.weights) == (expected.digraph, expected.weights)
            assert f.state["profile"] == profile

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_adversarial_failures_dump_the_graph(self, monkeypatch, jobs):
        # every designated edge reads as good, so each non-star fails its build
        monkeypatch.setattr(
            stars, "classify_missing_edge", lambda d, x, y: MissingEdgeStatus(x, y, True, True)
        )
        r = sweep_theorem3(4, jobs=jobs)
        graphs = [graph_from_code(4, code) for code in range(64)]
        non_stars = [g for g in graphs if stars.check_condition_B(g) is not None]
        assert non_stars
        assert [f.stage for f in r.failures] == ["adversarial-edge-good"] * len(non_stars)
        assert [load_graph(json.dumps(f.state["instance"]))[0] for f in r.failures] == non_stars

    def test_orientation_counterexamples_replay(self, monkeypatch):
        # a goodness check that rejects every completion on three vertices
        real = oracle.all_missing_edges_good
        monkeypatch.setattr(
            oracle, "all_missing_edges_good", lambda d: (False, []) if d.n == 3 else real(d)
        )
        r = sweep_theorem3(3)
        assert r.failures
        for f in r.failures:
            assert f.stage == "all-orientations-good"
            wd = load_digraph(json.dumps(f.state["instance"]))[0]
            g = graph_from_code(3, f.state["code"])
            assert wd.digraph == orient_pairs(3, g.non_edges(), f.state["orientation"])
            assert not oracle.all_missing_edges_good(wd.digraph)[0]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_gamma_counterexamples_replay(self, monkeypatch, jobs):
        monkeypatch.setattr(oracle, "check_gamma_property", lambda d: d.n != 3)
        r = sweep_gamma(30, 6, seed=1, jobs=jobs)
        three = [i for i in range(30) if 1 + Rng(1 ^ i).below(6) == 3]
        assert three and [f.state["index"] for f in r.failures] == three
        for f in r.failures:
            rng = Rng(1 ^ f.state["index"])
            n = 1 + rng.below(6)
            d = random_digraph_missing(random_graph(n, rng.next_u64()), rng.next_u64())
            wd = load_digraph(json.dumps(f.state["instance"]))[0]
            assert f.stage == "gamma-property" and wd.digraph == d
            assert set(f.state) == {"instance", "index"}
            assert not oracle.check_gamma_property(wd.digraph)


class TestGamma:
    def test_six_digit_value(self):
        g6 = gamma_constant(6)
        assert abs(g6 - Fraction(657298, 10 ** 6)) <= Fraction(1, 10 ** 6)
        # one digit more pins the truncated expansion
        assert int(gamma_constant(7) * 10 ** 6) == 657298

    def test_bracket_signs(self):
        # hand-computed polynomial signs around the root
        assert gamma_sign(Fraction(6, 10)) < 0
        assert gamma_sign(Fraction(7, 10)) > 0
        lo, hi = gamma_bracket(6)
        assert hi - lo <= Fraction(1, 10 ** 6)
        assert gamma_sign(lo) < 0 < gamma_sign(hi)
        assert Fraction(6, 10) < lo < hi < Fraction(7, 10)

    def test_brackets_shrink_and_keep_sign_change(self):
        prev_width = None
        for digits in range(1, 12):
            lo, hi = gamma_bracket(digits)
            assert gamma_sign(lo) < 0 < gamma_sign(hi)
            width = hi - lo
            if prev_width is not None:
                assert width <= prev_width
            prev_width = width

    def test_precision_guard(self):
        with pytest.raises(TooLarge):
            gamma_constant(51)

    def test_property_examples(self):
        sink = Digraph.from_arcs(2, [(0, 1)])
        assert check_gamma_property(sink)
        # every vertex of a directed triangle has d++ = d+ = 1 >= gamma * d+
        assert check_gamma_property(cycle3())

    def test_sweep_gates_on_zero_failures(self):
        r = sweep_gamma(40, 10, seed=6)
        assert (r.instances, r.failures, r.data) == (40, [], {})
        assert r.to_dict()["notes"] == []
