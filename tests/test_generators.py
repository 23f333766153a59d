"""Seeded generators: determinism, validity, round trips."""
from __future__ import annotations

import pytest

from snc import (
    BadProfile,
    GenSpec,
    UndirectedGraph,
    classify_special,
    gen_complete,
    gen_generalized_star,
    gen_star,
    gen_sun,
    missing_graph,
    random_digraph_missing,
    random_graph,
    random_tournament,
    random_weights,
    validate_decomposition,
)
from snc.digraph import bits
from snc.generators import Rng, random_star_profile


def _per_draw_code(rng: Rng, k: int) -> int:
    """The reference for Rng.code: bit 0 of each of the next k draws, one
    next_u64 call per draw, the first as bit 0."""
    code = 0
    for i in range(k):
        code |= (rng.next_u64() & 1) << i
    return code


# every k up to 200 (the 64-bit limb edges 64, 128 and 192 among them),
# the edges at 256 and at one pass of lanes (4096), and the pair count of
# a 512-vertex tournament, which takes 32 passes
_CODE_LENGTHS = [*range(201), 255, 256, 257, 4095, 4096, 4097, 512 * 511 // 2]


class TestRngStream:
    def test_published_splitmix64_values(self):
        rng = Rng(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_code_matches_the_per_draw_loop(self, seed):
        for k in _CODE_LENGTHS:
            rng, ref = Rng(seed), Rng(seed)
            assert rng.code(k) == _per_draw_code(ref, k), k
            # the call leaves the state the k draws leave
            assert rng.state == ref.state, k
            assert rng.next_u64() == ref.next_u64()

    def test_below_takes_bounds_up_to_two_to_the_64(self):
        assert Rng(0).below(2**64) == 0xE220A8397B1DCDAF
        for n in (2**64 + 1, 2**70):
            with pytest.raises(ValueError, match="2\\^64"):
                Rng(0).below(n)
        with pytest.raises(ValueError):
            random_weights(2, 0, 2**64)
        assert len(random_weights(2, 0, 2**64 - 1)) == 2


class TestRandomTournament:
    def test_deterministic(self):
        assert random_tournament(7, 3) == random_tournament(7, 3)
        assert random_tournament(7, 3) != random_tournament(7, 4)

    def test_single_vertex(self):
        assert random_tournament(1, 0).arcs() == []

    def test_valid_tournament(self):
        t = random_tournament(5, 123)
        assert t.is_tournament() and t.arc_count == 10


class TestGeneralizedStar:
    def test_star_profile(self):
        g, dec = gen_generalized_star(a_profile=(3,), x_profile=(1,))
        # rays 0..2 around core vertex 3
        assert g.edges() == [(0, 3), (1, 3), (2, 3)]
        assert validate_decomposition(g, dec) == (True, None)

    def test_two_level_profile(self):
        g, dec = gen_generalized_star(a_profile=(1, 1), x_profile=(1, 1))
        assert validate_decomposition(g, dec) == (True, None)
        c = classify_special(dec)
        assert c.primary == "general" and c.sun

    def test_complete_profile(self):
        g, dec = gen_generalized_star(x_profile=(3,))
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]
        assert classify_special(dec).primary == "complete"

    def test_isolated_padding(self):
        g, dec = gen_generalized_star(a0=2, a_profile=(1,), x_profile=(1,))
        assert dec.a_sets[0] == {0, 1}
        assert g.degree(0) == 0 and g.degree(1) == 0
        assert validate_decomposition(g, dec) == (True, None)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a0": -1, "a_profile": (1,), "x_profile": (1,)},
            {"a_profile": (0,), "x_profile": (1,)},
            {"a_profile": (1,), "x_profile": (0,)},
            {"a_profile": (1, 1), "x_profile": (1,)},
        ],
    )
    def test_bad_profiles(self, kwargs):
        with pytest.raises(BadProfile):
            gen_generalized_star(**kwargs)


class TestSpecials:
    def test_star(self):
        g, dec = gen_star(3)
        assert classify_special(dec).primary == "star"
        assert g.degree(3) == 3  # the core vertex sees every ray

    def test_sun(self):
        g, dec = gen_sun(2, 2)
        c = classify_special(dec)
        assert c.primary == "sun"
        # every ray adjacent to the whole core
        for ray in sorted(dec.rays()):
            assert bits(g.neighbor_mask(ray)) == sorted(dec.core())

    def test_sun_with_singleton_core_is_a_star(self):
        _g, dec = gen_sun(1, 3)
        assert classify_special(dec).primary == "star"

    def test_sun_without_rays_degrades_to_complete(self):
        _g, dec = gen_sun(3, 0)
        assert classify_special(dec).primary == "complete"

    def test_complete(self):
        g, dec = gen_complete(4)
        assert len(g.edges()) == 6
        assert classify_special(dec).primary == "complete"

    def test_guards(self):
        with pytest.raises(BadProfile):
            gen_star(0)
        with pytest.raises(BadProfile):
            gen_complete(0)
        with pytest.raises(BadProfile):
            gen_sun(0, 1)


class TestMissingEmbedding:
    def test_complete_missing_graph_leaves_empty_digraph(self):
        k3 = UndirectedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert random_digraph_missing(k3, 5).arc_count == 0

    def test_empty_missing_graph_gives_tournament(self):
        d = random_digraph_missing(UndirectedGraph(6), 5)
        assert d.is_tournament()

    def test_round_trip(self):
        for seed in range(20):
            g = random_graph(2 + seed % 8, seed * 3 + 1)
            d = random_digraph_missing(g, seed)
            assert missing_graph(d) == g

    def test_deterministic(self):
        g, _ = gen_star(3)
        assert random_digraph_missing(g, 11) == random_digraph_missing(g, 11)


class TestRandomWeights:
    def test_range_and_determinism(self):
        w = random_weights(10, 3, 10)
        assert w == random_weights(10, 3, 10)
        assert all(0 <= x <= 10 for x in w)

    def test_all_zero_cap(self):
        assert all(x == 0 for x in random_weights(5, 1, 0))

    def test_zeros_do_occur(self):
        seen_zero = any(
            0 in list(random_weights(10, seed, 3)) for seed in range(20)
        )
        assert seen_zero


class TestGenSpec:
    def test_round_trip(self):
        spec = GenSpec(a0=1, a_profile=(2, 1), x_profile=(1, 2))
        assert GenSpec.from_dict(spec.to_dict()) == spec
        # keys a spec does not have, such as the seed and weight_max of
        # older spec files, are ignored
        assert GenSpec.from_dict(dict(spec.to_dict(), seed=4, weight_max=5)) == spec

    def test_random_profile_covers_n(self):
        for seed in range(30):
            rng = Rng(seed)
            n = 2 + rng.below(12)
            spec = random_star_profile(n, rng)
            total = spec.a0 + sum(spec.a_profile) + sum(spec.x_profile)
            assert total == n
            g, dec = gen_generalized_star(spec=spec)
            assert g.n == n
            assert validate_decomposition(g, dec) == (True, None)
