"""Independent brute-force ground truth and exhaustive verification sweeps.

Everything here double-checks the constructive machinery by a second
route that shares no code above raw adjacency: second neighborhoods come
from breadth-first distances, witnesses from scanning every vertex,
recognition claims from enumerating every labeled instance at desk scale.
Every sweep checks a proved statement (the gamma inequality of Chen, Shen
and Yuster included) and must report zero failures; any failure is
preserved as a replayable counterexample.

One driver runs every sweep leg over (count, args) index spaces: a
module-level check(i, *args) returns (instances, failures) for instance i
(seed XOR i, or code i).  Contiguous index blocks, serially or on one pool
of up to min(jobs, cores) workers per leg, fold their checks into one pair
as they run and merge in index order: reports do not depend on the worker
count, and memory grows with the failures only.
"""
from __future__ import annotations

import os
from fractions import Fraction
from typing import NamedTuple, Optional

from .digraph import (
    Digraph,
    UndirectedGraph,
    WeightedDigraph,
    WeightMap,
    bits,
    graph_from_pairs,
    has_weighted_snp,
    orient_pairs,
    pair_list,
)
from .errors import CounterexampleReport, ReportedFailure, SncError, TooLarge
from .formats import check_cap, counterexample
from .generators import (
    Rng,
    gen_generalized_star,
    random_digraph_missing,
    random_graph,
    random_star_profile,
    random_tournament,
    random_weights,
)
from .good_edges import all_missing_edges_good, find_witness_good
from .median_order import feed_vertex, local_median_order
from .stars import adversarial_digraph, check_condition_B, route_agreement

MAX_ENUM_TOURNAMENT_N = 6
MAX_ENUM_GRAPH_N = 5
MAX_ORIENTATIONS_N = 4
MAX_THEOREM2_N = 128
MAX_GAMMA_DIGITS = 50
_CORES = os.cpu_count() or 1  # read once: a call costs more than the serial driver itself

def bfs_distances(d: Digraph, source: int) -> list[Optional[int]]:
    """Directed breadth-first distances from source; None when unreachable."""
    out = d.out_masks()
    dist: list[Optional[int]] = [None] * d.n
    seen = frontier = 1 << source
    k = 0
    while frontier:
        reach = 0
        for u in bits(frontier):
            dist[u] = k
            reach |= out[u]
        frontier = reach & ~seen
        seen |= reach
        k += 1
    return dist


def brute_force_snp_vertices(wd: WeightedDigraph) -> set[int]:
    """All vertices with the weighted SNP, via breadth-first distances.

    Intentionally avoids second_out_mask so it stays an independent
    check of that code path.
    """
    d, scaled = wd.digraph, wd.weights.scaled
    out = set()
    for v in range(d.n):
        dist = bfs_distances(d, v)
        first = second = 0
        for s, k in zip(scaled, dist):
            if k == 1:
                first += s
            elif k == 2:
                second += s
        if first <= second:
            out.add(v)
    return out


def tournament_from_code(n: int, code: int) -> Digraph:
    """Tournament number `code`: bit k flips pair k of the sorted pair list."""
    return orient_pairs(n, pair_list(n), code)


def graph_from_code(n: int, code: int) -> UndirectedGraph:
    """Graph number `code`: bit k puts pair k of the sorted pair list in."""
    return graph_from_pairs(n, pair_list(n), code)


class SweepReport(NamedTuple):
    """Outcome of one verification sweep.  It holds no timing, so that
    identical runs serialize byte-identically."""

    sweep: str
    parameters: dict
    instances: int
    failures: list[CounterexampleReport]
    data: dict

    def to_dict(self) -> dict:
        return {
            "kind": "sweep_report",
            "sweep": self.sweep,
            "parameters": self.parameters,
            "instances": self.instances,
            "failures": len(self.failures),
            "counterexamples": [f.to_dict() for f in self.failures],
            "notes": [],  # no sweep writes notes; the key stays for format stability
            "data": self.data,
        }


def _merge(results) -> tuple[int, list[CounterexampleReport]]:
    """Fold (instances, failures) pairs as they arrive: one count, one failure list."""
    count, failures = 0, []
    for c, fs in results:
        count += c
        failures.extend(fs)
    return count, failures


def _block(check, lo: int, hi: int, args: tuple) -> tuple[int, list[CounterexampleReport]]:
    """check(i, *args) for every i in range(lo, hi), merged in index order."""
    return _merge(check(i, *args) for i in range(lo, hi))


def _drive(check, spaces, jobs: int) -> tuple[int, list[CounterexampleReport]]:
    """The module-level check(i, *args) -> (instances, failures) merged over
    range(count) of each (count, args) space in turn: one _block per space
    when parts = min(jobs, total, cores) <= 1, else one pool's starmap over
    blocks of at most ceil(total / parts) indices, merged in index order.
    """
    for count, _args in spaces:
        if count < 0:
            raise ValueError(f"instance count must be non-negative, got {count}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    total = sum(count for count, _args in spaces)
    parts = min(jobs, total, _CORES)
    if parts <= 1:
        return _merge(_block(check, 0, count, args) for count, args in spaces)
    from multiprocessing import Pool  # lazy: only parallel sweeps pay its import

    size = -(-total // parts)
    blocks = [(check, lo, min(lo + size, c), a) for c, a in spaces for lo in range(0, c, size)]
    with Pool(processes=min(parts, len(blocks))) as pool:  # ceil may leave fewer blocks
        return _merge(pool.starmap(_block, blocks))


def _pair_codes(sizes) -> list[tuple[int, tuple[int]]]:
    """The index spaces of every pair code, 2^(k(k-1)/2) of them, per size k."""
    return [(1 << (k * (k - 1) // 2), (k,)) for k in sizes]


def _feed_vertex_check(
    t: Digraph, w: WeightMap, stage: str, description: str, **pointers
) -> tuple[int, list[CounterexampleReport]]:
    """One tournament: the feed vertex of a local median order has the
    weighted SNP under the original weights."""
    wd = WeightedDigraph(t, w)
    co = local_median_order(t, w)
    f = feed_vertex(co)
    if has_weighted_snp(wd, f).holds:
        return 1, []
    return 1, [counterexample(stage, description, wd, **pointers, order=list(co.order), feed=f)]


def _theorem1_check(code: int, n: int) -> tuple[int, list[CounterexampleReport]]:
    return _feed_vertex_check(
        tournament_from_code(n, code),
        WeightMap.uniform(n),
        "feed-vertex-snp",
        "feed vertex without the SNP in a tournament",
        code=code,
    )


def sweep_theorem1(n: int, cumulative: bool = False, jobs: int = 1) -> SweepReport:
    """Every feed vertex of every labeled tournament has the SNP.

    Exhausts all tournaments on exactly n vertices (1..n when cumulative),
    computing one certified order each with unit weights.
    """
    if n > MAX_ENUM_TOURNAMENT_N:
        raise TooLarge(f"sweep limited to n <= {MAX_ENUM_TOURNAMENT_N}")
    if n < 1:
        raise ValueError("need at least one vertex")
    sizes = range(1, n + 1) if cumulative else [n]
    return SweepReport(
        "theorem1",
        {"n": n, "cumulative": cumulative},
        *_drive(_theorem1_check, _pair_codes(sizes), jobs),
        {},
    )


def _proposition1_check(
    i: int, max_n: int, seed: int, max_weight: int
) -> tuple[int, list[CounterexampleReport]]:
    rng = Rng(seed ^ i)
    n = 1 + rng.below(max_n)
    t = random_tournament(n, rng.next_u64())
    w = random_weights(n, rng.next_u64(), max_weight)
    return _feed_vertex_check(
        t,
        w,
        "feed-vertex-weighted-snp",
        "feed vertex without the weighted SNP in a weighted tournament",
        index=i,
    )


def sweep_proposition1(
    samples: int, max_n: int, seed: int, max_weight: int = 10, jobs: int = 1
) -> SweepReport:
    """Randomized check that feed vertices of weighted tournaments have the
    weighted SNP under the original (unperturbed) weights."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    check_cap(max_n)
    if not 0 <= max_weight < 2**64:
        raise ValueError(f"max_weight must be in [0, 2^64), got {max_weight}")
    return SweepReport(
        "prop1",
        {"samples": samples, "max_n": max_n, "seed": seed, "max_weight": max_weight},
        *_drive(_proposition1_check, [(samples, (max_n, seed, max_weight))], jobs),
        {},
    )


def _theorem2_check(i: int, max_n: int, seed: int) -> tuple[int, list[CounterexampleReport]]:
    rng = Rng(seed ^ i)
    n = 2 + rng.below(max_n - 1)
    spec = random_star_profile(n, rng)
    g, _dec = gen_generalized_star(spec=spec)
    d = random_digraph_missing(g, rng.next_u64())
    w = random_weights(g.n, rng.next_u64(), 10)
    wd = WeightedDigraph(d, w)
    try:
        cert = find_witness_good(wd)
    except ReportedFailure as exc:
        return 1, [exc.report]
    except SncError as exc:
        return 1, [
            counterexample("witness-pipeline-error", str(exc), wd, index=i, profile=spec.to_dict())
        ]
    if cert.witness in brute_force_snp_vertices(wd):
        return 1, []
    return 1, [
        counterexample(
            "cross-oracle",
            "certified witness rejected by the exhaustive scan",
            wd,
            index=i,
            profile=spec.to_dict(),
            orientations=cert.to_dict()["orientations"],
            order=list(cert.order.order),
        )
    ]


def sweep_theorem2(samples: int, max_n: int, seed: int, jobs: int = 1) -> SweepReport:
    """Certified witness pipeline on random digraphs missing a generated
    generalized star, cross-checked against the exhaustive scan."""
    if max_n > MAX_THEOREM2_N:
        raise TooLarge(f"sweep limited to max_n <= {MAX_THEOREM2_N}")
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    return SweepReport(
        "theorem2",
        {"samples": samples, "max_n": max_n, "seed": seed},
        *_drive(_theorem2_check, [(samples, (max_n, seed))], jobs),
        {},
    )


def _routes_check(g: UndirectedGraph) -> tuple[int, list[CounterexampleReport]]:
    try:
        route_agreement(g)
    except ReportedFailure as exc:
        return 1, [exc.report]
    return 1, []


def _exhaustive_routes_check(code: int, n: int) -> tuple[int, list[CounterexampleReport]]:
    return _routes_check(graph_from_code(n, code))


def _random_routes_check(
    i: int, min_n: int, max_n: int, seed: int
) -> tuple[int, list[CounterexampleReport]]:
    rng = Rng(seed ^ i)
    n = min_n + rng.below(max_n - min_n + 1)
    return _routes_check(random_graph(n, rng.next_u64()))


def _orientation_check(code: int, n: int) -> tuple[int, list[CounterexampleReport]]:
    """For graph number code: pairwise condition holds means every
    orientation has only good missing edges; otherwise the adversarial
    build must yield a digraph whose designated edge is not good."""
    g = graph_from_code(n, code)
    failures = []
    viol = check_condition_B(g)
    non_edges = g.non_edges()
    if viol is None:
        for orientation in range(1 << len(non_edges)):
            d = orient_pairs(n, non_edges, orientation)
            if not all_missing_edges_good(d)[0]:
                failures.append(
                    counterexample(
                        "all-orientations-good",
                        "non-good missing edge under a square-free missing graph",
                        WeightedDigraph(d, WeightMap.uniform(n)),
                        code=code,
                        orientation=orientation,
                    )
                )
        return 1 << len(non_edges), failures
    try:
        adversarial_digraph(g, viol)  # internal assertions raise on failure
    except ReportedFailure as exc:
        failures.append(exc.report)
    return 1, failures


def sweep_theorem3(
    n: int,
    random_samples: int = 0,
    random_min_n: int = 6,
    random_max_n: int = 9,
    seed: int = 0,
    jobs: int = 1,
) -> SweepReport:
    """Recognition route agreement and the orientation characterization.

    Route agreement runs over every labeled graph on 1..n vertices (n at
    most 5) and optionally over seeded random graphs of larger sizes; the
    orientation leg exhausts every completion of every graph on up to
    min(n, 4) vertices.
    """
    if n > MAX_ENUM_GRAPH_N:
        raise TooLarge(f"sweep limited to n <= {MAX_ENUM_GRAPH_N}")
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 1 <= random_min_n <= random_max_n:
        raise ValueError("need 1 <= random_min_n <= random_max_n")
    check_cap(random_max_n)
    routes = _drive(_exhaustive_routes_check, _pair_codes(range(1, n + 1)), jobs)
    random_routes = _drive(
        _random_routes_check, [(random_samples, (random_min_n, random_max_n, seed))], jobs
    )
    orientations = _drive(
        _orientation_check, _pair_codes(range(1, min(n, MAX_ORIENTATIONS_N) + 1)), jobs
    )
    return SweepReport(
        "theorem3",
        {
            "n": n,
            "random_samples": random_samples,
            "random_min_n": random_min_n,
            "random_max_n": random_max_n,
            "seed": seed,
        },
        *_merge([routes, random_routes, orientations]),
        {
            "route_agreement_graphs": routes[0],
            "random_route_agreement_graphs": random_routes[0],
            "orientation_instances": orientations[0],
        },
    )


def _gamma_poly(x: Fraction) -> Fraction:
    return 2 * x * x * x + x * x - 1


def gamma_sign(x: Fraction) -> int:
    """Sign of 2x^3 + x^2 - 1; negative exactly below the unique real root."""
    p = _gamma_poly(Fraction(x))
    return (p > 0) - (p < 0)


def gamma_bracket(precision_digits: int) -> tuple[Fraction, Fraction]:
    """Rational bracket of width at most 10^-digits around the root, found
    by exact bisection; the polynomial changes sign across it."""
    if precision_digits > MAX_GAMMA_DIGITS:
        raise TooLarge(f"precision limited to {MAX_GAMMA_DIGITS} digits")
    if precision_digits < 1:
        raise ValueError("need at least one digit of precision")
    lo, hi = Fraction(0), Fraction(1)
    tol = Fraction(1, 10 ** precision_digits)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if gamma_sign(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def gamma_constant(precision_digits: int) -> Fraction:
    """Rational approximation of the root, within 10^-digits (bracket
    midpoint, so actually within half of that)."""
    lo, hi = gamma_bracket(precision_digits)
    return (lo + hi) / 2


def check_gamma_property(d: Digraph) -> bool:
    """Some vertex with d++(v) >= gamma * d+(v), decided exactly.

    Chen, Shen and Yuster (Ann. Comb. 7, 2003) prove that every oriented
    graph has such a vertex.  A vertex with d+ = 0 satisfies it; otherwise
    the irrational constant never appears: with r = d++/d+, the inequality
    r >= gamma holds exactly when 2r^3 + r^2 - 1 >= 0.
    """
    for v in range(d.n):
        dp = d.out_degree(v)
        if dp == 0 or gamma_sign(Fraction(d.second_out_mask(v).bit_count(), dp)) >= 0:
            return True
    return False


def _gamma_check(i: int, max_n: int, seed: int) -> tuple[int, list[CounterexampleReport]]:
    rng = Rng(seed ^ i)
    n = 1 + rng.below(max_n)
    g = random_graph(n, rng.next_u64())
    d = random_digraph_missing(g, rng.next_u64())
    if check_gamma_property(d):
        return 1, []
    return 1, [
        counterexample(
            "gamma-property",
            "oriented graph without a vertex where d++(v) >= gamma * d+(v)",
            WeightedDigraph(d, WeightMap.uniform(n)),
            index=i,
        )
    ]


def sweep_gamma(samples: int, max_n: int, seed: int, jobs: int = 1) -> SweepReport:
    """Every seeded random oriented graph has a vertex with
    d++(v) >= gamma * d+(v) (Chen, Shen and Yuster)."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    check_cap(max_n)
    return SweepReport(
        "gamma",
        {"samples": samples, "max_n": max_n, "seed": seed},
        *_drive(_gamma_check, [(samples, (max_n, seed))], jobs),
        {},
    )
