"""The snc benchmark workloads.

Each workload is a closed loop: one caller runs one instance at a time
(jobs=1, no worker pool) and starts the next when the previous returns.
setup(seed) builds every input from the workload seed alone, using
snc.generators and snc.formats; the timed part hands the program only
those serialized inputs, through snc.cli.main in process (stdin and
stdout are strings) or through the public sweep functions.  check()
then validates the outputs outside the timed region.

Sizes are stratified: each pass over the pool takes the workload's size
list once, in a seeded order, so two seeds differ in their graphs but
not in their mix of sizes.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

from snc import cli, formats, generators, median_order, oracle
from snc.digraph import UndirectedGraph, WeightedDigraph, WeightMap
from snc.generators import Rng


class InstanceFailed(Exception):
    """An instance exited non-zero or its output failed its check."""


def call_cli(argv: list[str], stdin_text: str) -> str:
    """Run `snc <argv>` in process with stdin from a string; return stdout."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise InstanceFailed(f"snc {argv[0]} exited {code}: {err.getvalue()[:500]}")
    return out.getvalue()


def _stratified(sizes: tuple[int, ...], passes: int, rng: Rng) -> list[int]:
    out: list[int] = []
    for _ in range(passes):
        block = list(sizes)
        rng.shuffle(block)
        out.extend(block)
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InstanceFailed(message)


class Witness:
    """`snc witness` then `snc verify` on random digraphs missing a random
    generalized star, weights 0..10, n = 20..22.

    Why: local search dominates, and every move does a full O(n^2)
    Fraction rescan in median_order.feedback_check; good_edges
    classification and certificate checking ride along.  The sizes are
    few and close because cost grows about as n^4.5 and varies by about
    30% at fixed n: over a wide range the median is set by the dozen
    instances of the middle size and moved by 15-27% between seeds.
    """

    name = "witness"

    def __init__(self, smoke: bool):
        self.sizes = (6, 7, 8) if smoke else (20, 21, 22)
        self.passes = 3 if smoke else 60
        self.prefix = 6 if smoke else 30

    def setup(self, seed: int) -> list[str]:
        rng = Rng(seed)
        pool = []
        for n in _stratified(self.sizes, self.passes, rng):
            r = Rng(rng.next_u64())
            g, _dec = generators.gen_generalized_star(spec=generators.random_star_profile(n, r))
            d = generators.random_digraph_missing(g, r.next_u64())
            w = generators.random_weights(n, r.next_u64(), 10)
            pool.append(formats.serialize_digraph(WeightedDigraph(d, w)))
        return pool

    def run(self, text: str) -> list[str]:
        cert = call_cli(["witness", "-i", "-"], text)
        return [cert, call_cli(["verify", "-i", "-"], cert)]

    def check(self, text: str, outputs: list[str]) -> None:
        _require(json.loads(outputs[1])["verified"] is True, "witness certificate not verified")


class Sweep:
    """One-sample calls of the public sweeps, alternating
    sweep_proposition1 (weighted tournaments, n <= 10) and sweep_theorem2
    (star-missing digraphs, n <= 14, with the brute-force cross-check).
    Call pair i uses seed ^ i, which reproduces instance i of a full
    sweep with that seed.

    Why: Tier-1 and the acceptance gate are made of this traffic, where
    fixed per-instance costs dominate: generators, Digraph construction,
    small-n feedback scans, the oracle BFS and the sweep functions themselves.
    """

    name = "sweep"

    def __init__(self, smoke: bool):
        self.prop1_max_n = 5 if smoke else 10
        self.theorem2_max_n = 6 if smoke else 14
        self.prefix = 10 if smoke else 200
        self.seed = 0

    def setup(self, seed: int) -> range:
        # the sweeps generate their own instances, so the pool is the call index
        self.seed = seed
        return range(1 << 30)

    def run(self, k: int) -> list[str]:
        seed = self.seed ^ (k // 2)
        if k % 2 == 0:
            report = oracle.sweep_proposition1(1, self.prop1_max_n, seed)
        else:
            report = oracle.sweep_theorem2(1, self.theorem2_max_n, seed)
        return [json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"]

    def check(self, k: int, outputs: list[str]) -> None:
        doc = json.loads(outputs[0])
        _require(doc["instances"] == 1, "sweep did not run exactly one instance")
        _require(doc["failures"] == 0, f"sweep {doc['sweep']} reported failures")


# Three generalized stars for every non-star, the stars evenly split over
# one, two and three core layers (recognition cost depends on the layer
# count); the non-stars alternate between the two constructions below.
_STRUCTURE_MIX = (
    ("star", 1), ("star", 2), ("star", 3), ("random", 0),
    ("star", 1), ("star", 2), ("star", 3), ("star-minus-edge", 0),
)


def _rewired(g: UndirectedGraph, drop, add=()) -> UndirectedGraph:
    edges = set(g.edges()) - {tuple(sorted(e)) for e in drop}
    edges |= {tuple(sorted(e)) for e in add}
    return UndirectedGraph.from_edges(g.n, sorted(edges))


def _distinct(rng: Rng, items: list[int], k: int) -> list[int]:
    items = list(items)
    rng.shuffle(items)
    return items[:k]


def structure_graph(kind: str, layers: int, n: int, rng: Rng) -> tuple[UndirectedGraph, bool]:
    """A graph on n vertices and whether it is a generalized star.

    A star is drawn by random_star_profile, redrawn until it has
    `layers` core layers.  The label holds by construction: a generated
    star passes validate_decomposition, and each non-star contains an
    induced four-cycle, which no generalized star has.
    """
    if kind == "star":
        while True:
            spec = generators.random_star_profile(n, rng)
            if len(spec.x_profile) == layers:
                break
        g, _dec = generators.gen_generalized_star(spec=spec)
        return g, True
    if kind == "star-minus-edge":
        # two rays a, b and two vertices x1, x2 of the first core layer:
        # dropping x1x2 leaves the induced four-cycle a-x1-b-x2
        while True:
            spec = generators.random_star_profile(n, rng)
            if spec.x_profile[0] >= 2 and sum(spec.a_profile) >= 2:
                break
        g, dec = generators.gen_generalized_star(spec=spec)
        x1, x2 = _distinct(rng, sorted(dec.x_sets[0]), 2)
        return _rewired(g, [(x1, x2)]), False
    # a random graph with an induced four-cycle p-q-r-s planted in it
    g = generators.random_graph(n, rng.next_u64())
    p, q, r, s = _distinct(rng, list(range(n)), 4)
    return _rewired(g, [(p, r), (q, s)], [(p, q), (q, r), (r, s), (s, p)]), False


class Structure:
    """`snc recognize` on a graph, then `snc check-good` on a random
    digraph missing that graph, n = 32..34.

    Why: the only workload that loads stars (check_condition_B over edge
    pairs, max_stable_set, validate_decomposition; adversarial_digraph
    for non-stars) and goodness classification at scale.  It never calls
    median_order, so it bypasses every median-order change, and it is
    the mechanism workload for reach-within-two bitmasks.  Sizes are few
    and close for the reason given in Witness, and small enough for a
    run to hold about 500 instances: star cost grows with the square of
    the edge count, which random profiles spread widely, and at n = 40 a
    run of 230 instances still moved its median by 11% between seeds.
    """

    name = "structure"

    def __init__(self, smoke: bool):
        self.sizes = (10, 11, 12) if smoke else (32, 33, 34)
        self.passes = 4 if smoke else 220
        self.prefix = 8 if smoke else 40

    def setup(self, seed: int) -> list[tuple[str, str, bool]]:
        rng = Rng(seed)
        pool = []
        for k, n in enumerate(_stratified(self.sizes, self.passes, rng)):
            r = Rng(rng.next_u64())
            g, label = structure_graph(*_STRUCTURE_MIX[k % len(_STRUCTURE_MIX)], n, r)
            d = generators.random_digraph_missing(g, r.next_u64())
            digraph_text = formats.serialize_digraph(WeightedDigraph(d, WeightMap.uniform(n)))
            pool.append((formats.serialize_graph(g), digraph_text, label))
        return pool

    def run(self, inst: tuple[str, str, bool]) -> list[str]:
        graph_text, digraph_text, _label = inst
        return [
            call_cli(["recognize", "-i", "-"], graph_text),
            call_cli(["check-good", "-i", "-"], digraph_text),
        ]

    def check(self, inst: tuple[str, str, bool], outputs: list[str]) -> None:
        label = inst[2]
        recognized = json.loads(outputs[0])["is_generalized_star"]
        _require(recognized is label, f"recognize said {recognized}, generator said {label}")
        if label:
            _require(json.loads(outputs[1])["all_good"] is True, "star-missing digraph not all good")


class Exact:
    """`snc median-order --exact` then `snc verify` on weighted tournaments
    (JSON input), n in {9, 10, 11}.

    Why: the subset DP and its 2^n live PerturbedRational values appear
    in no other workload.  DP time depends on n alone, so latency is a
    step function of n.  Seven in ten instances have n = 10, which keeps
    the median and the tail percentile inside the n = 10 step for any
    run of 13 to 99 instances; n = 9 and 11 weigh in instances_per_s and
    peak_rss_mb.  Sizes sit one below 10..12 so that a run holds about
    60 instances: their latency varies by about 13% from noise alone.
    """

    name = "exact"

    def __init__(self, smoke: bool):
        self.sizes = (5, 6, 7) if smoke else (9, 9, 10, 10, 10, 10, 10, 10, 10, 11)
        self.passes = 4 if smoke else 12
        self.prefix = 6 if smoke else 20

    def setup(self, seed: int) -> list[str]:
        rng = Rng(seed)
        pool = []
        for n in _stratified(self.sizes, self.passes, rng):
            t = generators.random_tournament(n, rng.next_u64())
            w = generators.random_weights(n, rng.next_u64(), 10)
            pool.append(json.dumps(formats.digraph_instance_dict(WeightedDigraph(t, w))))
        return pool

    def run(self, text: str) -> list[str]:
        order = call_cli(["median-order", "--exact", "-i", "-"], text)
        return [order, call_cli(["verify", "-i", "-"], order)]

    def check(self, text: str, outputs: list[str]) -> None:
        _require(json.loads(outputs[1])["verified"] is True, "exact order not verified")
        wd, _labels = formats.load_digraph(text)
        local = median_order.local_median_order(wd.digraph, wd.weights)
        exact = median_order.perturbed_from_dict(json.loads(outputs[0])["objective"])
        _require(exact >= local.objective, "exact objective below the local search objective")


WORKLOADS = {cls.name: cls for cls in (Witness, Sweep, Structure, Exact)}
