"""Certified orders: perturbed arithmetic, feedback checks, both searches.

Expected values tagged as derived were computed by the independent
oracles used in this file (exhaustive enumeration of all orders, and a
Fraction-triple model of w + eps arithmetic) before being frozen into
assertions.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snc import (
    CertifiedOrder,
    Digraph,
    InternalTheoremViolation,
    MoveLimitExceeded,
    NotATournament,
    PerturbedRational,
    WeightMap,
    WeightedDigraph,
    exact_median_order,
    feed_vertex,
    feedback_check,
    has_weighted_snp,
    local_median_order,
    order_objective,
)
from snc import median_order
from snc.formats import load_digraph
from snc.generators import Rng, random_tournament, random_weights
from snc.median_order import (
    PREFIX,
    SUFFIX,
    FeedbackViolation,
    _move,
    _perturbed_keys,
    _product_value,
    _scan,
    _scan_state,
    _sum_value,
    _violation,
    default_move_limit,
)
from snc.oracle import tournament_from_code


def cycle3() -> Digraph:
    return Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def transitive3() -> Digraph:
    return Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])


def pr(c0, c1=0, c2=0) -> PerturbedRational:
    return PerturbedRational(c0, c1, c2)


def rational_weights(n: int, seed: int) -> WeightMap:
    """Weights in [0, 6] over mixed denominators 1..6, zeros included."""
    rng = Rng(seed)
    return WeightMap([Fraction(rng.below(7), 1 + rng.below(6)) for _ in range(n)])


# Reference model of w + eps: (c0, c1, c2) Fraction triples, products
# truncated at degree two, compared lexicographically as tuples.
ZERO = (Fraction(0), Fraction(0), Fraction(0))


def ref_weight(x: Fraction) -> tuple:
    return (Fraction(x), Fraction(1), Fraction(0))


def ref_add(a: tuple, b: tuple) -> tuple:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def ref_mul(a: tuple, b: tuple) -> tuple:
    return (a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[0] * b[2] + a[1] * b[1] + a[2] * b[0])


def ref_objective(t: Digraph, w: WeightMap, order) -> tuple:
    total = ZERO
    for i, u in enumerate(order):
        for v in order[i + 1 :]:
            if t.has_arc(u, v):
                total = ref_add(total, ref_mul(ref_weight(w[u]), ref_weight(w[v])))
    return total


def ref_objective_key(t: Digraph, keys: list[int], order) -> int:
    """The objective of order as an int key, for keys from _perturbed_keys,
    summed arc by arc: k_u * k_v over every arc uv pointing forward."""
    out = t.out_masks()
    total = 0
    for i, u in enumerate(order):
        for v in order[i + 1 :]:
            if out[u] >> v & 1:
                total += keys[u] * keys[v]
    return total


def ref_order_objective(t: Digraph, w: WeightMap, order) -> PerturbedRational:
    keys, scale, base = _perturbed_keys(w)
    return _product_value(ref_objective_key(t, keys, order), scale, base)


def brute_force_best(t: Digraph, w: WeightMap) -> PerturbedRational:
    """Independent oracle: maximize the reference objective over every permutation."""
    return pr(*max(ref_objective(t, w, p) for p in itertools.permutations(range(t.n))))


class TestPerturbedRational:
    def test_comparison_is_lexicographic(self):
        assert pr(1, 1) < pr(1, 2)
        assert pr(1, 5, 5) < pr(2)
        assert pr(0) < pr(0, 1)
        assert not pr(0) < pr(0)

    def test_arithmetic(self):
        # x = 3/2 + eps, y = 2 + eps, combined on their integer keys
        (x, y), scale, base = _perturbed_keys(WeightMap([Fraction(3, 2), 2]))
        assert _sum_value(x + y, scale, base) == pr(Fraction(7, 2), 2)
        assert _product_value(x * y, scale, base) == pr(3, Fraction(7, 2), 1)
        assert _sum_value(y - x, scale, base) == pr(Fraction(1, 2), 0)

    def test_truncation_at_degree_two(self):
        # eps^2 * eps^1 contributions vanish in the reference model
        assert ref_mul((0, 0, 1), (0, 1, 0)) == ZERO
        # the eps^2 coefficients of all n(n-1)/2 products of zero weights
        # stay in the eps^2 digit of the key, next to a maximal weight
        w = WeightMap([0, 0, 0, 0, 12])
        keys, scale, base = _perturbed_keys(w)
        pairs = list(itertools.combinations(range(len(w)), 2))
        k = sum(keys[u] * keys[v] for u, v in pairs)
        expect = ZERO
        for u, v in pairs:
            expect = ref_add(expect, ref_mul(ref_weight(w[u]), ref_weight(w[v])))
        assert _product_value(k, scale, base) == pr(*expect) == pr(0, 48, 10)


weights_st = st.lists(
    st.builds(Fraction, st.integers(0, 12), st.integers(1, 12)), min_size=1, max_size=9
)


@settings(max_examples=300, deadline=None)
@given(weights_st, st.data())
def test_integer_keys_match_reference(values, data):
    """Decoded key sums and products equal the Fraction-triple reference,
    and int order on keys is the reference's lexicographic order."""
    w = WeightMap(values)
    n = len(w)
    keys, scale, base = _perturbed_keys(w)
    ref = [ref_weight(x) for x in w]
    vertex_sets = st.lists(st.integers(0, n - 1), max_size=n, unique=True)
    # at most n(n-1)/2 products of two, as in any forward-arc objective
    pair_lists = st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * (n - 1) // 2
    )

    sums = []
    for _ in range(2):
        a = data.draw(vertex_sets)
        k = sum(keys[v] for v in a)
        expect = ZERO
        for v in a:
            expect = ref_add(expect, ref[v])
        assert _sum_value(k, scale, base) == pr(*expect)
        sums.append((k, expect, sum(w[v] for v in a)))
    (ka, ra, wa), (kb, rb, wb) = sums
    assert (ka < kb) == (ra < rb) and (ka == kb) == (ra == rb)
    if ka <= kb:
        assert wa <= wb  # the perturbation never reverses an unperturbed order

    products = []
    for _ in range(2):
        pairs = data.draw(pair_lists)
        k = sum(keys[u] * keys[v] for u, v in pairs)
        expect = ZERO
        for u, v in pairs:
            expect = ref_add(expect, ref_mul(ref[u], ref[v]))
        assert _product_value(k, scale, base) == pr(*expect)
        products.append((k, expect))
    (ka, ra), (kb, rb) = products
    assert (ka < kb) == (ra < rb) and (ka == kb) == (ra == rb)


def test_order_objective_examples():
    w1 = WeightMap.uniform(3)
    assert order_objective(transitive3(), w1, (0, 1, 2)) == pr(3, 6, 3)
    assert order_objective(cycle3(), w1, (0, 1, 2)) == pr(2, 4, 2)
    assert order_objective(Digraph(1), WeightMap.uniform(1), (0,)) == pr(0)


def test_order_objective_matches_arc_by_arc_reference():
    """order_objective reads the objective off a scan state, as local
    search does; the reference sums it arc by arc.  Every permutation of
    every labelled tournament on up to 4 vertices, under unit, all-zero and
    1/(v+1) weights, orders without the feedback property included, then
    shuffled orders of seeded tournaments on up to 12 vertices."""
    failing = 0
    for n in range(5):
        weightings = [
            WeightMap.uniform(n),
            WeightMap([0] * n),
            WeightMap([Fraction(1, v + 1) for v in range(n)]),
        ]
        for code in range(1 << n * (n - 1) // 2):
            t = tournament_from_code(n, code)
            for order in itertools.permutations(range(n)):
                for w in weightings:
                    assert order_objective(t, w, order) == ref_order_objective(t, w, order)
                failing += feedback_check(t, weightings[0], order) is not None
    assert failing
    rng = Rng(4242)
    for k in range(48):
        n = 1 + k % 12
        t = random_tournament(n, rng.next_u64())
        w = random_weights(n, rng.next_u64(), 10) if k % 2 else rational_weights(n, rng.next_u64())
        order = list(range(n))
        rng.shuffle(order)
        assert order_objective(t, w, order) == ref_order_objective(t, w, order)


def test_order_objective_rejects_non_tournament():
    with pytest.raises(NotATournament):
        order_objective(Digraph(2), WeightMap.uniform(2), (0, 1))


def test_feedback_check_examples():
    w1 = WeightMap.uniform(3)
    assert feedback_check(cycle3(), w1, (0, 1, 2)) is None
    first = feedback_check(transitive3(), w1, (2, 1, 0))
    assert (first.kind, first.i, first.j) == (PREFIX, 1, 2)
    assert first.lhs < first.rhs
    assert feedback_check(Digraph(1), WeightMap.uniform(1), (0,)) is None


def ref_total(ref: list, vertices) -> tuple:
    total = ZERO
    for v in vertices:
        total = ref_add(total, ref[v])
    return total


def ref_violations(t: Digraph, w: WeightMap, order):
    """The interval definition of the feedback property on Fraction
    triples: each strict failure, in order of (i, j, prefix then suffix)."""
    n = len(order)
    ref = [ref_weight(x) for x in w]
    for i in range(n):
        for j in range(i + 1, n):
            inside, lead, trail = order[i : j + 1], order[i], order[j]
            lead_out = ref_total(ref, [u for u in inside if t.has_arc(lead, u)])
            lead_in = ref_total(ref, [u for u in inside if t.has_arc(u, lead)])
            if lead_out < lead_in:
                yield PREFIX, i + 1, j + 1, pr(*lead_out), pr(*lead_in)
            trail_in = ref_total(ref, [u for u in inside if t.has_arc(u, trail)])
            trail_out = ref_total(ref, [u for u in inside if t.has_arc(trail, u)])
            if trail_in < trail_out:
                yield SUFFIX, i + 1, j + 1, pr(*trail_in), pr(*trail_out)


def test_feedback_check_matches_interval_definition():
    for seed in range(60):
        rng = Rng(seed)
        n = 1 + rng.below(12)
        t = random_tournament(n, rng.next_u64())
        order = list(range(n))
        rng.shuffle(order)
        for w in (WeightMap([0] * n), rational_weights(n, rng.next_u64())):
            keys, scale, base = _perturbed_keys(w)
            found = [_violation(v, scale, base) for v in _scan(_scan_state(t, keys, order))]
            assert [(v.kind, v.i, v.j, v.lhs, v.rhs) for v in found] == list(
                ref_violations(t, w, order)
            )
            assert feedback_check(t, w, order) == (found[0] if found else None)


def ref_search(t: Digraph, w: WeightMap, start) -> tuple[tuple, list]:
    """Local search on the interval definition: from the same start, repair
    the first violation until none is left.  Returns the final order and
    the trace local_median_order would record."""
    order = list(range(t.n))
    if start is not None:
        Rng(start).shuffle(order)
    trace = []
    while (first := next(ref_violations(t, w, order), None)) is not None:
        kind, i, j = first[:3]
        if kind == PREFIX:
            order.insert(j - 1, order.pop(i - 1))  # v_i to just after v_j
        else:
            order.insert(i - 1, order.pop(j - 1))  # v_j to just before v_i
        repaired = FeedbackViolation(*first).to_dict()
        trace.append({"move": len(trace) + 1, "order": list(order), "repaired": repaired})
    return tuple(order), trace


def test_local_search_matches_first_violation_reference():
    """The search repairs exactly the first violation of the interval
    definition, from the same start, until none is left."""
    for seed in range(200):
        rng = Rng(seed)
        n = 1 + rng.below(10)
        t = random_tournament(n, rng.next_u64())
        w = rational_weights(n, rng.next_u64()) if seed % 2 else random_weights(n, rng.next_u64(), 10)
        start = None if seed % 3 else rng.next_u64()
        assert local_median_order(t, w, seed=start).order == ref_search(t, w, start)[0]


def test_local_search_matches_reference_at_witness_sizes():
    """At n = 18..24, the sizes witness runs at, the search makes the
    reference's moves: the same order, move count and repaired violations,
    under zero, rational and integer weights and from shuffled starts."""
    for seed in range(6):  # each weight kind from the ascending and a shuffled start
        rng = Rng(1000 + seed)
        n = 18 + rng.below(7)
        t = random_tournament(n, rng.next_u64())
        if seed % 3 == 0:
            w = WeightMap([0] * n)
        elif seed % 3 == 1:
            w = rational_weights(n, rng.next_u64())
        else:
            w = random_weights(n, rng.next_u64(), 10)
        start = rng.next_u64() if seed % 2 else None
        trace: list = []
        co = local_median_order(t, w, seed=start, trace=trace)
        order, ref_trace = ref_search(t, w, start)
        assert co.order == order
        assert len(trace) == len(ref_trace) > 0
        assert trace == ref_trace


def test_local_median_order_examples():
    # already certified: zero moves needed, order unchanged
    trace: list = []
    co = local_median_order(cycle3(), WeightMap.uniform(3), trace=trace)
    assert co.order == (0, 1, 2)
    assert trace == []

    # weighted cycle: exhaustive oracle gives optimum 9 at order (1,2,0)
    w = WeightMap([1, 2, 3])
    best = brute_force_best(cycle3(), w)
    assert best.c0 == 9
    co = local_median_order(cycle3(), w)
    assert feedback_check(cycle3(), w, co.order) is None
    assert co.objective <= best


def test_local_search_reaches_unique_certified_order():
    # the transitive triangle has exactly one violation-free order
    w1 = WeightMap.uniform(3)
    certified = [
        p for p in itertools.permutations(range(3))
        if feedback_check(transitive3(), w1, p) is None
    ]
    assert certified == [(0, 1, 2)]
    for start in itertools.permutations(range(3)):
        t = transitive3()
        co = local_median_order(t, WeightMap.uniform(3), seed=None)
        assert co.order == (0, 1, 2)


def test_local_objective_is_order_objective():
    """The objective local search reads off its scan state is the one
    ref_order_objective sums arc by arc: on seeded tournaments, n = 1..12, with
    integer, all-zero and rational weights, and on every tournament with
    n <= 4 under unit weights and under weights 0, 1/2, 1, 3/2."""
    rng = Rng(2030)
    for k in range(36):
        n = 1 + k % 12
        r = Rng(rng.next_u64())
        if k % 3 == 0:
            w = random_weights(n, r.next_u64(), 10)
        elif k % 3 == 1:
            w = WeightMap([0] * n)
        else:
            w = WeightMap([Fraction(r.below(4), 1 + r.below(5)) for _ in range(n)])
        t = random_tournament(n, r.next_u64())
        co = local_median_order(t, w, seed=r.below(1000) if k % 2 else None)
        assert co.objective == ref_order_objective(t, w, co.order)
    for n in range(5):
        for w in (WeightMap.uniform(n), WeightMap([Fraction(v, 2) for v in range(n)])):
            for code in range(1 << n * (n - 1) // 2):
                t = tournament_from_code(n, code)
                co = local_median_order(t, w)
                assert co.objective == ref_order_objective(t, w, co.order)


def test_local_search_trace_is_strictly_improving():
    for seed in range(10):
        n = 4 + seed % 4
        t = random_tournament(n, seed)
        w = random_weights(n, seed + 50, 10)
        trace: list = []
        co = local_median_order(t, w, trace=trace)
        objectives = [order_objective(t, w, tuple(step["order"])) for step in trace]
        objectives.append(co.objective)
        for a, b in zip(objectives, objectives[1:]):
            assert a <= b
        if trace:
            start_obj = order_objective(t, w, tuple(range(n)))
            assert start_obj < objectives[0]


def test_local_search_scans_once_per_move_plus_one(monkeypatch):
    # the benchmark derives its moves counter from these calls
    calls = []
    real = median_order.feedback_check

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(median_order, "feedback_check", counting)
    moved = 0
    for seed in range(10):
        t = random_tournament(8, seed)
        w = random_weights(8, seed + 50, 10)
        calls.clear()
        trace: list = []
        co = local_median_order(t, w, trace=trace)
        assert len(calls) == len(trace) + 1
        assert calls[-1] == co.order
        moved += bool(trace)
    assert moved


def test_move_returns_its_positive_objective_gain():
    """Every repair move of a search returns a positive gain, the objective
    key after the move minus the key before it, and leaves the state equal
    to one built afresh from its vertex column, under zero, rational and
    integer weights."""
    moved = 0
    for seed in range(12):
        rng = Rng(2000 + seed)
        n = 2 + rng.below(11)
        t = random_tournament(n, rng.next_u64())
        if seed % 3 == 0:
            w = WeightMap([0] * n)
        elif seed % 3 == 1:
            w = rational_weights(n, rng.next_u64())
        else:
            w = random_weights(n, rng.next_u64(), 10)
        keys = _perturbed_keys(w)[0]
        order = list(range(n))
        rng.shuffle(order)
        state = _scan_state(t, keys, order)
        while (first := next(_scan(state), None)) is not None:
            before = ref_objective_key(t, keys, state.vertex)
            gain = _move(state, first[0], first[1] - 1, first[2] - 1)
            assert gain > 0
            assert gain == ref_objective_key(t, keys, state.vertex) - before
            assert state == _scan_state(t, keys, state.vertex)
            moved += 1
    assert moved


@pytest.mark.parametrize(
    "delta, stage",
    [
        (-(10**60), "local-search-state"),  # hides every suffix failure at the last position
        (10**60, "local-search-gain"),  # reports one that is not there
    ],
    ids=["hidden", "spurious"],
)
def test_corrupted_scan_state_is_caught(monkeypatch, delta, stage):
    """A wrong trail entry in local search's maintained state never yields an
    uncertified order: the comparison with a fresh state or the gain check
    stops the search with a dump that loads back into the instance, names
    its order's first violation, and fails alike when the search is run on
    it again."""
    real = median_order._move

    def corrupting(state, kind, i, j):
        out_minus_in = real(state, kind, i, j)
        state.trail[-1] += delta
        return out_minus_in

    monkeypatch.setattr(median_order, "_move", corrupting)
    caught = 0
    for seed in range(20):
        t = random_tournament(10, seed)
        w = random_weights(10, seed + 50, 10)
        try:
            co = local_median_order(t, w)
        except InternalTheoremViolation as exc:
            assert exc.report.stage == stage
            dump = exc.report.state
            wd, _ = load_digraph(json.dumps(dump["instance"]))
            assert (wd.digraph, wd.weights) == (t, w)
            assert set(dump) == {"instance", "order", "violation"}
            if stage == "local-search-state":
                # the dump names the first violation of its order, if there is one
                missed = feedback_check(t, w, dump["order"])
                assert dump["violation"] == (missed and missed.to_dict())
            with pytest.raises(InternalTheoremViolation) as again:
                local_median_order(wd.digraph, wd.weights)
            assert again.value.report == exc.report
            caught += 1
        else:
            assert feedback_check(t, w, co.order) is None
    assert caught


def test_move_limit_exceeded_reports_state():
    # reversed transitive triangle: the ascending start needs two repairs
    t = Digraph.from_arcs(3, [(2, 1), (2, 0), (1, 0)])
    assert local_median_order(t, WeightMap.uniform(3)).order == (2, 1, 0)
    with pytest.raises(MoveLimitExceeded) as exc:
        local_median_order(t, WeightMap.uniform(3), move_limit=1)
    report = exc.value.report
    state = report.state
    assert report.stage == "move-limit" and state["moves"] == 1 and state["seed"] is None
    # every violation that remains, counted without decoding
    remaining = list(ref_violations(t, WeightMap.uniform(3), state["order"]))
    assert state["remaining"] == len(remaining) > 0
    wd = load_digraph(json.dumps(state["instance"]))[0]
    assert (wd.digraph, wd.weights) == (t, WeightMap.uniform(3))
    assert default_move_limit(3) == 50 * 27


def test_exact_order_feedback_dump_replays(monkeypatch):
    """A wrong subset DP, here one that reads out-masks as in-masks and so
    puts the heaviest backward arcs first, is caught by the feedback check;
    the dump holds the instance, the order and its first violation, which
    feedback_check finds again on the loaded instance."""
    monkeypatch.setattr(Digraph, "in_masks", Digraph.out_masks)
    for seed in range(5):
        t = random_tournament(6, seed)
        w = rational_weights(6, seed + 30)
        with pytest.raises(InternalTheoremViolation) as exc:
            exact_median_order(t, w)
        report = exc.value.report
        assert report.stage == "exact-order-feedback"
        assert set(report.state) == {"instance", "order", "violation"}
        wd, _ = load_digraph(json.dumps(report.state["instance"]))
        assert (wd.digraph, wd.weights) == (t, w)
        again = feedback_check(wd.digraph, wd.weights, report.state["order"])
        assert again.to_dict() == report.state["violation"]


def test_exact_median_order_examples():
    co = exact_median_order(cycle3(), WeightMap([1, 2, 3]))
    assert co.objective.c0 == 9
    co = exact_median_order(transitive3(), WeightMap.uniform(3))
    assert co.order == (0, 1, 2)
    assert co.objective.c0 == 3
    co = exact_median_order(Digraph.from_arcs(2, [(0, 1)]), WeightMap.uniform(2))
    assert co.order == (0, 1)


def ref_exact(t: Digraph, keys: list[int]) -> tuple[tuple, int]:
    """The subset DP without pruning: every set pushes every vertex it
    lacks, masks in increasing order, a candidate replacing a value only
    when strictly greater.  Returns the reconstructed order and its key."""
    n = t.n
    size = 1 << n
    subset_key = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        subset_key[mask] = subset_key[mask ^ low] + keys[low.bit_length() - 1]
    dp, parent = [-1] * size, [-1] * size
    dp[0] = 0
    for mask in range(size):
        for v in range(n):
            if mask >> v & 1:
                continue
            cand = dp[mask] + keys[v] * subset_key[mask & t.in_masks()[v]]
            if dp[mask | 1 << v] < cand:
                dp[mask | 1 << v], parent[mask | 1 << v] = cand, v
    rev, mask = [], size - 1
    while mask:
        rev.append(parent[mask])
        mask ^= 1 << parent[mask]
    return tuple(reversed(rev)), dp[size - 1]


def assert_exact_matches_reference(t: Digraph, w: WeightMap) -> None:
    keys, scale, base = _perturbed_keys(w)
    order, key = ref_exact(t, keys)
    co = exact_median_order(t, w)
    assert (co.order, co.objective) == (order, _product_value(key, scale, base))


def test_pruned_exact_matches_reference_exhaustive_small():
    """Pruning keeps the order among optimal ties, not only the optimum:
    every labelled tournament on up to 5 vertices, under unit, zero,
    small-integer and rational weights."""
    for n in range(1, 6):
        weightings = [
            WeightMap.uniform(n),
            WeightMap([0] * n),
            WeightMap([v % 3 for v in range(n)]),
            WeightMap([Fraction(1, v + 1) for v in range(n)]),
        ]
        for code in range(1 << n * (n - 1) // 2):
            t = tournament_from_code(n, code)
            for w in weightings:
                assert_exact_matches_reference(t, w)


def test_pruned_exact_matches_reference_on_ties():
    """Seeded tournaments on 6 to 12 vertices with weights at most 0, 1
    or 2, where optimal orders tie often."""
    rng = Rng(1313)
    for k in range(120):
        n = 6 + k % 7  # 6..12
        t = random_tournament(n, rng.next_u64())
        assert_exact_matches_reference(t, random_weights(n, rng.next_u64(), k % 3))


def ref_pushes(t: Digraph, keys: list[int]) -> tuple[int, int]:
    """The pushes the pruning rule allows, made only from sets that an
    allowed push reaches, read with out-masks for test (b); returns the
    number of pushes and of reached sets."""
    n = t.n
    full = (1 << n) - 1

    def key_sum(mask):
        return sum(keys[v] for v in range(n) if mask >> v & 1)

    reached, pushes = {0}, 0
    for mask in range(full + 1):
        if mask not in reached:
            continue
        for v in range(n):
            if mask >> v & 1:
                continue
            rest = full ^ mask ^ 1 << v
            if 2 * key_sum(mask & t.in_masks()[v]) < key_sum(mask):
                continue
            if 2 * key_sum(rest & t.out_mask(v)) < key_sum(rest):
                continue
            pushes += 1
            reached.add(mask | 1 << v)
    return pushes, len(reached)


def test_pruned_exact_pushes_only_what_the_rule_allows(monkeypatch):
    """The DP computes one candidate, a product with the appended vertex's
    key on the left, per push: count them through an int subclass and
    compare with the rule applied from the reached sets only."""
    products = [0]

    class CountingKey(int):
        def __mul__(self, other):
            products[0] += 1
            return int(self) * other

    perturbed_keys = median_order._perturbed_keys

    def counting_keys(w):
        keys, scale, base = perturbed_keys(w)
        return [CountingKey(k) for k in keys], scale, base

    monkeypatch.setattr(median_order, "_perturbed_keys", counting_keys)
    rng = Rng(2718)
    for n in (7, 8, 9, 10):
        t = random_tournament(n, rng.next_u64())
        for w in (random_weights(n, rng.next_u64(), 1), rational_weights(n, rng.next_u64())):
            products[0] = 0
            exact_median_order(t, w)
            pushes, reached = ref_pushes(t, perturbed_keys(w)[0])
            assert products[0] == pushes
            assert reached < 1 << n


def test_exact_matches_permutation_brute_force():
    for seed in range(8):
        n = 4 + seed % 3
        t = random_tournament(n, seed * 7 + 1)
        for w in (random_weights(n, seed * 13 + 2, 6), rational_weights(n, seed * 13 + 3)):
            co = exact_median_order(t, w)
            assert co.objective == brute_force_best(t, w)


def test_local_objective_never_beats_exact():
    for seed in range(40):
        n = 3 + seed % 6  # up to 8 vertices
        t = random_tournament(n, seed * 31 + 5)
        for w in (random_weights(n, seed * 17 + 4, 10), rational_weights(n, seed * 17 + 6)):
            local = local_median_order(t, w)
            exact = exact_median_order(t, w)
            assert local.objective <= exact.objective


def test_perturb_weights_examples():
    keys, scale, base = _perturbed_keys(WeightMap([Fraction(3, 2), 0]))
    assert _sum_value(keys[0], scale, base) == pr(Fraction(3, 2), 1)
    assert _sum_value(keys[1], scale, base) == pr(0, 1)
    assert keys[1] > 0


def test_perturbation_soundness_on_random_sets():
    rng = Rng(77)
    for _ in range(200):
        n = 1 + rng.below(9)
        w = random_weights(n, rng.next_u64(), 6)
        keys, _, _ = _perturbed_keys(w)
        a = [v for v in range(n) if rng.next_u64() & 1]
        b = [v for v in range(n) if rng.next_u64() & 1]
        if sum(keys[v] for v in a) <= sum(keys[v] for v in b):
            assert sum(w[v] for v in a) <= sum(w[v] for v in b)


def test_feed_vertex():
    assert feed_vertex(CertifiedOrder((0, 1, 2), PerturbedRational())) == 2
    assert feed_vertex(CertifiedOrder((0,), PerturbedRational())) == 0
    with pytest.raises(ValueError):
        feed_vertex(CertifiedOrder((), PerturbedRational()))


def test_feed_vertex_has_weighted_snp_randomized():
    for seed in range(100):
        rng = Rng(seed)
        n = 1 + rng.below(8)
        t = random_tournament(n, rng.next_u64())
        w = random_weights(n, rng.next_u64(), 10)
        co = local_median_order(t, w)
        assert has_weighted_snp(WeightedDigraph(t, w), feed_vertex(co)).holds


def test_feed_vertex_has_snp_exhaustive_small():
    for n in range(1, 5):
        w = WeightMap.uniform(n)
        for code in range(1 << n * (n - 1) // 2):
            t = tournament_from_code(n, code)
            co = local_median_order(t, w)
            assert has_weighted_snp(WeightedDigraph(t, w), feed_vertex(co)).holds
