"""Weighted local median orders of tournaments, certified exactly.

An order v1..vn of a weighted tournament satisfies the feedback property
when, for every interval [i,j] of the order, the leading vertex vi
out-weighs its in-weight inside the interval and the trailing vertex vj
in-weighs its out-weight inside the interval.  Any order satisfying the
feedback property is a weighted local median order; its last vertex is a
feed vertex.

Zero weights would let exchange arguments stall, so every computation
runs on perturbed weights w(v) + eps for a symbolic infinitesimal eps.
Each perturbed weight is one Python int: the weights are scaled by the
LCM of their denominators and eps is the unit digit of a base large
enough that no eps-coefficient of a sum of weights, or of a sum of
products of two weights, carries.  Plain int comparison is then exactly
the lexicographic order on (c0, c1, c2), and PerturbedRational appears
only in what is reported.  Final conclusions are re-checked under the
original weights by the callers that need them.

Two order constructions are provided:

* local_median_order: local search that repairs the first feedback
  violation in a fixed scan order; every move strictly increases the
  perturbed forward-arc objective, so no order repeats and the search
  terminates (a move limit turns pathological slowness into an error).
  The search keeps one record of its order, a _ScanState: per position
  the vertex, its out-mask, bit and perturbed key, and its out-minus-in
  key over the positions before it.  _move splices the record in
  O(span) instead of rebuilding it in O(n^2), and returns the move's
  gain.  When a scan of the record shows no violation, the search
  builds the state afresh from the order and requires the two to be
  equal, so the clean scan is a scan of a fresh state and the
  certificate never rests on the incremental update; a difference is an
  internal violation (stage local-search-state).  The objective is read
  off that fresh state in O(n) (_state_objective).
* exact_median_order: subset dynamic program maximizing the perturbed
  objective globally.  It extends a prefix set only by a vertex that
  passes the two interval tests an optimal order must pass there, so it
  visits a fraction of the 2^n sets (about a fifth at n = 10, about a
  tenth at n = 16) and returns the order the full program would; it is
  capped at twenty vertices, under a second at that size.

Either way the result is a CertifiedOrder.  Its document's one free
choice is the order: the objective and the feed vertex are derived from
it, and verify_order re-derives the whole document from the order and
the instance, so a tampered field fails verification.  It builds one
scan state of the order and reads both the first violation and the
objective off it (_verdict), as local search does; order_objective is
the same reading with input checks.  A guarantee that fails (stages
local-search-state, local-search-gain, exact-order-feedback) dumps the
instance, the order and that order's first violation, which
feedback_check names again on the loaded instance.  Running out of moves
(MoveLimitExceeded, stage move-limit) dumps the instance, the last order,
the moves made, the violations that remain and the start order's seed;
local search on the loaded instance with the same move limit and seed
stops at the same point.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence

from .digraph import Digraph, WeightedDigraph, WeightMap, rational_dict, rational_from_dict
from .errors import InternalTheoremViolation, MoveLimitExceeded, NotATournament, TooLarge
from .formats import counterexample, fields_match, int_list


class PerturbedRational(NamedTuple):
    """Reported value c0 + c1*eps + c2*eps^2 with exact rational coefficients.

    eps is an unnamed positive infinitesimal, so comparison is
    lexicographic on (c0, c1, c2).  All arithmetic happens on integer keys
    (see _perturbed_keys); this class only carries results out.
    """

    c0: Fraction = Fraction(0)
    c1: Fraction = Fraction(0)
    c2: Fraction = Fraction(0)

    def to_dict(self) -> dict:
        return {c: rational_dict(getattr(self, c)) for c in ("c0", "c1", "c2")}


def perturbed_from_dict(doc: dict) -> PerturbedRational:
    return PerturbedRational(*(rational_from_dict(doc[c], c) for c in ("c0", "c1", "c2")))


def _perturbed_keys(w: WeightMap) -> tuple[list[int], int, int]:
    """Perturbed weights w(v) + eps as ints, with their scale and base.

    With L = w.scale, the common denominator of the weights, and
    B = n^2 (max L*w + 1) + 1, w(v) + eps is the int L*w(v)*B + 1, L*w(v)
    being w.scaled[v].  Every eps-coefficient of a sum of at most n
    weights, or of at most n^2/2 products of two, stays below B, so int
    order is exactly lexicographic (c0, c1, c2) order; _sum_value and
    _product_value read such sums back.
    """
    n, scaled = len(w), w.scaled
    base = n * n * (max(scaled, default=0) + 1) + 1
    return [s * base + 1 for s in scaled], w.scale, base


def _sum_value(k: int, scale: int, base: int) -> PerturbedRational:
    c0, c1 = divmod(k, base)
    return PerturbedRational(Fraction(c0, scale), Fraction(c1))


def _product_value(k: int, scale: int, base: int) -> PerturbedRational:
    high, c2 = divmod(k, base)
    c0, c1 = divmod(high, base)
    return PerturbedRational(Fraction(c0, scale * scale), Fraction(c1, scale), Fraction(c2))


Order = tuple[int, ...]

PREFIX = "prefix"
SUFFIX = "suffix"


class FeedbackViolation(NamedTuple):
    """A strict failure of one interval inequality.

    kind "prefix": at interval [i,j], w(N+ of v_i inside) < w(N- of v_i inside).
    kind "suffix": at interval [i,j], w(N- of v_j inside) < w(N+ of v_j inside).
    Positions i, j are 1-based; lhs < rhs always holds.
    """

    kind: str
    i: int
    j: int
    lhs: PerturbedRational
    rhs: PerturbedRational

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "i": self.i,
            "j": self.j,
            "lhs": self.lhs.to_dict(),
            "rhs": self.rhs.to_dict(),
        }


class CertifiedOrder(NamedTuple):
    """An order that passed the full feedback check, with its objective."""

    order: Order
    objective: PerturbedRational

    def to_dict(self) -> dict:
        return {
            "kind": "certified_order",
            "order": list(self.order),
            "objective": self.objective.to_dict(),
            "feed_vertex": self.order[-1] if self.order else None,
        }


def _require_tournament(t: Digraph) -> None:
    if not t.is_tournament():
        raise NotATournament(
            f"digraph with {t.arc_count} arcs on {t.n} vertices is not a tournament"
        )


def _check_order(t: Digraph, order: Sequence[int]) -> None:
    if sorted(order) != list(range(t.n)):
        raise ValueError("order is not a permutation of the vertex set")


class _ScanState(NamedTuple):
    """An order and what a feedback scan reads of it, by position p: the
    vertex v_p = vertex[p], its out-mask out[p], bit bit[p] and perturbed
    key key[p], and trail[p], v_p's out-minus-in key over positions [0, p).

    _scan_state builds it from scratch in O(n^2); local search keeps one
    as its only record of the order and _move splices it in O(span).
    """

    vertex: list[int]
    out: list[int]
    bit: list[int]
    key: list[int]
    trail: list[int]


def _state_objective(state: _ScanState) -> int:
    """The objective of state's order as an int key, the sum of k_u k_v
    over its forward arcs uv, in O(n): with P the sum of k_p k_q over the
    pairs p < q, sum_q k_q trail_q = P - 2F for the objective F."""
    k, total = state.key, sum(state.key)
    return ((total * total - sum(map(mul, k, k))) // 2 - sum(map(mul, k, state.trail))) // 2


def _scan_state(t: Digraph, keys: list[int], order: Sequence[int]) -> _ScanState:
    masks = t.out_masks()
    vertex = list(order)
    out = [masks[v] for v in vertex]
    bit = [1 << v for v in vertex]
    k = [keys[v] for v in vertex]
    n = len(vertex)
    trail = [0] * n
    for p in range(n - 1):
        out_p, kp = out[p], k[p]
        for b in range(p + 1, n):
            trail[b] += -kp if out_p & bit[b] else kp
    return _ScanState(vertex, out, bit, k, trail)


def _move(state: _ScanState, kind: str, i: int, j: int) -> int:
    """Repair the failure of [i, j], 0-based, in state: a prefix failure
    moves v_i to just after v_j, a suffix failure moves v_j to just before v_i.

    A passed vertex's trail gains or loses the moved vertex's key as the
    moved vertex enters or leaves the positions before it.  The moved
    vertex's trail changes by its out-minus-in key over the passed
    vertices, and its arcs to them flip: the objective gains -beaten times
    that key, which is returned for the gain check.
    """
    out, bit, k, trail = state.out, state.bit, state.key, state.trail
    if kind == PREFIX:
        m, dest, lo, hi, sign = i, j, i + 1, j + 1, 1
    else:
        m, dest, lo, hi, sign = j, i, i, j, -1
    out_m, beaten = out[m], sign * k[m]  # beaten: the change for a vertex v_m beats
    out_minus_in = 0
    for p in range(lo, hi):
        if out_m & bit[p]:
            out_minus_in += k[p]
            trail[p] += beaten
        else:
            out_minus_in -= k[p]
            trail[p] -= beaten
    trail.insert(dest, trail.pop(m) + sign * out_minus_in)
    for col in (state.vertex, out, bit, k):
        col.insert(dest, col.pop(m))
    return -beaten * out_minus_in


def _scan(state: _ScanState) -> Iterator[tuple[str, int, int, int, int]]:
    """Every strict interval failure as (kind, i, j, lhs key, rhs key), with
    1-based positions, in scan order (i, j, prefix before suffix).

    Row a tests each interval [a, b], b > a: the prefix test of v_a over
    (a, b] on a running out-minus-in key, the suffix test of v_b over
    [a, b) on a copy of trail[b] that drops position a once row a has read
    it.  Each side's key is read back from the difference and the key total
    of the interval, which is summed only for a failure.
    """
    out, bit, k = state.out, state.bit, state.key
    trail = state.trail[:]
    n = len(k)
    for a in range(n - 1):
        out_a, ka = out[a], k[a]
        lead = 0
        for b in range(a + 1, n):
            diff = trail[b]
            if out_a & bit[b]:
                lead += k[b]
                trail[b] = diff + ka
            else:
                lead -= k[b]
                trail[b] = diff - ka
            if lead < 0:
                total = sum(k[a + 1 : b + 1])
                yield PREFIX, a + 1, b + 1, (total + lead) // 2, (total - lead) // 2
            if diff > 0:
                total = sum(k[a:b])
                yield SUFFIX, a + 1, b + 1, (total - diff) // 2, (total + diff) // 2


def _violation(found: tuple[str, int, int, int, int], scale: int, base: int) -> FeedbackViolation:
    kind, i, j, lhs, rhs = found
    return FeedbackViolation(kind, i, j, _sum_value(lhs, scale, base), _sum_value(rhs, scale, base))


def feedback_check(
    t: Digraph, w: WeightMap, order: Sequence[int], *, _state=None
) -> Optional[FeedbackViolation]:
    """The first strict interval failure in scan order (by i, then j, with
    the prefix failure of [i,j] before its suffix failure), decoded into
    PerturbedRational values, or None when the order has the feedback
    property.

    _state is local search's _ScanState of order: the check then scans it
    as it stands and returns the first failure undecoded, as _scan yields
    it, skipping the input checks.  A clean scan of it certifies nothing
    until the search compares it with a fresh state.
    """
    if _state is not None:
        return next(_scan(_state), None)
    _require_tournament(t)
    _check_order(t, order)
    keys, scale, base = _perturbed_keys(w)
    found = next(_scan(_scan_state(t, keys, order)), None)
    return found and _violation(found, scale, base)


def _verdict(
    t: Digraph, w: WeightMap, order: Sequence[int]
) -> tuple[Optional[FeedbackViolation], PerturbedRational]:
    """feedback_check of order and its objective, both read off one
    _scan_state; t must be a tournament and order a permutation of its
    vertices."""
    keys, scale, base = _perturbed_keys(w)
    state = _scan_state(t, keys, order)
    found = next(_scan(state), None)
    objective = _product_value(_state_objective(state), scale, base)
    return found and _violation(found, scale, base), objective


def order_objective(t: Digraph, w: WeightMap, order: Sequence[int]) -> PerturbedRational:
    """Sum of w~(tail) * w~(head) over arcs pointing forward in the order."""
    _require_tournament(t)
    _check_order(t, order)
    return _verdict(t, w, order)[1]


def default_move_limit(n: int) -> int:
    """Local search has no polynomial worst-case bound; 50*n^3 converts a
    pathological run into a reported error instead of a hang."""
    return max(1, 50 * n ** 3)


def local_median_order(
    t: Digraph,
    w: WeightMap,
    move_limit: Optional[int] = None,
    seed: Optional[int] = None,
    trace: Optional[list] = None,
) -> CertifiedOrder:
    """Local search for an order with the feedback property.

    Starts from ascending vertex indices (or a seeded shuffle when seed is
    given), repeatedly repairs the first violation in scan order, and
    stops when a scan finds none, which certifies the result.  Each repair
    strictly increases the perturbed objective, which is asserted per move.
    The order lives in one _ScanState kept across moves, and a clean scan
    of it must match a state built afresh from the order, which gives the
    objective (see above).
    """
    _require_tournament(t)
    if move_limit is None:
        move_limit = default_move_limit(t.n)
    if move_limit <= 0:
        raise ValueError("move_limit must be positive")
    keys, scale, base = _perturbed_keys(w)
    start = list(range(t.n))
    if seed is not None:
        # a local import: generators imports stars, which imports
        # good_edges, which imports this module
        from .generators import Rng

        Rng(seed).shuffle(start)
    state = _scan_state(t, keys, start)

    moves = 0
    while True:
        order: Order = tuple(state.vertex)
        # one feedback_check call per scan: the benchmark counts moves by them
        first = feedback_check(t, w, order, _state=state)
        if first is None:
            fresh = _scan_state(t, keys, order)
            if fresh == state:
                break
            missed = next(_scan(fresh), None)
            raise InternalTheoremViolation(
                counterexample(
                    "local-search-state",
                    "the maintained scan state differs from one built afresh",
                    WeightedDigraph(t, w),
                    order=list(order),
                    violation=missed and _violation(missed, scale, base).to_dict(),
                )
            )
        if moves >= move_limit:
            remaining = sum(1 for _ in _scan(_scan_state(t, keys, order)))
            raise MoveLimitExceeded(
                counterexample(
                    "move-limit",
                    f"no certified order after {moves} moves; {remaining} violations remain",
                    WeightedDigraph(t, w),
                    order=list(order),
                    moves=moves,
                    remaining=remaining,
                    seed=seed,
                )
            )
        if _move(state, first[0], first[1] - 1, first[2] - 1) <= 0:
            raise InternalTheoremViolation(
                counterexample(
                    "local-search-gain",
                    "repair move did not strictly increase the objective",
                    WeightedDigraph(t, w),
                    order=list(order),
                    violation=_violation(first, scale, base).to_dict(),
                )
            )
        moves += 1
        if trace is not None:
            violation = _violation(first, scale, base).to_dict()
            trace.append({"move": moves, "order": state.vertex[:], "repaired": violation})

    return CertifiedOrder(order, _product_value(_state_objective(fresh), scale, base))


EXACT_MEDIAN_MAX_N = 20


def exact_median_order(t: Digraph, w: WeightMap) -> CertifiedOrder:
    """Globally optimal order by dynamic programming over vertex subsets.

    Appending v after a placed set S gains w~(v) * K(S & N-(v)), where K(X)
    is the sum of the perturbed keys over X.  Masks are pushed in
    increasing order and a push replaces a value only when strictly
    greater, so among optimal ties the largest last vertex wins.

    A push from S to S + v is made only when an optimal order can place v
    right after S, that is when, with R the vertices after v,
      (a) 2 K(S & N-(v)) >= K(S): v in-weighs its out-weight over S, the
          suffix test of the interval ending at v, and
      (b) 2 K(R & N-(v)) <= K(R), that is 2 K(R & N+(v)) >= K(R) in a
          tournament: v out-weighs its in-weight over R, the prefix test
          of the interval starting at v.
    A set that no push reaches keeps dp -1 and pushes nothing.  Every key
    is positive, so if an optimal order failed (a), moving v to the front
    of S would raise its objective by w~(v) * (K(S & N+(v)) - K(S & N-(v)))
    > 0, and if it failed (b), moving v to the end of R would too: optimal
    orders pass both tests at every position, and dp[V] is unchanged.  The
    order the unpruned program reconstructs is optimal, so its pushes all
    survive; pruning only removes candidates, so each of its prefixes keeps
    its value and its parent, and the same order comes out.

    The optimal order must pass the feedback check (otherwise a repair
    move would improve it, contradicting optimality); a failure here is a
    counterexample, not an error.
    """
    _require_tournament(t)
    n = t.n
    if n > EXACT_MEDIAN_MAX_N:
        raise TooLarge(f"exact search limited to {EXACT_MEDIAN_MAX_N} vertices, got {n}")
    keys, scale, base = _perturbed_keys(w)
    # subset_key[S] = K(S): each vertex doubles the table, bit v of S adding keys[v]
    subset_key = [0]
    for k in keys:
        subset_key += [x + k for x in subset_key]
    vertices = [(v, 1 << v, keys[v], into) for v, into in enumerate(t.in_masks())]

    size = 1 << n
    full = size - 1
    dp = [-1] * size
    parent = [-1] * size
    dp[0] = 0
    for mask in range(size):
        base_value = dp[mask]
        if base_value < 0:
            continue
        k_set = subset_key[mask]
        rest = full ^ mask
        k_rest = subset_key[rest]
        for v, bit, kv, into in vertices:
            if mask & bit:
                continue
            k_in = subset_key[mask & into]
            # (a) over S, then (b) over R = rest minus v, both on in-masks
            if 2 * k_in < k_set or 2 * subset_key[rest & into] > k_rest - kv:
                continue
            cand = base_value + kv * k_in
            nxt = mask | bit
            if dp[nxt] < cand:
                dp[nxt] = cand
                parent[nxt] = v

    rev: list[int] = []
    mask = full
    while mask:
        v = parent[mask]
        rev.append(v)
        mask ^= 1 << v
    order = tuple(reversed(rev))

    violation = feedback_check(t, w, order)
    if violation is not None:
        raise InternalTheoremViolation(
            counterexample(
                "exact-order-feedback",
                "globally optimal order failed the feedback check",
                WeightedDigraph(t, w),
                order=list(order),
                violation=violation.to_dict(),
            )
        )
    return CertifiedOrder(order, _product_value(dp[full], scale, base))


def feed_vertex(co: CertifiedOrder) -> int:
    """The last vertex of a certified order."""
    if not co.order:
        raise ValueError("empty order has no feed vertex")
    return co.order[-1]


def verify_order(wd: WeightedDigraph, doc: dict) -> list[tuple[str, bool]]:
    """Re-derive a certified_order document from its order alone.

    A missing or ill-typed order is a ParseError; an order that is not a
    permutation of the vertices, or an instance that is not a tournament,
    fails verification.  int_list reads the order as JSON integers, exactly
    the list the rebuilt document holds, so fields_match compares the
    derived fields only.
    """
    t, w = wd.digraph, wd.weights
    order = int_list(doc.get("order"), "order")
    if sorted(order) != list(range(t.n)):
        return [("order_is_permutation", False)]
    if not t.is_tournament():
        return [("instance_is_tournament", False)]
    violation, objective = _verdict(t, w, order)
    return [
        ("order_feedback", violation is None),
        fields_match(CertifiedOrder(order, objective).to_dict(), doc, ("order",)),
    ]
