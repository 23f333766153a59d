"""Seeded, platform-independent instance generators.

All randomness flows through SplitMix64, a fixed 64-bit generator chosen
so that identical (spec, seed) inputs produce byte-identical instances on
every platform and Python version.  Seed 0 is reserved for documentation
examples.  Concurrent batch generation derives per-instance seeds as
seed XOR index, keeping results independent of worker scheduling.

Rng.code(k) computes up to _CHUNK draws at once, each in a 128-bit lane
of one int: lane i starts as the state of draw i, s0 + (i+1)*gamma mod
2^64, s0 the state before the first.  Every step of the mix then acts on
the whole int.  A right shift lets the low bits of lane i+1 into the top
half of lane i, so a lane mask clears that half after each shift and
before each multiply.  A product of a lane value below 2^64 and a 64-bit
constant is below 2^128, so it never carries into the next lane.  Only
bit 0 of each draw is read back: bit 0 xor bit 31 of its lane after the
second multiply, which no other lane reaches, so the last steps need no
mask.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .digraph import Digraph, UndirectedGraph, WeightMap, graph_from_pairs, orient_pairs, pair_list
from .errors import BadProfile, ParseError
from .formats import int_list
from .stars import GeneralizedStarDecomposition, validate_decomposition

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_LANE = 128
# lanes per pass of Rng.code: a pass holds ints of 16 bytes a lane, so a
# long code needs little more memory than its own bits
_CHUNK = 4096
# the digit of bit 0 of a byte, for reading a lane's draw back
_BIT0_DIGIT = bytes(b"01"[b & 1] for b in range(256))


def _lane_counts(k: int) -> tuple[int, int]:
    """Two ints of k lanes each: lane i holds 1 in the first and i + 1 in
    the second, built by doubling the lane count."""
    ones = counts = 1
    m = 1
    while m < k:
        counts |= (counts + m * ones) << (_LANE * m)
        ones |= ones << (_LANE * m)
        m *= 2
    keep = (1 << (_LANE * k)) - 1
    return ones & keep, counts & keep


class Rng:
    """SplitMix64 stream: next_u64, unbiased bounded draws, bit codes, shuffles."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def code(self, k: int) -> int:
        """Bit 0 of each of the next k draws as one int, the first drawn as
        bit 0, computed _CHUNK lanes at a time (see the module doc)."""
        parts = [self._bit_digits(min(_CHUNK, k - i)) for i in range(0, k, _CHUNK)]
        # each part lists its last draw first, so the parts go last first too
        return int(b"".join(reversed(parts)) or b"0", 2)

    def _bit_digits(self, m: int) -> bytes:
        """Bit 0 of each of the next m draws as binary digits, the last
        drawn first."""
        ones, counts = _lane_counts(m)
        low = ones * _MASK
        z = (self.state * ones + _GAMMA * counts) & low
        self.state = (self.state + m * _GAMMA) & _MASK
        z ^= (z >> 30) & low
        z = (z * _MIX1) & low
        z ^= (z >> 27) & low
        z *= _MIX2
        z ^= z >> 31
        # the last byte of each big-endian lane holds its bit 0
        return z.to_bytes(16 * m, "big")[15::16].translate(_BIT0_DIGIT)

    def below(self, n: int) -> int:
        """Uniform draw in [0, n) by rejection sampling; n is at most 2^64,
        the count of values a draw takes."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        if n > _MASK + 1:
            raise ValueError(f"below() needs a bound of at most 2^64, got {n}")
        limit = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


class GenSpec(NamedTuple):
    """Size parameters for one generalized-star instance.

    a_profile lists |A1|..|Ak| (each >= 1), x_profile lists |X1|..|Xn|
    (each >= 1, k <= n), a0 counts isolated vertices.
    """

    a0: int = 0
    a_profile: tuple[int, ...] = ()
    x_profile: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {"a0": self.a0, "a_profile": list(self.a_profile), "x_profile": list(self.x_profile)}

    @classmethod
    def from_dict(cls, d) -> "GenSpec":
        """The spec of a JSON object whose a0 is a JSON integer and whose
        profiles are lists of them (booleans and floats excluded), or
        ParseError.  Other keys are ignored."""
        if not isinstance(d, dict):
            raise ParseError("a spec must be a JSON object")
        a0 = d.get("a0", 0)
        if type(a0) is not int:
            raise ParseError("spec a0 must be an integer")
        profiles = {k: int_list(d.get(k, []), f"spec {k}") for k in ("a_profile", "x_profile")}
        return cls(a0, **profiles)


def random_tournament(n: int, seed: int) -> Digraph:
    """Each pair (u,v), u < v in sorted order, oriented by one stream bit
    (0 keeps u -> v)."""
    if n < 1:
        raise ValueError("tournament needs at least one vertex")
    pairs = pair_list(n)
    return orient_pairs(n, pairs, Rng(seed).code(len(pairs)))


def random_graph(n: int, seed: int) -> UndirectedGraph:
    """Each pair present with probability 1/2, one stream bit per pair."""
    pairs = pair_list(n)
    return graph_from_pairs(n, pairs, Rng(seed).code(len(pairs)))


def random_digraph_missing(g: UndirectedGraph, seed: int) -> Digraph:
    """Orient every non-edge of g pseudorandomly; edges of g stay missing."""
    pairs = g.non_edges()
    return orient_pairs(g.n, pairs, Rng(seed).code(len(pairs)))


def random_weights(n: int, seed: int, max_w: int) -> WeightMap:
    """Integer weights uniform in [0, max_w]; zeros exercise the
    infinitesimal perturbation downstream."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= max_w < 2**64:
        raise ValueError(f"max_w must be in [0, 2^64), got {max_w}")
    rng = Rng(seed)
    return WeightMap([rng.below(max_w + 1) for _ in range(n)])


def _check_profiles(a0: int, a_profile, x_profile) -> None:
    if a0 < 0:
        raise BadProfile("isolated count must be nonnegative")
    if any(k < 1 for k in a_profile):
        raise BadProfile("every ray class must be nonempty")
    if any(k < 1 for k in x_profile):
        raise BadProfile("every core layer must be nonempty")
    if len(a_profile) > len(x_profile):
        raise BadProfile("more ray classes than core layers")


def gen_generalized_star(
    a0: int = 0,
    a_profile=(),
    x_profile=(),
    spec: Optional[GenSpec] = None,
) -> tuple[UndirectedGraph, GeneralizedStarDecomposition]:
    """Build a generalized star and its intended decomposition.

    Vertices are laid out A0, then A1..Ak, then X1..Xn, so failures stay
    readable.  The result always passes validate_decomposition.
    """
    if spec is not None:
        a0, a_profile, x_profile = spec.a0, spec.a_profile, spec.x_profile
    a_profile = tuple(a_profile)
    x_profile = tuple(x_profile)
    _check_profiles(a0, a_profile, x_profile)

    a_sets: list[frozenset[int]] = []
    nxt = 0
    a_sets.append(frozenset(range(nxt, nxt + a0)))
    nxt += a0
    for size in a_profile:
        a_sets.append(frozenset(range(nxt, nxt + size)))
        nxt += size
    x_sets: list[frozenset[int]] = []
    for size in x_profile:
        x_sets.append(frozenset(range(nxt, nxt + size)))
        nxt += size

    core: list[int] = sorted(v for x in x_sets for v in x)
    edges = [(u, v) for i, u in enumerate(core) for v in core[i + 1 :]]
    ladder: list[int] = []
    for i, x in enumerate(x_sets, start=1):
        ladder.extend(sorted(x))
        if i < len(a_sets):
            edges += [(a, c) for a in sorted(a_sets[i]) for c in ladder]
    g = UndirectedGraph.from_edges(nxt, edges)

    dec = GeneralizedStarDecomposition(tuple(a_sets), tuple(x_sets))
    ok, clause = validate_decomposition(g, dec)
    assert ok, f"generated decomposition failed its own validation: {clause}"
    return g, dec


def gen_star(ray_count: int) -> tuple[UndirectedGraph, GeneralizedStarDecomposition]:
    """Single-vertex core with ray_count rays (the star K(1, ray_count))."""
    if ray_count < 1:
        raise BadProfile("a star needs at least one ray")
    return gen_generalized_star(a_profile=(ray_count,), x_profile=(1,))


def gen_sun(core_size: int, ray_count: int) -> tuple[UndirectedGraph, GeneralizedStarDecomposition]:
    """Complete core with rays adjacent to all of it; ray_count 0 degrades
    to a complete graph."""
    if core_size < 1:
        raise BadProfile("a sun needs a nonempty core")
    if ray_count < 0:
        raise BadProfile("ray count must be nonnegative")
    if ray_count == 0:
        return gen_generalized_star(x_profile=(core_size,))
    return gen_generalized_star(a_profile=(ray_count,), x_profile=(core_size,))


def gen_complete(k: int) -> tuple[UndirectedGraph, GeneralizedStarDecomposition]:
    if k < 1:
        raise BadProfile("a complete graph needs at least one vertex")
    return gen_generalized_star(x_profile=(k,))


def random_star_profile(n: int, rng: Rng) -> GenSpec:
    """Deterministic random profile on exactly n vertices (n >= 2).

    Starts from singleton classes on a random layer count and scatters the
    remaining vertices over the isolated pool, ray classes, and core
    layers.
    """
    if n < 2:
        raise BadProfile("need at least two vertices for a layered profile")
    layers = 1 + rng.below(min(3, n // 2))
    a = [1] * layers
    x = [1] * layers
    a0 = 0
    for _ in range(n - 2 * layers):
        slot = rng.below(2 * layers + 1)
        if slot == 0:
            a0 += 1
        elif slot <= layers:
            a[slot - 1] += 1
        else:
            x[slot - layers - 1] += 1
    return GenSpec(a0=a0, a_profile=tuple(a), x_profile=tuple(x))
