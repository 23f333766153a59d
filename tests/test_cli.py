"""Command-line surface: formats, commands, exit codes, determinism."""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snc
from snc import (
    DigonRejected,
    DuplicateArc,
    LoopRejected,
    ParseError,
    ReportedFailure,
    SncError,
    cli,
    good_edges,
    median_order,
    oracle,
)
from snc.cli import main
from snc.digraph import Digraph, UndirectedGraph, WeightedDigraph, WeightMap
from snc.good_edges import classify_missing_edge
from snc.generators import (
    Rng,
    gen_generalized_star,
    random_digraph_missing,
    random_graph,
    random_star_profile,
    random_tournament,
    random_weights,
)
from snc.formats import (
    MAX_VERTICES,
    MAX_WEIGHT_DIGITS,
    digraph_instance_dict,
    fields_match,
    graph_instance_dict,
    load_digraph,
    load_graph,
    parse_digraph,
    parse_graph,
    serialize_digraph,
    serialize_graph,
)

TRIANGLE_DG = "digraph 3\narc 2 0\narc 2 1\n"
CYCLE_DG = "digraph 3\narc 0 1\narc 1 2\narc 2 0\n"
TWOK2_G = "graph 4\nedge 0 1\nedge 2 3\n"
NESTED_G = "graph 4\nedge 0 1\nedge 0 2\nedge 0 3\nedge 1 3\n"
K22_DG = "digraph 4\narc 2 0\narc 3 1\narc 1 2\narc 0 3\n"


_DROP = object()


def _set(path, value):
    """A function that sets (or, for _DROP, deletes) the entry at path, a
    tuple of keys, of a document."""

    def tamper(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is _DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return doc

    return tamper


# str keys and values with non-ASCII, quotes, backslashes and control characters
_TEXT = st.text(st.sampled_from('ab "\\/\x00\x1f\n\t\x7f\xe9\u20ac\u2028\U0001f600'))
_SCALARS = st.none() | st.booleans() | st.integers(min_value=-(2**70), max_value=2**70) | _TEXT
_PAIRS = st.lists(st.tuples(st.integers(), st.integers()))
_DOCUMENTS = st.recursive(
    _SCALARS | st.lists(st.integers()) | _PAIRS | _PAIRS.map(lambda ps: [list(p) for p in ps]),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_TEXT, inner),
    max_leaves=20,
)


class _Int(int):
    """An int subclass: the writer's exact type tests refuse it."""


_KEYS = st.text(st.sampled_from('a%"\\\xe9\u20ac\U0001f600s'), max_size=4)
# what one key holds across a list of same-key dicts: one kind, as the
# row path writes, or a mix that it hands to the per-dict path
_COLUMNS = [
    _TEXT,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans() | st.none(),
    st.integers() | st.none(),
    st.lists(st.integers(), min_size=2, max_size=2),
    st.integers() | st.booleans(),
    st.integers() | _TEXT,
    st.lists(st.integers(), min_size=2, max_size=3),
    st.integers() | st.floats(allow_nan=False),
    st.integers() | st.integers().map(_Int),
]


@st.composite
def _same_key_dicts(draw):
    """A list of dicts with one key set, each inserting its keys in its own order."""
    keys = draw(st.lists(_KEYS, unique=True, max_size=5))
    columns = [draw(st.sampled_from(_COLUMNS)) for _ in keys]
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        order = draw(st.permutations(range(len(keys))))
        rows.append({keys[i]: draw(columns[i]) for i in order})
    return rows


# SHA-256 of the concatenated stdout of _local_search_runs().
LOCAL_SEARCH_SHA256 = "871497028102f5a53a8fb2f74d9444e6a3ff47f55b277b95e7a9f9c90d928c70"


def _local_search_runs() -> list[tuple[list[str], str]]:
    """15 `snc witness` runs on digraphs missing a generalized star and 15
    `snc median-order` runs on tournaments (half from a seeded shuffle),
    n = 18..40, integer weights 0..10 or rationals with zeros."""
    rng = Rng(2026)
    runs = []
    for k in range(30):
        n = 18 + rng.below(23)
        r = Rng(rng.next_u64())
        if k % 2:
            w = WeightMap([Fraction(r.below(7), 1 + r.below(6)) for _ in range(n)])
        else:
            w = random_weights(n, r.next_u64(), 10)
        if k < 15:
            g, _ = gen_generalized_star(spec=random_star_profile(n, r))
            argv, d = ["witness"], random_digraph_missing(g, r.next_u64())
        else:
            argv = ["median-order"] + (["--seed", str(r.below(1000))] if k % 3 else [])
            d = random_tournament(n, r.next_u64())
        runs.append((argv, serialize_digraph(WeightedDigraph(d, w))))
    return runs


# SHA-256 of the concatenated stdout of _exact_runs().
EXACT_SHA256 = "897f9995dd5138604f8fedf566a7a0da7a9012942c06807d265a0b1fa6c70d5a"


def _exact_runs() -> list[str]:
    """30 tournaments for `snc median-order --exact`, n = 1..14 (each
    twice, 1 and 2 three times), with integer weights 0..10, all-zero
    weights, or rationals with zeros."""
    rng = Rng(2027)
    runs = []
    for k in range(30):
        n = 1 + k % 14
        r = Rng(rng.next_u64())
        if k % 3 == 0:
            w = random_weights(n, r.next_u64(), 10)
        elif k % 3 == 1:
            w = WeightMap([0] * n)
        else:
            w = WeightMap([Fraction(r.below(4), 1 + r.below(5)) for _ in range(n)])
        runs.append(serialize_digraph(WeightedDigraph(random_tournament(n, r.next_u64()), w)))
    return runs


# SHA-256 of the concatenated stdout of _structure_runs().
STRUCTURE_SHA256 = "5038eaffc0885f3f31f3eb8c82df8734a18546fd720ec7169d15db20e531ef43"


def _structure_graph(kind: int, n: int, r: Rng) -> UndirectedGraph:
    """A star with kind + 1 core layers for kind < 3; for kind 3, a star
    with one edge of its first core layer dropped; for kind 4, a random
    graph with the four-cycle 0-1-2-3 planted in it induced."""
    if kind <= 3:
        while True:
            spec = random_star_profile(n, r)
            if kind < 3 and len(spec.x_profile) == kind + 1:
                return gen_generalized_star(spec=spec)[0]
            if kind == 3 and spec.x_profile[0] >= 2 and sum(spec.a_profile) >= 2:
                break
        g, dec = gen_generalized_star(spec=spec)
        x1, x2 = sorted(dec.x_sets[0])[:2]
        drop, add = {(x1, x2)}, set()
    else:
        g = random_graph(n, r.next_u64())
        drop, add = {(0, 2), (1, 3)}, {(0, 1), (1, 2), (2, 3), (0, 3)}
    return UndirectedGraph.from_edges(n, sorted((set(g.edges()) - drop) | add))


def _structure_runs() -> list[tuple[str, str]]:
    """24 (graph, digraph missing it) inputs for `snc recognize` and
    `snc check-good`, n = 10..34: stars with 1..3 core layers and the two
    non-star constructions of _structure_graph, half as text and half as
    JSON, with shuffled symbolic labels and unit, integer or rational
    weights."""
    rng = Rng(2028)
    runs = []
    for k in range(24):
        n = 10 + rng.below(25)
        r = Rng(rng.next_u64())
        g = _structure_graph(k % 5, n, r)
        d = random_digraph_missing(g, r.next_u64())
        if k % 4 == 0:
            w = WeightMap.uniform(n)
        elif k % 4 == 1:
            w = random_weights(n, r.next_u64(), 10)
        else:
            w = WeightMap([Fraction(r.below(7), 1 + r.below(6)) for _ in range(n)])
        labels = [f"v{v}" for v in range(n)]
        r.shuffle(labels)
        wd = WeightedDigraph(d, w)
        if k % 2:
            runs.append(
                (
                    json.dumps(graph_instance_dict(g, labels)),
                    json.dumps(digraph_instance_dict(wd, labels)),
                )
            )
        else:
            runs.append((serialize_graph(g, labels), serialize_digraph(wd, labels)))
    return runs


# SHA-256 of the concatenated exit codes, stdout and stderr of `snc verify`
# on _verify_runs().
VERIFY_SHA256 = "c31c1df55d820c8b4d02ca6397ceb75210ea35ead59559a5a545f3bf76debe3f"


def _orientation_variants(doc: dict, r: Rng) -> list:
    """doc, a witness certificate, as written and tampered in its
    orientations: one orientation's arc flipped, its condition swapped,
    both, an extra key in it, and the list rotated, truncated, with its
    last entry a copy of the first, with a boolean or three-int arc, and
    with a non-object item."""
    k = r.below(len(doc["orientations"]))

    def at_k(change):
        def tamper(d):
            change(d["orientations"][k])
            return d

        return tamper

    def rotated(d):
        d["orientations"].append(d["orientations"].pop(0))
        return d

    def copied(d):
        d["orientations"][-1] = dict(d["orientations"][0])
        return d

    flip = lambda o: o.update(arc=o["arc"][::-1])
    swap = lambda o: o.update(condition={"i": "ii", "ii": "i"}[o["condition"]])
    tampers = [
        lambda d: d,
        at_k(flip),
        at_k(swap),
        at_k(lambda o: (flip(o), swap(o))),
        at_k(lambda o: o.update(note=0)),
        rotated,
        _set(("orientations", -1), _DROP),
        copied,
        at_k(lambda o: o.update(arc=[True, o["arc"][1]])),
        at_k(lambda o: o.update(arc=o["arc"] + [0])),
        _set(("orientations", k), list(doc["orientations"][k]["arc"])),
    ]
    return [tamper(json.loads(json.dumps(doc))) for tamper in tampers]


def _verify_runs(tmp_path) -> list[str]:
    """Inputs for `snc verify`: 8 seeded witness certificates on digraphs
    missing a generalized star, n = 6..24, each with the variants of
    _orientation_variants, and 6 certified_order documents of local
    search and the exact DP on tournaments, n = 3..12, as written and with
    two order entries swapped."""
    rng = Rng(2029)
    f = tmp_path / "in.dg"
    runs = []
    for k in range(14):
        r = Rng(rng.next_u64())
        if k < 8:
            n = 6 + r.below(19)
            g, _ = gen_generalized_star(spec=random_star_profile(n, r))
            d = random_digraph_missing(g, r.next_u64())
            argv = ["witness"]
        else:
            n = 3 + r.below(10)
            d = random_tournament(n, r.next_u64())
            argv = ["median-order"] + (["--exact"] if k % 2 else [])
        if k % 2:
            w = random_weights(n, r.next_u64(), 10)
        else:
            w = WeightMap([Fraction(r.below(5), 1 + r.below(4)) for _ in range(n)])
        f.write_text(serialize_digraph(WeightedDigraph(d, w)))
        code, out, _ = run_cli(*argv, "-i", str(f))
        assert code == 0
        doc = json.loads(out)
        if k < 8:
            assert doc["kind"] == "witness_certificate"
            docs = _orientation_variants(doc, r)
        else:
            swapped = json.loads(out)
            swapped["order"][0], swapped["order"][-1] = doc["order"][-1], doc["order"][0]
            docs = [doc, swapped]
        runs += [json.dumps(x) for x in docs]
    return runs


# SHA-256 of the concatenated stdout of `snc gen` on _gen_runs().
GEN_SHA256 = "e642ba99d831b42853d3e57a66f495d82eca534369810dcacccf54cd724e75e0"


def _gen_runs(graph_file) -> list[list[str]]:
    """`snc gen` argument lists: tournaments at n = 1, 7, 33 and 512, with
    and without seeded weights, and one of each other kind, the digraph
    missing a generalized star read from graph_file; each in text and JSON
    form."""
    runs = [
        ["tournament", "--n", str(n), "--seed", str(seed)] + weights
        for n, seed in ((1, 0), (7, 3), (33, 2**64 - 1), (512, 5))
        for weights in ([], ["--weights-max", "10"])
    ]
    runs += [
        ["digraph-missing", "-i", str(graph_file), "--seed", "9", "--weights-max", "4"],
        ["weights", "--n", "12", "--seed", "2", "--weights-max", "1000"],
        ["star", "--rays-count", "4"],
        ["sun", "--core", "3", "--rays-count", "2"],
        ["complete", "--k", "5"],
        ["gstar", "--a0", "1", "--rays", "2,1", "--cores", "1,3"],
    ]
    return [argv + form for argv in runs for form in ([], ["--json"])]


BAD_ARCS = "instance arcs must be a list of integer pairs"
_CAP = 10**MAX_WEIGHT_DIGITS  # the least weight with one digit past the cap


def run_cli(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestParsing:
    def test_cycle_with_default_weights(self):
        wd, labels = parse_digraph(CYCLE_DG)
        assert wd.digraph.arcs() == [(0, 1), (1, 2), (2, 0)]
        assert list(wd.weights) == [1, 1, 1]
        assert labels == ["0", "1", "2"]

    def test_weight_lines(self):
        wd, _ = parse_digraph(CYCLE_DG + "weight 0 3 2\n")
        assert wd.weights[0] == Fraction(3, 2)
        assert wd.weights[1] == 1

    def test_loop_reported_with_line_number(self):
        with pytest.raises(LoopRejected, match="line 2"):
            parse_digraph("digraph 2\narc 0 0\n")

    def test_digon_reported_with_line_number(self):
        with pytest.raises(DigonRejected, match="line 3"):
            parse_digraph("digraph 2\narc 0 1\narc 1 0\n")

    @pytest.mark.parametrize(
        "parse, text, error, message",
        [
            (parse_digraph, "digraph 3\narc 0 0\nweight 1 x 1\n", LoopRejected, "line 2: loop (0,0)"),
            (parse_digraph, "digraph 3\nweight 1 x 1\narc 0 0\n", ParseError, "line 2: weight"),
            (parse_graph, "graph 3\nedge 0 1\nedge 1 0\nfoo 1\n", DuplicateArc, "line 3: edge (1,0)"),
            (parse_graph, "graph 3\nedge 2 2\nedge 0 1\n", LoopRejected, "line 2: loop edge (2,2)"),
            (parse_digraph, "digraph 3\narc 0 1\narc 1 0\nfoo 1\n", DigonRejected, "line 3: arc (1,0)"),
            (parse_digraph, "digraph 3\nfoo 1\narc 0 1\narc 1 0\n", ParseError, "line 2: unknown directive"),
            (parse_graph, "graph 3\nedge 0 1 2\nedge 1 1\n", ParseError, "line 2: expected 'edge <u> <v>'"),
            (parse_graph, "graph 3\nedge 1 1\nedge 0 1 2\n", LoopRejected, "line 2: loop edge (1,1)"),
        ],
    )
    def test_first_bad_line_is_reported(self, parse, text, error, message):
        with pytest.raises(error) as exc:
            parse(text)
        assert type(exc.value) is error and str(exc.value).startswith(message)

    def test_weights_load_as_ints_when_whole(self):
        text = CYCLE_DG + "weight 0 4 2\nweight 1 3 1\n"
        doc = {"kind": "digraph", "n": 2, "weights": [{"num": 4, "den": 2}, {"num": 3, "den": 1}]}
        for wd in (parse_digraph(text)[0], load_digraph(json.dumps(doc))[0]):
            assert wd.weights.scale == 1 and wd.weights.scaled[:2] == (2, 3)
        wd, _ = load_digraph(json.dumps({**doc, "weights": [{"num": 4, "den": 2}, {"num": 1, "den": 3}]}))
        assert list(wd.weights) == [2, Fraction(1, 3)] and wd.weights == WeightMap([2, Fraction(1, 3)])

    def test_comments_and_blank_lines(self):
        wd, _ = parse_digraph("# a digraph\ndigraph 2\n\narc 0 1  # forward\n")
        assert wd.digraph.arcs() == [(0, 1)]

    def test_comment_and_blank_lines_between_pairs(self):
        text = "digraph 4\narc 0 1\n# one\n\n   \n\t# two\narc 1 2#glued\n  \narc 2 3\n# last"
        wd, _ = parse_digraph(text)
        assert wd.digraph.arcs() == [(0, 1), (1, 2), (2, 3)]
        with pytest.raises(LoopRejected, match="^line 12: "):
            parse_digraph(text + "\n\narc 3 3\n")
        g, _ = parse_graph("graph 3\n\n# x\nedge 0 1 # y\n\n# z\nedge 1 2\n")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_a_label_first_seen_in_a_weight_line(self):
        wd, labels = parse_digraph("digraph 3\narc a b\nweight c 5 2\narc c a\n")
        assert labels == ["a", "b", "c"]
        assert wd.digraph.arcs() == [(0, 1), (2, 0)]
        assert list(wd.weights) == [1, 1, Fraction(5, 2)]

    def test_zero_padded_indices_are_one_vertex(self):
        wd, labels = parse_digraph("digraph 8\narc 007 1\narc 2 7\nweight 0007 3 1\n")
        assert wd.digraph.arcs() == [(2, 7), (7, 1)] and wd.weights[7] == 3
        assert labels == [str(v) for v in range(8)]
        with pytest.raises(DuplicateArc, match="^line 3: "):
            parse_digraph("digraph 8\narc 007 1\narc 7 01\n")
        with pytest.raises(ParseError, match="^line 3: duplicate weight"):
            parse_digraph("digraph 8\nweight 7 1 1\nweight 007 2 1\n")

    def test_symbolic_labels(self):
        wd, labels = parse_digraph("digraph 3\narc a b\narc b c\nweight a 2 1\n")
        assert labels == ["a", "b", "c"]
        assert wd.digraph.arcs() == [(0, 1), (1, 2)]
        assert wd.weights[0] == 2

    def test_mixed_labels_rejected(self):
        with pytest.raises(ParseError, match="mixes"):
            parse_digraph("digraph 3\narc a 1\n")

    def test_bad_directive(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("graph 2\nedg 0 1\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_graph("graph 2\nedge 0 2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("digraph 3\narc \u0661 2\n", "line 2: vertex token '2' mixes"),  # Arabic-Indic one
            ("digraph 3\narc \u00b2 1\n", "line 2: vertex token '1' mixes"),  # superscript two
            ("digraph 1_0\n", "line 1: bad vertex count '1_0'"),
            ("digraph 3\nweight 1 +2 0_3\n", "line 2: weight numerator and denominator"),
            ("digraph 3\nweight 1 -2 3\n", "line 2: weight numerator and denominator"),
        ],
    )
    def test_only_ascii_digits_are_numbers(self, text, message, tmp_path):
        with pytest.raises(ParseError) as exc:
            parse_digraph(text)
        assert str(exc.value).startswith(message)
        f = tmp_path / "in.dg"
        f.write_text(text, encoding="utf-8")
        code, _, err = run_cli("witness", "-i", str(f))
        assert code == 1 and json.loads(err)["error"] == "ParseError"

    def test_a_numeric_token_resolves_by_value(self):
        wd, labels = parse_digraph("digraph 8\narc 7 0\narc 1 07\narc 07 2\narc 3 7\n")
        assert wd.digraph.arcs() == [(1, 7), (3, 7), (7, 0), (7, 2)]
        assert labels == [str(v) for v in range(8)]
        g, _ = parse_graph("graph 8\nedge 07 1\nedge 2 7\n")
        assert g.edges() == [(1, 7), (2, 7)]

    def test_a_repeated_label_keeps_its_index(self):
        wd, labels = parse_digraph("digraph 3\narc b a\narc a c\narc c b\nweight a 1 2\n")
        assert labels == ["b", "a", "c"]
        assert wd.digraph.arcs() == [(0, 1), (1, 2), (2, 0)]
        assert wd.weights[1] == Fraction(1, 2)

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (
                parse_digraph,
                "digraph 3\narc 0 1\narc 1 2\narc 2 a\n",
                "vertex token 'a' mixes numeric and symbolic labels",
            ),
            (
                parse_graph,
                "graph 3\nedge a b\nedge b c\nedge c 1\n",
                "vertex token '1' mixes numeric and symbolic labels",
            ),
            (parse_digraph, "digraph 3\narc 0 1\narc 1 2\narc 0 3\n", "vertex 3 out of range [0,3)"),
            (parse_graph, "graph 3\nedge 0 1\nedge 01 2\nedge 2 03\n", "vertex 3 out of range [0,3)"),
            (parse_graph, "graph 3\nedge a b\nedge b c\nedge a d\n", "more than 3 distinct labels"),
            (
                parse_digraph,
                "digraph 2\narc a b\nweight a 1 1\nweight c 1 1\n",
                "more than 2 distinct labels",
            ),
        ],
        ids=[
            "numeric-then-label",
            "labels-then-numeric",
            "out-of-range",
            "out-of-range-padded",
            "labels-over-n",
            "weight-label-over-n",
        ],
    )
    def test_token_errors_after_resolved_tokens(self, parse, text, message):
        """Tokens resolved before line 4 leave its token's error, and its
        line number, as they were."""
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == 4 and str(exc.value) == f"line 4: {message}"

    def test_non_ascii_digits_are_labels(self):
        _, labels = parse_digraph("digraph 2\narc \u0661 x\n")
        assert labels == ["\u0661", "x"]

    def test_graph_round_trip_is_identity(self):
        g, labels = parse_graph(NESTED_G)
        text = serialize_graph(g, labels)
        g2, _ = parse_graph(text)
        assert g == g2
        assert text == NESTED_G

    def test_digraph_round_trip_is_identity(self):
        source = CYCLE_DG + "weight 1 5 3\n"
        wd, labels = parse_digraph(source)
        text = serialize_digraph(wd, labels)
        wd2, _ = parse_digraph(text)
        assert wd.digraph == wd2.digraph and wd.weights == wd2.weights
        assert text == source

    def test_json_round_trip(self):
        from snc.formats import digraph_instance_dict

        wd, labels = parse_digraph(CYCLE_DG + "weight 2 1 4\n")
        doc = digraph_instance_dict(wd, labels)
        wd2, labels2 = load_digraph(json.dumps(doc))
        assert wd2.digraph == wd.digraph and wd2.weights == wd.weights
        assert labels2 == labels

    def test_load_graph_detects_json(self):
        g, _ = load_graph('{"kind": "graph", "n": 2, "edges": [[0, 1]]}')
        assert g.edges() == [(0, 1)]


class TestCommands:
    def test_witness_certified(self, tmp_path):
        f = tmp_path / "t.dg"
        f.write_text(TRIANGLE_DG)
        code, out, _ = run_cli("witness", "-i", str(f))
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is True
        assert doc["witness"] == 1
        assert doc["order"] == [2, 0, 1]
        assert doc["instance"]["kind"] == "digraph"

    def test_witness_fallback(self, tmp_path):
        f = tmp_path / "k22.dg"
        f.write_text("digraph 4\narc 2 0\narc 3 1\narc 1 2\narc 0 3\n")
        code, out, _ = run_cli("witness", "-i", str(f))
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is False
        assert doc["witness"] == 0

    def test_check_good(self, tmp_path):
        f = tmp_path / "t.dg"
        f.write_text(TRIANGLE_DG)
        code, out, _ = run_cli("check-good", "-i", str(f))
        doc = json.loads(out)
        assert code == 0 and doc["all_good"] is True
        assert doc["edges"][0]["edge"] == [0, 1]

    def test_median_order_local_and_exact(self, tmp_path):
        f = tmp_path / "c.dg"
        f.write_text(CYCLE_DG + "weight 0 1 1\nweight 1 2 1\nweight 2 3 1\n")
        code, out, _ = run_cli("median-order", "-i", str(f), "--exact")
        doc = json.loads(out)
        assert code == 0
        assert doc["objective"]["c0"] == {"num": 9, "den": 1}
        assert doc["feed_vertex"] == doc["order"][-1]
        code, out2, _ = run_cli("median-order", "-i", str(f))
        doc2 = json.loads(out2)
        assert code == 0 and doc2["kind"] == "certified_order"

    def test_median_order_rejects_non_tournament(self, tmp_path):
        f = tmp_path / "m.dg"
        f.write_text(TRIANGLE_DG)
        code, _, err = run_cli("median-order", "-i", str(f))
        assert code == 1
        assert json.loads(err)["error"] == "NotATournament"

    def test_recognize_star(self, tmp_path):
        f = tmp_path / "n.g"
        f.write_text(NESTED_G)
        code, out, _ = run_cli("recognize", "-i", str(f))
        doc = json.loads(out)
        assert code == 0
        assert doc["is_generalized_star"] is True
        assert doc["classification"]["primary"] == "general"
        assert doc["classification"]["sun"] is True

    def test_recognize_two_k2(self, tmp_path):
        f = tmp_path / "k.g"
        f.write_text(TWOK2_G)
        code, out, _ = run_cli("recognize", "-i", str(f))
        doc = json.loads(out)
        assert code == 0
        assert doc["is_generalized_star"] is False
        assert doc["square_violation"]["e1"] == [0, 1]
        assert doc["adversarial"]["digraph"]["arcs"] == [[0, 3], [1, 2], [2, 0], [3, 1]]

    def test_recognize_star_at_the_instance_cap(self, tmp_path):
        # 508 rays in four classes over a four-layer core of single vertices
        g, _dec = gen_generalized_star(a_profile=(127,) * 4, x_profile=(1,) * 4)
        assert g.n == MAX_VERTICES == 512
        f = tmp_path / "big.g"
        f.write_text(serialize_graph(g))
        code, out, _ = run_cli("recognize", "-i", str(f))
        doc = json.loads(out)
        assert code == 0 and doc["is_generalized_star"] is True
        assert (doc["classification"]["layers"], doc["classification"]["ray_classes"]) == (4, 4)

    def test_recognize_two_k2_designates_an_edge_that_is_not_good(self, tmp_path):
        f = tmp_path / "k.g"
        f.write_text(TWOK2_G)
        code, out, _ = run_cli("recognize", "-i", str(f))
        adversarial = json.loads(out)["adversarial"]
        assert code == 0
        assert adversarial["designated_edge"] == [0, 1]
        d = Digraph.from_arcs(adversarial["digraph"]["n"], adversarial["digraph"]["arcs"])
        assert classify_missing_edge(d, 0, 1).good is False

    def test_adversary_is_not_a_command(self, tmp_path):
        # recognize writes the non-star answer; there is no second producer
        f = tmp_path / "k.g"
        f.write_text(TWOK2_G)
        code, out, err = run_cli("adversary", "-i", str(f))
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "UsageError"
        assert "invalid choice: 'adversary'" in doc["message"]

    def test_sweep_theorem1(self):
        code, out, err = run_cli("sweep", "theorem1", "--n", "5")
        doc = json.loads(out)
        assert code == 0
        assert doc["instances"] == 1024 and doc["failures"] == 0
        assert "sweep theorem1" in err

    def test_sweep_gamma_notes(self):
        code, out, _ = run_cli("sweep", "gamma", "--samples", "20", "--max-n", "8", "--seed", "3")
        doc = json.loads(out)
        assert code == 0
        assert (doc["instances"], doc["failures"], doc["notes"]) == (20, 0, [])

    def test_gen_round_trips(self, tmp_path):
        code, out, _ = run_cli("gen", "tournament", "--n", "6", "--seed", "42")
        assert code == 0
        wd, _ = parse_digraph(out)
        assert wd.digraph.is_tournament()

        code, out, _ = run_cli("gen", "gstar", "--rays", "1,1", "--cores", "1,1")
        assert code == 0
        g, _ = parse_graph(out)
        assert g.n == 4

        f = tmp_path / "g.g"
        f.write_text(out)
        code, out2, _ = run_cli("gen", "digraph-missing", "-i", str(f), "--seed", "7")
        assert code == 0
        wd2, _ = parse_digraph(out2)
        from snc import missing_graph

        assert missing_graph(wd2.digraph) == g

    def test_gen_json_carries_decomposition(self):
        code, out, _ = run_cli("gen", "sun", "--core", "2", "--rays-count", "2", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["classification"]["primary"] == "sun"
        assert doc["decomposition"]["x_sets"] == [[2, 3]]

    @pytest.mark.parametrize(
        "argv, primary, decomposition",
        [
            (["star", "--rays-count", "3"], "star", {"a_sets": [[], [0, 1, 2]], "x_sets": [[3]]}),
            (["complete", "--k", "4"], "complete", {"a_sets": [[]], "x_sets": [[0, 1, 2, 3]]}),
            # no --rays: an empty size list, so a plain clique
            (["gstar", "--cores", "2"], "complete", {"a_sets": [[]], "x_sets": [[0, 1]]}),
        ],
        ids=["star", "complete", "gstar-without-rays"],
    )
    def test_gen_star_and_complete(self, argv, primary, decomposition):
        code, out, _ = run_cli("gen", *argv, "--json")
        doc = json.loads(out)
        assert code == 0
        assert (doc["classification"]["primary"], doc["decomposition"]) == (primary, decomposition)
        code, text, _ = run_cli("gen", *argv)
        assert code == 0 and serialize_graph(load_graph(json.dumps(doc))[0]) == text

    def test_gen_gstar_rejects_a_bad_size_list(self):
        code, out, err = run_cli("gen", "gstar", "--rays", "1,x")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "BadProfile",
            "message": "bad size list '1,x'; expected comma-separated integers",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["tournament", "--n", "600"],
            ["star", "--rays-count", "512"],
            ["sun", "--core", "300", "--rays-count", "300"],
            ["complete", "--k", "600"],
            ["gstar", "--a0", "1", "--rays", "200,100", "--cores", "100,112"],
            ["weights", "--n", "100000"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_gen_rejects_more_vertices_than_the_cap(self, argv):
        code, out, err = run_cli("gen", *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "TooLarge"

    def test_gen_at_the_cap(self):
        code, out, _ = run_cli("gen", "weights", "--n", str(MAX_VERTICES))
        assert code == 0 and len(json.loads(out)["weights"]) == MAX_VERTICES

    def test_gen_weights(self):
        code, out, _ = run_cli("gen", "weights", "--n", "4", "--seed", "2", "--weights-max", "5")
        doc = json.loads(out)
        assert code == 0 and len(doc["weights"]) == 4

    @pytest.mark.parametrize("what, n", [("weights", "3"), ("tournament", "3")])
    def test_gen_weights_max_zero_gives_zeros(self, what, n):
        code, out, _ = run_cli("gen", what, "--n", n, "--weights-max", "0", "--seed", "4", "--json")
        assert code == 0 and json.loads(out)["weights"] == [{"num": 0, "den": 1}] * 3

    def test_gen_weights_rejects_a_negative_n(self):
        code, out, err = run_cli("gen", "weights", "--n", "-2")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_verify_witness_round_trip(self, tmp_path):
        f = tmp_path / "t.dg"
        f.write_text(TRIANGLE_DG)
        _, out, _ = run_cli("witness", "-i", str(f))
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        code, out2, _ = run_cli("verify", "-i", str(cert))
        doc = json.loads(out2)
        assert code == 0 and doc["verified"] is True

    def test_verify_detects_tampering(self, tmp_path):
        f = tmp_path / "t.dg"
        f.write_text(TRIANGLE_DG)
        _, out, _ = run_cli("witness", "-i", str(f))
        doc = json.loads(out)
        doc["witness"] = 0  # not the feed vertex of the embedded order
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, out2, _ = run_cli("verify", "-i", str(cert))
        report = json.loads(out2)
        assert code == 1 and report["verified"] is False
        failed = {c["name"] for c in report["checks"] if not c["ok"]}
        assert failed == {"fields_match"}

    def test_verify_fallback_witness(self, tmp_path):
        f = tmp_path / "k22.dg"
        f.write_text("digraph 4\narc 2 0\narc 3 1\narc 1 2\narc 0 3\n")
        _, out, _ = run_cli("witness", "-i", str(f))
        cert = tmp_path / "c.json"
        cert.write_text(out)
        code, out2, _ = run_cli("verify", "-i", str(cert))
        assert code == 0 and json.loads(out2)["verified"] is True

    def test_sweep_jobs_flag_keeps_output_stable(self):
        for argv in (
            ["theorem1", "--n", "4"],
            ["theorem3", "--n", "3", "--samples", "5", "--seed", "2"],
            ["gamma", "--samples", "9", "--max-n", "8", "--seed", "6"],
        ):
            _, serial, _ = run_cli("sweep", *argv)
            _, parallel, _ = run_cli("sweep", *argv, "--jobs", "2")
            assert serial == parallel

    @pytest.mark.parametrize("target", ["prop1", "theorem2", "theorem3", "gamma"])
    def test_sweep_rejects_negative_samples(self, target):
        code, out, err = run_cli("sweep", target, "--n", "3", "--samples", "-5", "--max-n", "5")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "UsageError"

    def test_sweep_rejects_zero_jobs(self):
        code, out, err = run_cli("sweep", "theorem1", "--n", "3", "--jobs", "0")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "UsageError"

    def test_sweep_failure_exits_2(self, monkeypatch):
        monkeypatch.setattr(oracle, "has_weighted_snp", lambda wd, v: SimpleNamespace(holds=False))
        code, out, _ = run_cli("sweep", "prop1", "--samples", "3", "--max-n", "5")
        doc = json.loads(out)
        assert code == 2
        assert doc["failures"] == 3
        assert [c["state"]["index"] for c in doc["counterexamples"]] == [0, 1, 2]

    def test_verify_median_order_document(self, tmp_path):
        f = tmp_path / "c.dg"
        f.write_text(CYCLE_DG)
        _, out, _ = run_cli("median-order", "-i", str(f))
        cert = tmp_path / "order.json"
        cert.write_text(out)
        code, out2, _ = run_cli("verify", "-i", str(cert))
        assert code == 0 and json.loads(out2)["verified"] is True

    def test_dot_exports(self, tmp_path):
        f = tmp_path / "t.dg"
        f.write_text(TRIANGLE_DG)
        code, out, _ = run_cli("dot", "-i", str(f))
        assert code == 0 and out.startswith("digraph G {")
        assert "style=dashed" in out  # the missing edge
        g = tmp_path / "n.g"
        g.write_text(NESTED_G)
        code, out, _ = run_cli("dot", "-i", str(g))
        assert code == 0 and out.startswith("graph G {")

    @pytest.mark.parametrize(
        "text", ["digraph 3\narc c a\narc c b\nweight a 3 2\n", NESTED_G], ids=["digraph", "graph"]
    )
    def test_dot_reads_json_as_it_reads_text(self, text, tmp_path):
        f = tmp_path / "in.txt"
        f.write_text(text)
        code, from_text, _ = run_cli("dot", "-i", str(f))
        assert code == 0
        if text.startswith("digraph"):
            f.write_text(json.dumps(digraph_instance_dict(*load_digraph(text))))
        else:
            f.write_text(json.dumps(graph_instance_dict(*load_graph(text))))
        code, from_json, _ = run_cli("dot", "-i", str(f))
        assert code == 0 and from_json == from_text

    @pytest.mark.parametrize(
        "source, lines",
        [
            (
                'digraph 2\narc a"b c\\d\n',
                ['  0 [label="a\\"b (1)"];', '  1 [label="c\\\\d (1)"];'],
            ),
            ('graph 2\nedge a"b c\\d\n', ['  0 [label="a\\"b"];', '  1 [label="c\\\\d"];']),
            (
                json.dumps({"kind": "graph", "n": 2, "edges": [[0, 1]], "labels": ['x"; evil="1', "y"]}),
                ['  0 [label="x\\"; evil=\\"1"];', '  1 [label="y"];'],
            ),
            (
                json.dumps({"kind": "digraph", "n": 2, "arcs": [[0, 1]], "labels": ["a\nb", "c\\"]}),
                ['  0 [label="a\\nb (1)"];', '  1 [label="c\\\\ (1)"];'],
            ),
        ],
        ids=["digraph-text", "graph-text", "graph-json", "digraph-json-newline"],
    )
    def test_dot_escapes_labels(self, source, lines, tmp_path):
        f = tmp_path / "in.txt"
        f.write_text(source)
        code, out, _ = run_cli("dot", "-i", str(f))
        assert code == 0
        assert out.splitlines()[1:3] == lines

    @pytest.mark.parametrize("text, head", [(TRIANGLE_DG, "digraph G {"), (NESTED_G, "graph G {")])
    def test_dot_skips_leading_comments(self, text, head, tmp_path):
        f = tmp_path / "in.txt"
        f.write_text("# a comment\n\n  # another\n" + text)
        code, out, _ = run_cli("dot", "-i", str(f))
        assert code == 0 and out.startswith(head)
        f.write_text("# only a comment\n")
        code, _out, err = run_cli("dot", "-i", str(f))
        assert code == 1 and json.loads(err)["error"] == "ParseError"


class TestContracts:
    @pytest.mark.parametrize(
        "spec",
        [
            "[1, 2]",
            '"x"',
            '{"a0": "x"}',
            '{"a0": 1.0}',
            '{"a0": true}',
            '{"a_profile": [1.5]}',
            '{"x_profile": 3}',
        ],
    )
    def test_gstar_spec_must_hold_json_integers(self, tmp_path, spec):
        f = tmp_path / "spec.json"
        f.write_text(spec)
        code, out, err = run_cli("gen", "gstar", "--spec", str(f))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    def test_parse_error_exit_code_and_stderr_json(self, tmp_path):
        f = tmp_path / "bad.dg"
        f.write_text("digraph 2\narc 0 0\n")
        code, out, err = run_cli("witness", "-i", str(f))
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "LoopRejected" and "line 2" in doc["message"]

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("witness", "", "line 1: empty input"),
            ("witness", "graph 3\nedge 0 1\n", "line 1: expected header 'digraph <n>'"),
            ("recognize", "# no header\nedge 0 1\n", "line 2: expected header 'graph <n>'"),
            ("witness", "digraph 3\narc 0 1 2\n", "line 2: expected 'arc <u> <v>'"),
            ("check-good", "digraph 3\narc 0 1\nweight 0 1\n", "line 3: expected 'weight <v> <num> <den>'"),
            ("witness", "digraph 3\nweight 0 1 0\n", "line 2: weight denominator must be positive"),
            (
                "witness",
                "digraph 3\nweight 0 1 1\nweight 0 2 1\n",
                "line 3: duplicate weight for vertex token '0'",
            ),
            ("witness", json.dumps({"kind": "graph", "n": 2, "edges": []}), "expected a digraph instance"),
            ("recognize", json.dumps({"kind": "digraph", "n": 2, "arcs": []}), "expected a graph instance"),
            ("dot", "# only a comment\n", "unknown instance kind ''"),
            ("dot", "# a comment\ndigraf 3\narc 0 1\n", "unknown instance kind 'digraf'"),
            ("dot", json.dumps({"kind": "weights", "n": 1, "weights": []}), "unknown instance kind 'weights'"),
        ],
        ids=[
            "empty",
            "wrong-header",
            "missing-header",
            "arc-arity",
            "weight-arity",
            "zero-denominator",
            "duplicate-weight",
            "graph-given-to-witness",
            "digraph-given-to-recognize",
            "dot-comment-only",
            "dot-unknown-directive",
            "dot-weights-json",
        ],
    )
    def test_loader_errors_name_their_line(self, command, text, message, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        code, out, err = run_cli(command, "-i", str(f))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ParseError", "message": message}

    def test_usage_error_exit_code(self):
        code, out, err = run_cli("witness")  # missing -i
        assert code == 1 and out == ""
        doc = json.loads(err)  # one document, the usage line inside it
        assert doc["error"] == "UsageError"
        assert "-i/--input" in doc["message"]
        assert doc["usage"].startswith("usage: snc witness")

    def test_readme_names_every_subcommand(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        named = {line.split()[1] for line in readme.read_text().splitlines() if line.startswith("snc ")}
        (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert named == set(sub.choices)

    def test_output_flag_writes_file(self, tmp_path):
        f = tmp_path / "t.dg"
        f.write_text(TRIANGLE_DG)
        target = tmp_path / "out.json"
        code, out, _ = run_cli("witness", "-i", str(f), "-o", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["witness"] == 1

    def test_outputs_key_sorted_and_newline_terminated(self, tmp_path):
        f = tmp_path / "t.dg"
        f.write_text(TRIANGLE_DG)
        _, out, _ = run_cli("witness", "-i", str(f))
        assert out.endswith("\n")
        doc = json.loads(out)
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_streamed_output_matches_dumps(self, tmp_path):
        # header only: 780 missing-edge statuses, several encoder batches
        f = tmp_path / "e.dg"
        f.write_text("digraph 40\n")
        target = tmp_path / "out.json"
        _, out, _ = run_cli("check-good", "-i", str(f))
        run_cli("check-good", "-i", str(f), "-o", str(target))
        assert out.count("\n") > 8192
        assert out == target.read_text() == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(doc=_DOCUMENTS)
    def test_writer_matches_dumps(self, doc):
        expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        for batch in (cli._BATCH, 1):  # 1 flushes after every list element
            chunks = []
            with mock.patch.object(cli, "_BATCH", batch):
                cli._write_json(doc, chunks.append)
            assert "".join(chunks) == expected

    @pytest.mark.parametrize(
        "doc",
        [
            [[0, 1], [2, -3], [4, 2**70]],
            [(0, 1), (2, -3)],
            [(0, 1), [2, 3]],
            [[True, 1]],
            [[1, False], [2, 3]],
            [[1], [2]],
            [[1, 2, 3], [4, 5, 6]],
            [[1, 2], [3]],
            [[]],
            [[1, 2], []],
            [[[1, 2], [3, 4]]],
            {"k": [[0, 1]], "m": {"x": 1, "y": [[2, 3], [4, 5]]}},
            {
                "a": {"x": 1, "y": [{"x": 2, "y": "s"}, {"y": None, "x": 3}]},
                "b": [{"y": True, "x": [4, 5]}, {"x": 6, "y": {"x": 7, "y": 8}}],
            },
            [[v, -v] for v in range(3 * cli._BATCH + 5)],
            {"a": [True, 1]},
            {"a": [1, 2**70]},
            {"a": (1, 2)},
            {"a": [1, 2, 3]},
        ],
        ids=[
            "int-pairs",
            "tuple-pairs",
            "mixed-pairs",
            "bool-pair",
            "bool-in-second-pair",
            "length-1",
            "length-3",
            "mixed-lengths",
            "empty-inner",
            "pair-then-empty",
            "nested-pairs",
            "pairs-in-dicts",
            "same-key-dicts",
            "long-pair-list",
            "bool-pair-value",
            "big-int-pair-value",
            "tuple-pair-value",
            "three-int-value",
        ],
    )
    def test_writer_fast_paths_match_dumps(self, doc):
        expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        for batch in (cli._BATCH, 1):
            chunks = []
            with mock.patch.object(cli, "_BATCH", batch):
                cli._write_json(doc, chunks.append)
            assert "".join(chunks) == expected

    # 1024 is a batch larger than the whole list: every pair goes in one write
    @pytest.mark.parametrize("batch", [1, 3, cli._BATCH, 1024])
    def test_writer_writes_at_most_a_batch_of_pairs(self, batch):
        pairs = [[v, v + 1] for v in range(3 * cli._BATCH + 5)]
        doc = {"arcs": pairs, "edges": [tuple(p) for p in pairs[:7]], "n": 5}
        chunks = []
        with mock.patch.object(cli, "_BATCH", batch):
            cli._write_json(doc, chunks.append)
        assert "".join(chunks) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        per_write = [len(re.findall(r"\[\s*\d+,\s*\d+\s*\]", chunk)) for chunk in chunks]
        assert sum(per_write) == len(pairs) + 7
        assert max(per_write) <= batch

    @settings(max_examples=200, deadline=None)
    @given(rows=_same_key_dicts())
    def test_writer_rows_match_dumps(self, rows):
        refused = any(type(x) in (float, _Int) for row in rows for x in row.values())
        expected = None if refused else json.dumps(rows, sort_keys=True, indent=2) + "\n"
        for batch in (cli._BATCH, 1, 3):
            chunks = []
            with mock.patch.object(cli, "_BATCH", batch):
                if refused:
                    with pytest.raises(TypeError):
                        cli._write_json(rows, chunks.append)
                else:
                    cli._write_json(rows, chunks.append)
                    assert "".join(chunks) == expected

    @pytest.mark.parametrize(
        "doc",
        [
            [{}, {}],
            [{"a": 1}],
            [{"a": [1, 2], "b": None}],
            [{"%s": 1, "%%": "%d"}, {"%%": "%", "%s": 2}],
            [{"a": 1, "b": 2}, {"a": 3, "c": 4}],
            [{"a": 1, "b": 2}, {"a": 3}],
            [{"a": 1}, {"a": True}],
            [{"a": None}, {"a": False}, {"a": 1}],
            {"x": [{"a": [1, 2]}, {"a": (1, 2)}], "y": [{"b": {"c": 1}}, {"b": {"c": 2}}]},
        ],
        ids=[
            "empty-dicts",
            "one-dict",
            "one-dict-pair",
            "percent-keys",
            "other-key",
            "fewer-keys",
            "int-then-bool",
            "null-bool-int",
            "tuple-pair-and-nested",
        ],
    )
    def test_writer_row_cases_match_dumps(self, doc):
        expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        for batch in (cli._BATCH, 1, 3):
            chunks = []
            with mock.patch.object(cli, "_BATCH", batch):
                cli._write_json(doc, chunks.append)
            assert "".join(chunks) == expected

    @pytest.mark.parametrize("batch", [1, 3, cli._BATCH])
    def test_writer_writes_at_most_a_batch_of_rows(self, batch):
        rows = [
            {"edge": [v, v + 1], "good": v % 2 == 0, "name": f"r{v}", "witness": v if v % 3 else None}
            for v in range(3 * cli._BATCH + 5)
        ]
        doc = {"edges": rows, "checks": [{"name": "a", "ok": True}] * 7, "n": 5}
        chunks = []
        with mock.patch.object(cli, "_BATCH", batch):
            cli._write_json(doc, chunks.append)
        assert "".join(chunks) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        per_write = [chunk.count('"edge"') for chunk in chunks]
        assert sum(per_write) == len(rows)
        assert max(per_write) <= batch
        assert sum(1 for k in per_write if k) == -(-len(rows) // batch)

    @pytest.mark.parametrize(
        "doc",
        [
            {"a": 1.5},
            [Fraction(1, 2)],
            {"a": {1}},
            {"a": {1: "b"}},
            {"a": [1, 2.0]},
            # records are tuples, yet the writer's exact-type tests refuse them
            {"a": median_order.CertifiedOrder((0,), median_order.PerturbedRational(0, 0, 0))},
        ],
        ids=["float", "fraction", "set", "int-key", "float-in-pair-value", "record"],
    )
    def test_writer_rejects_what_documents_never_hold(self, doc):
        with pytest.raises(TypeError):
            cli._write_json(doc, io.StringIO().write)

    @pytest.mark.parametrize(
        "doc",
        [
            [{"a": 1}, {"a": 2}, {1: "b"}],
            [{"a": 1, "b": 2}, {"a": 1, 2: "b"}],
            [{"a": 1}, {"a": 1.5}],
            {"a": [[0, 1], [2, 1.5]]},
            [{"a": 1, "b": "x"}, {"b": "y", "a": _Int(2)}, {"a": 3, "b": "z"}],
            [{"e": [0, 1]}, {"e": [2, 3.0]}],
            [{"a": None}, {"a": 1.5}],
            [{"a": "x"}, {"a": Fraction(1, 2)}],
            [{"a": 1}, {"a": 2}, {"a": 3}, {"a": 4}, {"a": 5.0}],
        ],
        ids=[
            "int-key",
            "mixed-keys",
            "float-value",
            "float-in-pair",
            "int-subclass-in-row",
            "float-in-row-pair",
            "float-after-null",
            "fraction-after-str",
            "float-in-second-chunk",
        ],
    )
    def test_writer_rejects_the_odd_one_among_same_shapes(self, doc):
        for batch in (cli._BATCH, 3):
            with mock.patch.object(cli, "_BATCH", batch), pytest.raises(TypeError):
                cli._write_json(doc, io.StringIO().write)

    def test_check_good_statuses_take_the_row_path(self, tmp_path):
        """A seeded check-good document written with _BATCH at 3 carries at
        most 3 status rows per write, in ceil(rows / 3) writes: a status that
        left the row path (a float in to_dict, say) takes one write per dict."""
        g, _ = gen_generalized_star(spec=random_star_profile(12, Rng(7)))
        f = tmp_path / "d.dg"
        f.write_text(serialize_digraph(WeightedDigraph(random_digraph_missing(g, 3), WeightMap.uniform(12))))
        chunks = []
        with mock.patch.object(cli, "_BATCH", 3), redirect_stdout(SimpleNamespace(write=chunks.append)):
            assert main(["check-good", "-i", str(f)]) == 0
        rows = len(json.loads("".join(chunks))["edges"])
        per_write = [chunk.count('"witness_against_ii"') for chunk in chunks]
        assert rows >= 10 and sum(per_write) == rows
        assert max(per_write) <= 3
        assert sum(1 for k in per_write if k) == -(-rows // 3)

    def test_writer_leaves_no_cyclic_garbage(self):
        """Reference counting frees all that a call made: cyclic garbage
        would bring collector passes, and their pauses, into every
        command's latency."""
        doc = {"arcs": [[0, 1], [1, 2]], "checks": [{"name": "a", "ok": True}], "n": 3}
        gc.collect()
        gc.disable()
        try:
            cli._write_json(doc, io.StringIO().write)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_parser_is_built_once(self, monkeypatch, tmp_path):
        f = tmp_path / "t.dg"
        f.write_text(TRIANGLE_DG)
        cert = tmp_path / "cert.json"
        cert.write_text(run_cli("witness", "-i", str(f))[1])
        calls = [("witness", "-i", str(f)), ("verify", "-i", str(cert)), ("witness",), ("--help",)]
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        reused = [run_cli(*argv) for argv in calls]
        assert built.count("snc") == 1
        per_build = len(built)  # the subcommand parsers are _Parsers too
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(run_cli(*argv))
        assert len(built) == 5 * per_build
        assert reused == fresh
        codes = [code for code, _out, _err in reused]
        assert codes == [0, 0, 1, 0]
        usage = reused[2][2]
        assert json.loads(usage)["error"] == "UsageError"
        assert reused[3][1].startswith("usage: snc")

    def test_reruns_byte_identical(self, tmp_path):
        f = tmp_path / "t.dg"
        f.write_text(TRIANGLE_DG)
        _, a, _ = run_cli("witness", "-i", str(f))
        _, b, _ = run_cli("witness", "-i", str(f))
        assert a == b
        _, a, _ = run_cli("sweep", "theorem2", "--samples", "5", "--max-n", "8", "--seed", "3")
        _, b, _ = run_cli("sweep", "theorem2", "--samples", "5", "--max-n", "8", "--seed", "3")
        assert a == b

    def test_local_search_outputs_pinned(self, tmp_path):
        """Which order local search picks, and so which witness, is part of
        the output: pin the stdout of 30 seeded runs at n = 18..40."""
        digest = hashlib.sha256()
        for argv, text in _local_search_runs():
            f = tmp_path / "in.dg"
            f.write_text(text)
            code, out, _ = run_cli(*argv, "-i", str(f))
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == LOCAL_SEARCH_SHA256

    def test_exact_outputs_pinned(self, tmp_path):
        """The order the subset DP reconstructs, among optimal ties, is part
        of the output: pin the stdout of 30 runs at n = 1..14."""
        digest = hashlib.sha256()
        for text in _exact_runs():
            f = tmp_path / "in.dg"
            f.write_text(text)
            code, out, _ = run_cli("median-order", "--exact", "-i", str(f))
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == EXACT_SHA256

    def test_structure_outputs_pinned(self, tmp_path):
        """Recognition and goodness documents, with their echoed instances,
        are byte-stable: pin the stdout of 24 runs of each at n = 10..34."""
        digest = hashlib.sha256()
        for graph_text, digraph_text in _structure_runs():
            for argv, text in (("recognize", graph_text), ("check-good", digraph_text)):
                f = tmp_path / "in.txt"
                f.write_text(text)
                code, out, _ = run_cli(argv, "-i", str(f))
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == STRUCTURE_SHA256

    def test_verify_outputs_pinned(self, tmp_path):
        """Which checks `snc verify` runs on a certificate, in which order,
        with which outcome, and which ParseError it raises on a malformed
        one, are part of the output: pin its exit code, stdout and stderr
        on seeded certificates, their tampered variants and orders."""
        digest = hashlib.sha256()
        outcomes = set()
        for text in _verify_runs(tmp_path):
            f = tmp_path / "doc.json"
            f.write_text(text)
            code, out, err = run_cli("verify", "-i", str(f))
            outcomes.add((code, bool(out), bool(err)))
            digest.update(f"{code}\n{out}{err}".encode())
        assert outcomes == {(0, True, False), (1, True, False), (1, False, True)}
        assert digest.hexdigest() == VERIFY_SHA256

    def test_gen_outputs_pinned(self, tmp_path):
        """Every seeded instance `snc gen` writes, up to n = 512, is part of
        the output: pin its stdout in text and JSON form."""
        graph_file = tmp_path / "in.g"
        code, out, _ = run_cli("gen", "gstar", "--a0", "2", "--rays", "3,2", "--cores", "2,4")
        assert code == 0
        graph_file.write_text(out)
        digest = hashlib.sha256()
        for argv in _gen_runs(graph_file):
            code, out, _ = run_cli("gen", *argv)
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == GEN_SHA256

    def test_verify_field_comparison_matches_the_whole_document(self, tmp_path):
        """fields_match leaves out the free choices that the verifiers
        checked on read; on every document of _verify_runs its verdict
        equals that of comparing the whole document as canonical JSON."""
        verdicts = []

        def compared(rebuilt, doc, free):
            check = fields_match(rebuilt, doc, free)
            given = {k: v for k, v in doc.items() if k != "instance"}
            whole = json.dumps(rebuilt, sort_keys=True) == json.dumps(given, sort_keys=True)
            verdicts.append((check[1], whole))
            return check

        f = tmp_path / "doc.json"
        with mock.patch.object(good_edges, "fields_match", compared), mock.patch.object(
            median_order, "fields_match", compared
        ):
            for text in _verify_runs(tmp_path):
                f.write_text(text)
                run_cli("verify", "-i", str(f))
        assert {ok for ok, _whole in verdicts} == {True, False}
        assert all(ok == whole for ok, whole in verdicts)

    def test_move_limit_dump_replays(self, tmp_path):
        # reversed transitive triangle: the ascending start needs two repairs
        f = tmp_path / "r.dg"
        f.write_text("digraph 3\narc 2 1\narc 2 0\narc 1 0\nweight 0 1 2\n")
        code, out, err = run_cli("median-order", "-i", str(f), "--move-limit", "1")
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "MoveLimitExceeded"
        report = doc["counterexample"]
        assert report["stage"] == "move-limit"
        state = report["state"]
        assert state["order"] == [1, 0, 2] and state["moves"] == 1 and state["remaining"] >= 1
        assert state["seed"] is None
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(state["instance"]))
        code, out, err2 = run_cli("median-order", "-i", str(replay), "--move-limit", "1")
        assert code == 1 and err2 == err  # the same failure, byte for byte
        code, out, _ = run_cli("median-order", "-i", str(replay))
        assert code == 0 and json.loads(out)["order"] == [2, 1, 0]
        assert json.loads(out)["instance"]["weights"][0] == {"num": 1, "den": 2}
        # a seeded start order: the dump holds the seed, which its replay needs
        f.write_text(serialize_digraph(WeightedDigraph(random_tournament(8, 3), WeightMap.uniform(8))))
        code, _, err = run_cli("median-order", "-i", str(f), "--seed", "5", "--move-limit", "1")
        state = json.loads(err)["counterexample"]["state"]
        assert code == 1 and state["seed"] == 5
        replay.write_text(json.dumps(state["instance"]))
        limit = ["--move-limit", str(state["moves"])]
        code, _, err2 = run_cli("median-order", "-i", str(replay), "--seed", str(state["seed"]), *limit)
        assert code == 1 and err2 == err
        code, _, err2 = run_cli("median-order", "-i", str(replay), *limit)
        assert code == 1 and json.loads(err2)["counterexample"]["state"]["order"] != state["order"]

    @pytest.mark.parametrize(
        "argv, text, patch",
        [
            # a subset DP that reads out-masks as in-masks puts backward arcs first
            (
                ["median-order", "--exact"],
                "digraph 3\narc 0 1\narc 0 2\narc 1 2\nweight 1 1 2\n",
                (snc.Digraph, "in_masks", snc.Digraph.out_masks),
            ),
            # a validator that rejects every decomposition
            (
                ["recognize"],
                "graph 4\nedge 0 1\nedge 0 2\nedge 0 3\nedge 1 3\n",
                (snc.stars, "validate_decomposition", lambda g, dec: (False, "clique")),
            ),
        ],
        ids=["exact-order-feedback", "decomposition-invalid"],
    )
    def test_failure_dump_instance_replays(self, monkeypatch, tmp_path, argv, text, patch):
        """A counterexample's instance is a file the failing command reads
        as it stands, and reading it fails again with the same report."""
        monkeypatch.setattr(*patch)
        f = tmp_path / "in.txt"
        f.write_text(text)
        code, out, err = run_cli(*argv, "-i", str(f))
        assert code == 2 and out == ""
        report = json.loads(err)["counterexample"]
        dump = tmp_path / "dump.json"
        dump.write_text(json.dumps(report["state"]["instance"]))
        code, out, err = run_cli(*argv, "-i", str(dump))
        assert code == 2 and json.loads(err)["counterexample"] == report

    def test_no_witness_found_dumps_a_loadable_instance(self, monkeypatch, tmp_path):
        # a scan that finds no vertex with the weighted SNP would refute the
        # conjecture; on the two-K2 digraph every missing edge is not good
        import snc.good_edges as ge

        monkeypatch.setattr(ge, "_snp_vertices", lambda wd: [])
        text = "digraph 4\narc 2 0\narc 3 1\narc 1 2\narc 0 3\nweight 0 1 2\n"
        f = tmp_path / "two_k2.dg"
        f.write_text(text)
        code, out, err = run_cli("witness", "-i", str(f))
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "NoWitnessFound"
        report = doc["counterexample"]
        assert report["stage"] == "snp-conjecture" and set(report["state"]) == {"instance"}
        wd = load_digraph(json.dumps(report["state"]["instance"]))[0]
        expected = parse_digraph(text)[0]
        assert (wd.digraph, wd.weights) == (expected.digraph, expected.weights)

    def test_internal_violation_maps_to_exit_2(self, monkeypatch, tmp_path):
        # force the science-alarm path; honest inputs cannot reach it
        import snc.good_edges as ge
        from snc.errors import CounterexampleReport, InternalTheoremViolation

        def boom(wd, move_limit=None):
            raise InternalTheoremViolation(
                CounterexampleReport(stage="test", description="forced", state={})
            )

        monkeypatch.setattr(ge, "find_witness", boom)
        f = tmp_path / "t.dg"
        f.write_text(TRIANGLE_DG)
        code, out, err = run_cli("witness", "-i", str(f))
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "InternalTheoremViolation"
        assert doc["counterexample"]["stage"] == "test"

    @pytest.mark.parametrize(
        "exc", [ReportedFailure, *ReportedFailure.__subclasses__()], ids=lambda c: c.__name__
    )
    def test_reported_failure_is_a_json_error_with_its_exit_code(self, exc, monkeypatch, tmp_path):
        import snc.good_edges as ge
        from snc.errors import CounterexampleReport

        report = CounterexampleReport(stage="test", description="forced", state={"order": [0]})

        def boom(wd, move_limit=None):
            raise exc(report)

        monkeypatch.setattr(ge, "find_witness", boom)
        f = tmp_path / "t.dg"
        f.write_text(TRIANGLE_DG)
        code, out, err = run_cli("witness", "-i", str(f))
        assert code == exc.exit_code and out == ""
        assert json.loads(err) == {
            "error": exc.__name__,
            "message": "test: forced",
            "counterexample": report.to_dict(),
        }

    @pytest.mark.parametrize(
        "exc", [ReportedFailure, *ReportedFailure.__subclasses__()], ids=lambda c: c.__name__
    )
    def test_reported_failure_survives_pickling(self, exc):
        """A failure raised in a sweep worker process reaches the parent
        pickled, and must arrive with its report."""
        from snc.errors import CounterexampleReport

        report = CounterexampleReport(stage="test", description="forced", state={"order": [0]})
        again = pickle.loads(pickle.dumps(exc(report)))
        assert type(again) is exc and again.report == report
        assert again.exit_code == exc.exit_code and str(again) == "test: forced"

    # every SncError that carries no report; ReportedFailure and its
    # subclasses are tested above
    @pytest.mark.parametrize(
        "exc",
        [SncError] + [c for c in SncError.__subclasses__() if not issubclass(c, ReportedFailure)],
        ids=lambda c: c.__name__,
    )
    def test_every_snc_error_is_a_json_error_with_exit_1(self, exc, monkeypatch, tmp_path):
        import snc.good_edges as ge

        # NotAllGood also names its edges, which the message leaves out
        args = ("forced", ((0, 1),)) if exc is snc.NotAllGood else ("forced",)

        def boom(wd, move_limit=None):
            raise exc(*args)

        monkeypatch.setattr(ge, "find_witness", boom)
        f = tmp_path / "t.dg"
        f.write_text(TRIANGLE_DG)
        code, out, err = run_cli("witness", "-i", str(f))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": exc.__name__, "message": "forced"}

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["prop1", "--samples", "3", "--max-n", "0"], "max_n"),
            (["gamma", "--samples", "3", "--max-n", "0"], "max_n"),
            (["theorem3", "--n", "2", "--samples", "3", "--min-n", "9", "--max-n", "6"], "random_min_n"),
            (["theorem3", "--n", "2", "--samples", "2", "--min-n", "0", "--max-n", "0"], "random_min_n"),
        ],
    )
    def test_sweep_rejects_bad_size_range(self, argv, name):
        code, out, err = run_cli("sweep", *argv)
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "ValueError" and name in doc["message"]

    @pytest.mark.parametrize(
        "argv, error, name",
        [
            (["prop1", "--samples", "1", "--max-n", "513"], "TooLarge", "512"),
            (["gamma", "--samples", "1", "--max-n", "513"], "TooLarge", "512"),
            (["theorem3", "--n", "2", "--min-n", "6", "--max-n", "513"], "TooLarge", "512"),
            (["prop1", "--samples", "0", "--max-weight", "-1"], "ValueError", "max_weight"),
            (["theorem2", "--samples", "1", "--max-n", "129"], "TooLarge", "128"),
            (["prop1", "--samples", "1", "--max-weight", str(2**64)], "ValueError", "max_weight"),
        ],
    )
    def test_sweep_rejects_arguments_before_any_instance_runs(self, argv, error, name, monkeypatch):
        monkeypatch.setattr(oracle, "_drive", mock.Mock(side_effect=AssertionError("ran")))
        code, out, err = run_cli("sweep", *argv)
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == error and name in doc["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "weights", "--n", "2", "--weights-max", str(2**64)],
            ["sweep", "prop1", "--samples", "1", "--max-n", "2", "--max-weight", str(2**64)],
        ],
        ids=["gen", "sweep"],
    )
    def test_weight_caps_past_the_stream_range_are_errors(self, argv):
        """A bound above 2^64 once left rejection sampling without an
        acceptable draw; run in a child so that a hang fails the test."""
        src = str(Path(snc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "snc.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1 and done.stdout == ""
        doc = json.loads(done.stderr)
        assert doc["error"] == "ValueError" and "2^64" in doc["message"]

    @pytest.mark.parametrize("target", ["theorem1", "prop1", "theorem2", "theorem3", "gamma"])
    @pytest.mark.parametrize("argv", [["--samples", "-1"], ["--jobs", "0"]], ids=["samples", "jobs"])
    def test_sweep_rejects_counts_below_range_as_usage_errors(self, target, argv, monkeypatch):
        """Every target, theorem1 too although it draws no samples."""
        monkeypatch.setattr(oracle, "_drive", mock.Mock(side_effect=AssertionError("ran")))
        code, out, err = run_cli("sweep", target, "--n", "2", *argv)
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "UsageError" and doc["message"].startswith(f"argument {argv[0]}: ")
        assert doc["usage"].startswith("usage: snc sweep ")

    @pytest.mark.parametrize("limit", ["0", "-3"])
    @pytest.mark.parametrize(
        "command, text",
        [
            ("witness", "digraph 4\narc 2 0\narc 3 1\narc 1 2\narc 0 3\n"),
            ("witness", TRIANGLE_DG),
            ("median-order", CYCLE_DG),
            ("median-order --exact", CYCLE_DG),
        ],
        ids=["witness-not-good", "witness-all-good", "median-order", "median-order-exact"],
    )
    def test_move_limit_below_one_is_a_usage_error(self, command, text, limit, tmp_path):
        """Whatever path the instance takes, the exact search and the
        fallback included, which never read the limit."""
        f = tmp_path / "in.dg"
        f.write_text(text)
        code, out, err = run_cli(*command.split(), "-i", str(f), "--move-limit", limit)
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "UsageError"
        assert doc["message"] == f"argument --move-limit: expected an integer >= 1, got '{limit}'"

    def test_gen_digraph_missing_without_input_is_an_error(self):
        code, out, err = run_cli("gen", "digraph-missing")
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "ValueError" and "-i" in doc["message"]

    @pytest.mark.parametrize(
        "command, instance",
        [
            ("check-good", {"kind": "digraph", "n": 3, "arcs": [[0, 1]], "weights": 5}),
            ("check-good", {"kind": "digraph", "n": 3, "arcs": [[0, 1]], "labels": 5}),
            ("witness", {"kind": "digraph", "n": 3, "arcs": [[0, 1]], "weights": 5}),
            ("witness", {"kind": "digraph", "n": 3, "arcs": [[0, 1]], "labels": 5}),
            ("recognize", {"kind": "graph", "n": 3, "edges": [[0, 1]], "labels": 5}),
            (
                "verify",
                {"kind": "certified_order", "order": [0], "instance": {"kind": "digraph", "n": 1, "weights": 5}},
            ),
            (
                "verify",
                {"kind": "certified_order", "order": [0], "instance": {"kind": "digraph", "n": 1, "labels": 5}},
            ),
        ],
    )
    def test_non_list_weights_or_labels_are_parse_errors(self, command, instance, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(instance))
        code, out, err = run_cli(command, "-i", str(f))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize(
        "command, instance",
        [
            ("check-good", {"kind": "digraph", "n": 2, "arcs": [[0, 1]], "labels": [None, {"a": 1}]}),
            ("check-good", {"kind": "digraph", "n": 2, "arcs": [[0, 1]], "labels": ["x", "x"]}),
            ("recognize", {"kind": "graph", "n": 2, "edges": [[0, 1]], "labels": [None, {"a": 1}]}),
            ("recognize", {"kind": "graph", "n": 2, "edges": [[0, 1]], "labels": ["x", "x"]}),
        ],
    )
    def test_labels_must_be_distinct_strings(self, command, instance, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(instance))
        code, out, err = run_cli(command, "-i", str(f))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"


    @pytest.mark.parametrize(
        "command, instance",
        [
            ("check-good", {"kind": "digraph", "n": 2.9, "arcs": []}),
            ("check-good", {"kind": "digraph", "n": True, "arcs": []}),
            ("check-good", {"kind": "digraph", "n": "2", "arcs": []}),
            ("check-good", {"kind": "digraph", "n": -1, "arcs": []}),
            ("check-good", {"kind": "digraph", "n": 2, "arcs": [["0", "1"]]}),
            ("check-good", {"kind": "digraph", "n": 2, "arcs": [[0.0, 1]]}),
            ("check-good", {"kind": "digraph", "n": 2, "arcs": [[False, True]]}),
            ("check-good", {"kind": "digraph", "n": 2, "arcs": [[0, 1, 1]]}),
            ("check-good", {"kind": "digraph", "n": 2, "arcs": {"0": 1}}),
            ("recognize", {"kind": "graph", "n": 2.9, "edges": []}),
            ("recognize", {"kind": "graph", "n": True, "edges": []}),
            ("recognize", {"kind": "graph", "n": 2, "edges": [["0", "1"]]}),
            ("verify", {"kind": "certified_order", "order": [0], "instance": None}),
        ],
    )
    def test_instance_ints_must_be_json_ints(self, command, instance, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(instance))
        code, out, err = run_cli(command, "-i", str(f))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize(
        "command, instance, error, message",
        [
            ("check-good", {"n": 3, "arcs": [[0, 1], [0, 3]]}, "ValueError", "vertex 3 out of range [0,3)"),
            ("check-good", {"n": 3, "arcs": [[0, 1], [-1, 2]]}, "ValueError", "vertex -1 out of range [0,3)"),
            ("check-good", {"n": 3, "arcs": [[0, 1], [2, 2]]}, "LoopRejected", "loop (2,2) rejected"),
            ("check-good", {"n": 3, "arcs": [[0, 1], [0, 1]]}, "DuplicateArc", "arc (0,1) already present"),
            (
                "check-good",
                {"n": 3, "arcs": [[0, 1], [1, 0]]},
                "DigonRejected",
                "arc (1,0) would close a digon with (0,1)",
            ),
            # the first bad arc decides; an ill-typed pair anywhere comes first
            ("check-good", {"n": 3, "arcs": [[2, 2], [0, 3]]}, "LoopRejected", "loop (2,2) rejected"),
            ("check-good", {"n": 3, "arcs": [[1, 1], [0, True]]}, "ParseError", BAD_ARCS),
            ("check-good", {"n": 3, "arcs": [[0, 1], [1, 0], [2]]}, "ParseError", BAD_ARCS),
            ("recognize", {"n": 3, "edges": [[0, 1], [1, 3]]}, "ValueError", "edge (1,3) out of range [0,3)"),
            ("recognize", {"n": 3, "edges": [[0, 1], [1, 1]]}, "LoopRejected", "loop edge (1,1) rejected"),
            ("recognize", {"n": 3, "edges": [[0, 1], [1, 0]]}, "DuplicateArc", "edge (1,0) already present"),
            (
                "recognize",
                {"n": 3, "edges": [[1, 1], [0, 1.0]]},
                "ParseError",
                "instance edges must be a list of integer pairs",
            ),
            (
                "verify",
                {
                    "kind": "certified_order",
                    "order": [0, 1],
                    "instance": {"kind": "digraph", "n": 2, "arcs": [[0, 1], [1, 0]]},
                },
                "DigonRejected",
                "arc (1,0) would close a digon with (0,1)",
            ),
            (
                "verify",
                {
                    "kind": "certified_order",
                    "order": [0, 1],
                    "instance": {"kind": "digraph", "n": 2, "arcs": [[0, 0], "01"]},
                },
                "ParseError",
                BAD_ARCS,
            ),
        ],
    )
    def test_json_instance_errors(self, command, instance, error, message, tmp_path):
        """Each error class a JSON instance's pairs can raise, with the
        first bad pair in list order deciding among well-typed ones."""
        if command != "verify":
            instance = {"kind": "graph" if command == "recognize" else "digraph", **instance}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(instance))
        code, out, err = run_cli(command, "-i", str(f))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": error, "message": message}


    @pytest.mark.parametrize("kind", ["graph", "weights", 5, None], ids=repr)
    def test_verify_reads_only_digraph_instances(self, kind, tmp_path):
        """The embedded instance must be a digraph, as for every command
        that reads one: a graph, another document or no kind at all fails."""
        f = tmp_path / "order.json"
        f.write_text("digraph 2\narc 0 1\n")
        code, out, _err = run_cli("median-order", "-i", str(f))
        f.write_text(out)
        assert code == 0 and run_cli("verify", "-i", str(f))[0] == 0
        doc = json.loads(out)
        if kind is None:
            del doc["instance"]["kind"]
        else:
            doc["instance"]["kind"] = kind
        f.write_text(json.dumps(doc))
        code, out, err = run_cli("verify", "-i", str(f))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ParseError", "message": "expected a digraph instance"}

    @pytest.mark.parametrize(
        "command, text",
        [
            ("check-good", f"digraph {MAX_VERTICES + 1}\n"),
            ("recognize", f"graph {MAX_VERTICES + 1}\n"),
            ("dot", f"# header past the cap\ndigraph {MAX_VERTICES + 1}\n"),
            ("check-good", json.dumps({"kind": "digraph", "n": MAX_VERTICES + 1})),
            ("recognize", json.dumps({"kind": "graph", "n": MAX_VERTICES + 1})),
        ],
    )
    def test_vertex_cap_fails_before_allocating(self, command, text, monkeypatch, tmp_path):
        import snc.formats as fm

        def no_allocation(n):
            raise AssertionError(f"allocated {n} vertices past the cap")

        monkeypatch.setattr(fm, "Digraph", no_allocation)
        monkeypatch.setattr(fm, "UndirectedGraph", no_allocation)
        f = tmp_path / "big.txt"
        f.write_text(text)
        code, out, err = run_cli(command, "-i", str(f))
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "TooLarge" and str(MAX_VERTICES) in doc["message"]

    @pytest.mark.parametrize(
        "command", ["witness", "check-good", "median-order", "median-order --exact", "dot"]
    )
    @pytest.mark.parametrize("form", ["text", "json"])
    @pytest.mark.parametrize(
        "weights, capped",
        [
            ([(_CAP - 1, 1), (_CAP - 1, 1), (0, 1)], False),
            ([(_CAP - 2, _CAP - 1), (1, _CAP - 1), (1, 1)], False),
            ([(_CAP, 1), (1, 1), (1, 1)], True),
            ([(1, _CAP), (1, 1), (1, 1)], True),
            # each denominator within the cap, their common one past it
            ([(1, _CAP // 10), (1, _CAP // 10 - 1), (1, 1)], True),
        ],
        ids=["ints-at-cap", "scale-at-cap", "int-past", "den-past", "lcm-past"],
    )
    def test_weight_cap(self, command, form, weights, capped, tmp_path):
        """Weights within MAX_WEIGHT_DIGITS give documents whose every number
        converts to and from str; past it, TooLarge and an empty stdout."""
        f = tmp_path / "in.txt"
        if form == "text":
            f.write_text(
                "digraph 3\narc 0 1\narc 1 2\narc 0 2\n"
                + "".join(f"weight {v} {num} {den}\n" for v, (num, den) in enumerate(weights))
            )
        else:
            f.write_text(
                json.dumps(
                    {
                        "kind": "digraph",
                        "n": 3,
                        "arcs": [[0, 1], [1, 2], [0, 2]],
                        "weights": [{"num": num, "den": den} for num, den in weights],
                    }
                )
            )
        code, out, err = run_cli(*command.split(), "-i", str(f))
        if capped:
            assert code == 1 and out == ""
            doc = json.loads(err)
            assert doc["error"] == "TooLarge" and str(MAX_WEIGHT_DIGITS) in doc["message"]
            return
        assert code == 0
        if command == "dot":
            return
        doc = json.loads(out)
        if command.startswith("median-order") or command == "witness":
            cert = tmp_path / "cert.json"
            cert.write_text(out)
            code, out, _ = run_cli("verify", "-i", str(cert))
            assert code == 0 and json.loads(out)["verified"] is True
            # past the cap, verify reads no further than the instance
            doc["instance"]["weights"][0] = {"num": _CAP, "den": 1}
            cert.write_text(json.dumps(doc))
            code, out, err = run_cli("verify", "-i", str(cert))
            assert code == 1 and out == "" and json.loads(err)["error"] == "TooLarge"

    @pytest.mark.parametrize("command", ["verify", "witness", "dot"])
    def test_deeply_nested_json_is_a_parse_error(self, command, tmp_path):
        f = tmp_path / "deep.json"
        f.write_text('{"kind": ' + "[" * 200000 + "]" * 200000 + "}")
        src = str(Path(snc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "snc.cli", command, "-i", str(f)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert "Traceback" not in done.stderr
        error = json.loads(done.stderr)
        assert error["error"] == "ParseError" and error["message"].startswith("bad JSON: ")

    def test_importing_the_cli_loads_neither_dataclasses_nor_multiprocessing(self):
        """Every command starts a fresh interpreter and pays this import.
        Modules that site loaded before it do not count."""
        probe = "import sys; old = set(sys.modules); import snc.cli; print(*set(sys.modules) - old)"
        src = str(Path(snc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        added = set(done.stdout.split())
        assert done.returncode == 0 and "snc.cli" in added
        assert not added & {"dataclasses", "multiprocessing"}

    def test_importing_the_cli_leaves_the_parser_unbuilt(self):
        probe = "import sys, snc.cli; sys.exit(snc.cli.build_parser.cache_info().currsize)"
        src = str(Path(snc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda doc: [doc],
            _set(("order",), _DROP),
            _set(("instance", "arcs", 0), [2]),
            _set(("instance", "weights", 0), {"num": 1, "den": 0}),
            _set(("orientations", 0, "arc"), [0]),
            _set(("orientations", 0, "condition"), "iii"),
            _set(("orientations", 0, "arc"), [True, 1]),
            _set(("orientations", 0), [0, 1]),
            _set(("kind",), "witness_certificates"),
        ],
        ids=[
            "top-level-list",
            "missing-order",
            "short-instance-arc",
            "zero-den",
            "one-element-orientation-arc",
            "bad-condition",
            "bool-orientation-arc",
            "non-object-orientation",
            "unknown-kind",
        ],
    )
    def test_malformed_documents_are_parse_errors(self, tamper, tmp_path):
        f = tmp_path / "t.dg"
        f.write_text(TRIANGLE_DG)
        _, out, _ = run_cli("witness", "-i", str(f))
        doc = json.loads(out)
        assert doc["orientations"] == [{"arc": [0, 1], "condition": "i"}]
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(tamper(doc)))
        code, out, err = run_cli("verify", "-i", str(cert))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize(
        "instance, argv, tamper",
        [
            (TRIANGLE_DG, ["witness"], _set(("objective", "c1", "num"), 99)),
            (TRIANGLE_DG, ["witness"], _set(("objective",), _DROP)),
            (TRIANGLE_DG, ["witness"], _set(("reoriented_arcs",), [])),
            (TRIANGLE_DG, ["witness"], _set(("first_neighborhood",), [0])),
            (TRIANGLE_DG, ["witness"], _set(("orientations", 0, "note"), 0)),
            (K22_DG, ["witness"], _set(("snp_vertices",), [0])),
            (K22_DG, ["witness"], _set(("not_good_edges",), [])),
            (K22_DG, ["witness"], _set(("lhs", "num"), 0)),
            (K22_DG, ["witness"], _set(("witness",), 4)),
            (CYCLE_DG, ["median-order"], _set(("feed_vertex",), 0)),
            (CYCLE_DG, ["median-order"], _set(("objective",), _DROP)),
            (CYCLE_DG, ["median-order"], _set(("order",), [0, 1, 1])),
            (CYCLE_DG, ["median-order", "--exact"], _set(("exact",), True)),
            (CYCLE_DG, ["median-order"], _set(("instance", "arcs"), [[0, 1], [1, 2]])),
        ],
        ids=[
            "certificate-objective",
            "certificate-no-objective",
            "certificate-reoriented-arcs",
            "certificate-first-neighborhood",
            "certificate-orientation-extra-key",
            "fallback-snp-vertices",
            "fallback-not-good-edges",
            "fallback-lhs",
            "fallback-witness-out-of-range",
            "order-feed-vertex",
            "order-no-objective",
            "order-not-a-permutation",
            "order-added-exact",
            "order-instance-not-a-tournament",
        ],
    )
    def test_tampered_documents_read_verified_false(self, instance, argv, tamper, tmp_path):
        f = tmp_path / "in.dg"
        f.write_text(instance)
        _, out, _ = run_cli(*argv, "-i", str(f))
        cert = tmp_path / "doc.json"
        cert.write_text(json.dumps(tamper(json.loads(out))))
        code, out, err = run_cli("verify", "-i", str(cert))
        assert code == 1 and err == ""
        assert json.loads(out)["verified"] is False
