"""Command-line front door.

Every command prints one canonical JSON document (sorted keys, fixed
indentation) so identical inputs, flags, and seeds produce byte-identical
output.  Exit codes: 0 success, 1 usage or input errors and exhausted
move limits, 2 when a guaranteed assertion failed.  A failure with a
counterexample report writes it beside the error on stderr.  Timing and
progress go to stderr only.

Implementation: the argument parser is built once per process, on the
first call to main, and documents are written in one pass by
_write_json, with the bytes of json.dumps(doc, sort_keys=True, indent=2)
plus a newline.  Fast paths keep the writer at one Python step per
element, or none, where documents grow with the pair count: a list of
ints or of strs is one joined piece; a list of int pairs (an instance's
arcs or edges) is one piece per pair, written _BATCH pairs at a time; a
list of same-shape dicts (statuses, orientations, weights, checks) is
written by row template, _BATCH dicts at a time, when each key holds all
str, all int, bool or null, int or null, or all lists of two ints: its
keys are sorted and escaped once per list, each key's values become
JSON text in one map, and one % format string per chunk fills a row per
dict.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from itertools import chain, starmap
from operator import itemgetter
from pathlib import Path

from . import formats, generators, good_edges, median_order, oracle, stars
from .digraph import WeightedDigraph, WeightMap
from .errors import BadProfile, ParseError, ReportedFailure, SncError

# pieces per write, and pairs or same-shape dicts per write from a list of
# them; a piece is mostly a key with its value, about 20 bytes, a pair
# about 40 and a status dict about 250, and a larger batch raises the peak
# RSS of large documents (check-good on the header-only digraph 512 peaks
# 0.35 MB higher at 512 than at 128, and 0.9 MB higher at 1024)
_BATCH = 128
_escape = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}
_SEQUENCES = {list, tuple}
_INT = {int}
_STR = {str}
_LIST = {list}
_DICT = {dict}
_PAIR = {2}
_BOOL_OR_NULL = {bool, type(None)}
_INT_OR_NULL = {int, type(None)}
_NULL = {None: "null"}


def _column(values: list):
    """One key's values across same-shape dicts as the columns that fill
    its slots of a row template: one column of JSON texts or exact ints
    (which %s writes as JSON does), or two int columns for a list of int
    pairs; None when the values are not all str, all int, bool or null,
    int or null, or all lists of two ints."""
    kinds = set(map(type, values))
    if kinds == _INT:
        return [values]
    if kinds == _STR:
        return [map(_escape, values)]
    if kinds <= _BOOL_OR_NULL:
        return [map(_LITERALS.__getitem__, values)]
    if kinds <= _INT_OR_NULL:
        return [map(_NULL.get, values, values)]
    if kinds == _LIST and set(map(len, values)) == _PAIR:
        ends = list(chain.from_iterable(values))
        if set(map(type, ends)) == _INT:
            return [ends[0::2], ends[1::2]]
    return None


def _rows(chunk: list, names: list, prefixes: list, inner: str):
    """The JSON text of chunk, dicts whose keys are exactly names (in
    sorted order), as list elements on lines starting with inner, one row
    template filled per dict; None when some dict has other keys or some
    key's values fail _column.  prefixes holds each name's line start,
    with any % in it doubled."""
    if set(map(len, chunk)) != {len(names)}:
        return None
    deep = inner + "  "
    pair = f"[{deep}  %s,{deep}  %s{deep}]"
    columns, slots = [], []
    for k in names:
        try:
            column = _column(list(map(itemgetter(k), chunk)))
        except KeyError:  # another key in its place
            return None
        if column is None:
            return None
        columns += column
        slots.append("%s" if len(column) == 1 else pair)
    template = "{" + ",".join(map(str.__add__, prefixes, slots)) + inner + "}"
    return ("," + inner).join(map(template.__mod__, zip(*columns)))


def _write_json(doc, write) -> None:
    """Write doc as json.dumps(doc, sort_keys=True, indent=2) + "\\n" would.

    Only what documents hold is written: dicts with str keys, lists,
    tuples, str, int, bool and None; anything else raises TypeError.
    The pieces go to write in batches of about _BATCH pieces, between
    list elements, so a large document is never held as one string.
    It takes the fast paths that the module docstring describes.
    """
    pieces: list[str] = []
    put = pieces.append

    def flush() -> None:
        write("".join(pieces))
        pieces.clear()

    def value(v, nl: str) -> None:
        # nl is a newline plus the indentation of the line v starts on
        t = type(v)
        if t is dict:
            if not v:
                put("{}")
                return
            sep, comma = "{" + nl + "  ", "," + nl + "  "
            for k in sorted(v):
                x = v[k]
                t = type(x)
                key = sep + _escape(k) + ": "  # TypeError on a key that is not a str
                sep = comma
                if t is str:
                    put(key + _escape(x))
                elif t is int:
                    put(key + int.__repr__(x))
                elif t is bool or x is None:
                    put(key + _LITERALS[x])
                else:
                    put(key)
                    value(x, nl + "  ")
            put(nl + "}")
        elif t is list or t is tuple:
            if not v:
                put("[]")
                return
            inner = nl + "  "
            kinds = set(map(type, v))
            text = int.__repr__ if kinds == _INT else _escape if kinds == _STR else None
            if text is not None:
                put("[" + inner + ("," + inner).join(map(text, v)) + nl + "]")
                return
            if (
                kinds <= _SEQUENCES
                and set(map(len, v)) == _PAIR
                and set(map(type, chain.from_iterable(v))) == _INT
            ):
                deep = inner + "  "
                pair = f"{inner}[{deep}{{}},{deep}{{}}{inner}]".format
                sep = "["
                for i in range(0, len(v), _BATCH):
                    put(sep)
                    flush()
                    # written as joined, not copied into pieces: a large
                    # document's peak memory stays at the general path's
                    write(",".join(starmap(pair, v[i : i + _BATCH])))
                    sep = ","
                put(nl + "]")
                return
            sep, comma = "[" + inner, "," + inner
            names = sorted(v[0]) if kinds == _DICT else None
            chunks = [v]
            if names:  # same-shape dicts go by row template, _BATCH at a time
                # TypeError on a key that is not a str
                prefixes = [f"{inner}  {_escape(k)}: ".replace("%", "%%") for k in names]
                chunks = (v[i : i + _BATCH] for i in range(0, len(v), _BATCH))
            for chunk in chunks:
                rows = _rows(chunk, names, prefixes, inner) if names else None
                if rows is not None:
                    put(sep)
                    flush()
                    write(rows)
                    sep = comma
                    continue
                for x in chunk:
                    put(sep)
                    value(x, inner)
                    sep = comma
                    if len(pieces) >= _BATCH:
                        flush()
            put(nl + "]")
        elif t is str:
            put(_escape(v))
        elif t is int:
            put(int.__repr__(v))
        elif t is bool or v is None:
            put(_LITERALS[v])
        else:
            raise TypeError(f"documents hold no {t.__name__} values")

    try:
        value(doc, "\n")
    finally:
        # value's cell refers to value: empty it, so that reference counting
        # frees this call's pieces without the cyclic collector
        value = None
    put("\n")
    flush()


def _emit(args, payload) -> None:
    """Write a text payload as is and a document through _write_json, to
    the -o file or stdout."""
    path = getattr(args, "output", None)
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as f:
        if isinstance(payload, str):
            f.write(payload)
        else:
            _write_json(payload, f.write)


def _emit_error(kind: str, message: str, **extra) -> None:
    _write_json({"error": kind, "message": message, **extra}, sys.stderr.write)


def _read_input(args) -> str:
    if args.input == "-":
        return sys.stdin.read()
    return Path(args.input).read_text(encoding="utf-8")


# ---- commands ---------------------------------------------------------


def cmd_witness(args) -> int:
    wd, labels = formats.load_digraph(_read_input(args))
    result = good_edges.find_witness(wd, move_limit=args.move_limit)
    doc = result.to_dict()
    doc["instance"] = formats.digraph_instance_dict(wd, labels)
    _emit(args, doc)
    return 0


def cmd_check_good(args) -> int:
    wd, labels = formats.load_digraph(_read_input(args))
    ok, statuses = good_edges.all_missing_edges_good(wd.digraph)
    _emit(
        args,
        {
            "kind": "edge_statuses",
            "all_good": ok,
            "edges": [s.to_dict() for s in statuses],
            "instance": formats.digraph_instance_dict(wd, labels),
        },
    )
    return 0


def cmd_median_order(args) -> int:
    wd, labels = formats.load_digraph(_read_input(args))
    if args.exact:
        co = median_order.exact_median_order(wd.digraph, wd.weights)
    else:
        co = median_order.local_median_order(
            wd.digraph, wd.weights, move_limit=args.move_limit, seed=args.seed
        )
    doc = co.to_dict()
    doc["instance"] = formats.digraph_instance_dict(wd, labels)
    _emit(args, doc)
    return 0


def cmd_recognize(args) -> int:
    g, labels = formats.load_graph(_read_input(args))
    report = stars.recognize(g)
    doc = report.to_dict()
    doc["instance"] = formats.graph_instance_dict(g, labels)
    _emit(args, doc)
    return 0


def cmd_sweep(args) -> int:
    start = time.perf_counter()
    if args.target == "theorem1":
        report = oracle.sweep_theorem1(args.n, cumulative=args.cumulative, jobs=args.jobs)
    elif args.target == "prop1":
        report = oracle.sweep_proposition1(
            args.samples, args.max_n, args.seed, max_weight=args.max_weight, jobs=args.jobs
        )
    elif args.target == "theorem2":
        report = oracle.sweep_theorem2(args.samples, args.max_n, args.seed, jobs=args.jobs)
    elif args.target == "theorem3":
        report = oracle.sweep_theorem3(
            args.n,
            random_samples=args.samples,
            random_min_n=args.min_n,
            random_max_n=args.max_n,
            seed=args.seed,
            jobs=args.jobs,
        )
    else:  # gamma; argparse restricts the choices
        report = oracle.sweep_gamma(args.samples, args.max_n, args.seed, jobs=args.jobs)
    sys.stderr.write(
        f"[snc] sweep {report.sweep}: {report.instances} instances, "
        f"{len(report.failures)} failures, {time.perf_counter() - start:.1f}s\n"
    )
    _emit(args, report.to_dict())
    return 2 if report.failures else 0


def _weights(args, n: int) -> WeightMap:
    if args.weights_max is None:
        return WeightMap.uniform(n)
    seed = args.weights_seed if args.weights_seed is not None else args.seed
    return generators.random_weights(n, seed, args.weights_max)


def cmd_gen(args) -> int:
    if args.what in ("tournament", "digraph-missing"):
        if args.what == "tournament":
            formats.check_cap(args.n)
            d = generators.random_tournament(args.n, args.seed)
        else:
            if args.input is None:
                raise ValueError("gen digraph-missing needs a graph input: -i FILE or -i -")
            g, _labels = formats.load_graph(_read_input(args))
            d = generators.random_digraph_missing(g, args.seed)
        wd = WeightedDigraph(d, _weights(args, d.n))
        out = formats.digraph_instance_dict(wd) if args.json else formats.serialize_digraph(wd)
    elif args.what == "weights":
        formats.check_cap(args.n)
        max_w = 10 if args.weights_max is None else args.weights_max
        w = generators.random_weights(args.n, args.seed, max_w)
        out = {"kind": "weights", "n": args.n, "weights": w.to_dicts()}
    else:
        if args.what == "star":
            formats.check_cap(1 + args.rays_count)
            g, dec = generators.gen_star(args.rays_count)
        elif args.what == "sun":
            formats.check_cap(args.core + args.rays_count)
            g, dec = generators.gen_sun(args.core, args.rays_count)
        elif args.what == "complete":
            formats.check_cap(args.k)
            g, dec = generators.gen_complete(args.k)
        else:  # gstar
            if args.spec:
                spec = generators.GenSpec.from_dict(
                    formats.load_json(Path(args.spec).read_text(encoding="utf-8"))
                )
            else:
                spec = generators.GenSpec(
                    a0=args.a0,
                    a_profile=_int_list(args.rays),
                    x_profile=_int_list(args.cores),
                )
            formats.check_cap(spec.a0 + sum(spec.a_profile) + sum(spec.x_profile))
            g, dec = generators.gen_generalized_star(spec=spec)
        if args.json:
            out = formats.graph_instance_dict(g)
            out["decomposition"] = dec.to_dict()
            out["classification"] = stars.classify_special(dec).to_dict()
        else:
            out = formats.serialize_graph(g)
    _emit(args, out)
    return 0


def _int_list(raw: str) -> tuple[int, ...]:
    raw = (raw or "").strip()
    if not raw:
        return ()
    try:
        return tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        raise BadProfile(f"bad size list {raw!r}; expected comma-separated integers") from None


def cmd_verify(args) -> int:
    # looked up per call, so that the module attributes stay patchable
    verifiers = {
        "witness_certificate": good_edges.verify_certificate,
        "witness_fallback": good_edges.verify_fallback,
        "certified_order": median_order.verify_order,
    }
    doc = formats.load_json(_read_input(args))
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in verifiers:
        raise ParseError(f"cannot verify documents of kind {kind!r}")
    wd, _labels = formats.digraph_from_instance_dict(doc.get("instance"))
    checks = verifiers[kind](wd, doc)
    verified = all(ok for _name, ok in checks)
    _emit(
        args,
        {
            "kind": "verification",
            "verified": verified,
            "checks": [{"name": name, "ok": ok} for name, ok in checks],
        },
    )
    return 0 if verified else 1


def cmd_dot(args) -> int:
    kind, obj, labels = formats.load_instance(_read_input(args))
    if kind == "digraph":
        _emit(args, formats.digraph_to_dot(obj, labels))
    else:
        _emit(args, formats.graph_to_dot(obj, labels))
    return 0


# ---- parser -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one JSON document on stderr, as for every other error
        _emit_error("UsageError", message, usage=self.format_usage().rstrip("\n"))
        raise SystemExit(1)


def _add_io(p, needs_input=True):
    if needs_input:
        p.add_argument("-i", "--input", required=True, help="input file, or - for stdin")
    p.add_argument("-o", "--output", help="output file (default: stdout)")


def _int_from(low: int):
    """An argparse type: an integer of at least low, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # the help shows the docstring up to its implementation notes
    parser = _Parser(prog="snc", description=__doc__.partition("\n\nImplementation:")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="find a vertex with the weighted SNP, certified when possible")
    _add_io(p)
    p.add_argument("--move-limit", type=_int_from(1), default=None)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("check-good", help="classify every missing edge")
    _add_io(p)
    p.set_defaults(func=cmd_check_good)

    p = sub.add_parser("median-order", help="compute a certified order of a tournament")
    _add_io(p)
    p.add_argument("--exact", action="store_true", help="subset DP instead of local search")
    p.add_argument("--seed", type=int, default=None, help="shuffle the start order")
    p.add_argument("--move-limit", type=_int_from(1), default=None)
    p.set_defaults(func=cmd_median_order)

    p = sub.add_parser("recognize", help="recognize and decompose a generalized star")
    _add_io(p)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("sweep", help="run a verification sweep")
    p.add_argument("target", choices=["theorem1", "prop1", "theorem2", "theorem3", "gamma"])
    _add_io(p, needs_input=False)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--cumulative", action="store_true", help="theorem1: all sizes 1..n")
    p.add_argument("--samples", type=_int_from(0), default=0)
    p.add_argument("--min-n", type=int, default=6)
    p.add_argument("--max-n", type=int, default=9)
    p.add_argument("--max-weight", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_int_from(1), default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen", help="generate instances")
    p.add_argument(
        "what",
        choices=["tournament", "star", "sun", "complete", "gstar", "digraph-missing", "weights"],
    )
    p.add_argument("-i", "--input", help="graph input for digraph-missing")
    p.add_argument("-o", "--output")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--k", type=int, default=3, help="complete: vertex count")
    p.add_argument("--core", type=int, default=2, help="sun: core size")
    p.add_argument("--rays-count", type=int, default=2, help="star/sun: number of rays")
    p.add_argument("--a0", type=int, default=0, help="gstar: isolated vertices")
    p.add_argument("--rays", default="", help="gstar: ray class sizes, comma separated")
    p.add_argument("--cores", default="", help="gstar: core layer sizes, comma separated")
    p.add_argument("--spec", help="gstar: JSON spec file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights-max", type=int, default=None)
    p.add_argument("--weights-seed", type=int, default=None)
    p.add_argument("--json", action="store_true", help="emit a JSON instance instead of text")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="re-verify an emitted certificate")
    _add_io(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dot", help="DOT export for human inspection (lossy)")
    _add_io(p)
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except ReportedFailure as exc:
        _emit_error(type(exc).__name__, str(exc), counterexample=exc.report.to_dict())
        return exc.exit_code
    except (SncError, ValueError, OSError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
