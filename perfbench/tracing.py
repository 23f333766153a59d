"""Span tracing of snc's public functions, from outside the library.

Tracer.install() replaces each function listed in TRACED by a wrapper in
every snc module namespace that binds it (a function imported with
`from .x import f` is bound in several modules), and methods on their
class.  Each wrapper records a span: name, start, end, parent, and the
benchmark instance it belongs to.  Self time is a span's duration minus
the durations of its direct children, folded into per-name totals as the
span ends, so memory stays flat; the first MAX_SPANS spans themselves are
kept in memory and written out by the caller when the run ends.

Calls made while the tracer is disabled (or before install) cost nothing
beyond one attribute test; end-to-end metrics come only from runs that
never install the tracer.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

MAX_SPANS = 20000

# (module, attribute, span name).  "Class.method" is patched on the class.
# Several functions may share a span name: the generators and the sweep
# entry points are each timed as one layer.
TRACED = [
    ("snc.cli", "main", "cli.main"),
    ("snc.formats", "load_digraph", "formats.load_digraph"),
    ("snc.formats", "load_graph", "formats.load_graph"),
    ("snc.formats", "digraph_instance_dict", "formats.digraph_instance_dict"),
    ("snc.formats", "digraph_from_instance_dict", "formats.digraph_from_instance_dict"),
    ("snc.formats", "serialize_digraph", "formats.serialize_digraph"),
    ("snc.formats", "serialize_graph", "formats.serialize_graph"),
    ("snc.good_edges", "find_witness", "good_edges.find_witness"),
    ("snc.good_edges", "find_witness_good", "good_edges.find_witness_good"),
    ("snc.good_edges", "all_missing_edges_good", "good_edges.all_missing_edges_good"),
    ("snc.good_edges", "classify_missing_edge", "good_edges.classify_missing_edge"),
    ("snc.good_edges", "complete_to_tournament", "good_edges.complete_to_tournament"),
    ("snc.good_edges", "reorient_at_feed", "good_edges.reorient_at_feed"),
    ("snc.good_edges", "verify_certificate", "good_edges.verify_certificate"),
    ("snc.median_order", "feedback_check", "median_order.feedback_check"),
    ("snc.median_order", "local_median_order", "median_order.local_median_order"),
    ("snc.median_order", "order_objective", "median_order.order_objective"),
    ("snc.median_order", "exact_median_order", "median_order.exact_median_order"),
    ("snc.digraph", "Digraph.second_out_neighbors", "digraph.second_out_neighbors"),
    ("snc.stars", "check_condition_B", "stars.check_condition_B"),
    ("snc.stars", "max_stable_set", "stars.max_stable_set"),
    ("snc.stars", "decompose", "stars.decompose"),
    ("snc.stars", "validate_decomposition", "stars.validate_decomposition"),
    ("snc.stars", "adversarial_digraph", "stars.adversarial_digraph"),
    ("snc.stars", "recognize", "stars.recognize"),
    ("snc.oracle", "brute_force_snp_vertices", "oracle.brute_force_snp_vertices"),
    ("snc.oracle", "sweep_proposition1", "oracle.sweep"),
    ("snc.oracle", "sweep_theorem2", "oracle.sweep"),
    ("snc.generators", "random_tournament", "generators"),
    ("snc.generators", "random_graph", "generators"),
    ("snc.generators", "random_digraph_missing", "generators"),
    ("snc.generators", "random_weights", "generators"),
    ("snc.generators", "random_star_profile", "generators"),
    ("snc.generators", "gen_generalized_star", "generators"),
]

SPAN_NAMES = sorted({name for _mod, _attr, name in TRACED})

LMO = "median_order.local_median_order"
FEEDBACK = "median_order.feedback_check"


class _Frame:
    __slots__ = ("name", "id", "child_s", "children")

    def __init__(self, name: str, span_id: int):
        self.name = name
        self.id = span_id
        self.child_s = 0.0
        self.children: Counter | None = None


class Tracer:
    """Per-name call counts and self times, plus algorithm counters.

    Counters (calls, moves, condition split, fallbacks) depend only on
    the inputs, so two runs over the same instances give identical ones.
    """

    def __init__(self):
        self.enabled = False
        self.instance = -1
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.moves: list[tuple[int, int]] = []  # (n, moves) per local search
        self.spans: list[tuple] = []

    def counts(self) -> dict:
        """Snapshot of the deterministic counters."""
        return {
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "moves": list(self.moves),
        }

    # ---- patching ------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "snc" or k.startswith("snc.")]
        for modname, attr, name in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._replace(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _replace(self, owner, key: str, original, wrapper) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = _Frame(name, tracer._next_id)
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, parent, start, end)
            if hook is not None:
                hook(tracer, frame, args, kwargs, result)
            return result

        return traced

    def _close(self, frame: _Frame, parent: _Frame | None, start: float, end: float) -> None:
        duration = end - start
        self.calls[frame.name] += 1
        self.self_s[frame.name] += duration - frame.child_s
        if parent is not None:
            parent.child_s += duration
            if parent.children is None:
                parent.children = Counter()
            parent.children[frame.name] += 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (self.instance, frame.id, parent.id if parent else None, frame.name, start, end)
            )


# ---- counters read off results at span boundaries ----------------------


def _local_search(tracer: Tracer, frame: _Frame, args, kwargs, result) -> None:
    # one feedback scan per move plus the final scan that finds no violation
    scans = frame.children[FEEDBACK] if frame.children else 0
    tracer.moves.append((args[0].n, scans - 1))


def _completion(tracer: Tracer, frame: _Frame, args, kwargs, result) -> None:
    statuses = args[1] if len(args) > 1 else kwargs.get("statuses")
    if statuses is None:
        return
    for s in statuses:
        if s.satisfies_i and s.satisfies_ii:
            tracer.counters["cond_both"] += 1
        elif s.satisfies_i:
            tracer.counters["cond_i"] += 1
        else:
            tracer.counters["cond_ii"] += 1


def _witness(tracer: Tracer, frame: _Frame, args, kwargs, result) -> None:
    tracer.counters["witness_results"] += 1
    if type(result).__name__ == "FallbackWitness":
        tracer.counters["fallback_results"] += 1


_HOOKS = {
    LMO: _local_search,
    "good_edges.complete_to_tournament": _completion,
    "good_edges.find_witness": _witness,
}
