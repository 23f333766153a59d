#!/usr/bin/env python3
"""Benchmark of the snc library: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 27 --trace 0

Runs one workload (witness, sweep, structure, exact; see workloads.py
for what each stresses and why) in this process against the library in
src/ of the checkout this file sits in.  `--workload all` runs each
workload in its own process, one after the other.

Machine speed.  On a shared machine the same run can take 40% longer
from one minute to the next.  Every REF_EVERY_S seconds, between
instances, the benchmark times reference_loop(), fixed pure-Python work
that shares no code with snc, and scales every time it reports by
REF_LOOP_S / (mean reference time of the run).  Times therefore read as
seconds on a machine where the loop takes REF_LOOP_S (an idle 2-core
2.1 GHz Xeon with Python 3.11); a change to snc moves them, a busy
neighbour does not.  The report line keeps the unscaled values and the
scale factor.

--trace 0 measures end to end, with no tracing installed:
  setup_s          median over SETUP_REPS fresh processes (this one and
                   SETUP_REPS - 1 children) of importing snc, generating
                   the seeded instances and serialising them
  instances_per_s  instances completed per second of timed wall time
  latency_p50_s    median latency per instance
  latency_tail_s   the highest percentile with at least ten samples
                   beyond it; the report line names the percentile
  peak_rss_mb      ru_maxrss of this process
failed_frac (failed over attempted instances) is printed in the report
line; the last line carries the same counts as `attempted` and `failed`.

--trace 1 runs the instances untraced for half the time, then the same
instances again with the public functions listed in tracing.TRACED
wrapped, and reports per-layer metrics.  `<span>.calls` and the other
counts are taken over the first `prefix` instances, so two traced runs
with one seed give identical counts; `<span>.self_s` is mean self time
per instance; trace.overhead_frac is traced over untraced time of the
same instances, minus 1.  The spans go to perfbench/out/.

Both modes check every output (an instance that raises, exits non-zero
or fails its check counts as failed) and record the SHA-256 of the
stdout of the first `prefix` instances.  The last stdout line is one
JSON object with keys correct, attempted, failed and metrics; the line
before it is the report: run environment, sample count, tail
percentile, digest, unscaled values and, traced, the moves histogram.

--seed takes an integer, `default` or `held-out`.  Keep the held-out
seed out of tuning, and re-check a performance claim on it.
--smoke shrinks every size so the benchmark's own test runs in seconds.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("witness", "sweep", "structure", "exact")
DEFAULT_SEED = 1
HELD_OUT_SEED = 0x5EED1106
SETUP_REPS = 3
TAIL_SAMPLES_BEYOND = 10
REF_LOOP_S = 0.012
REF_EVERY_S = 0.5
SETUP_REF_LOOPS = 5
MOVE_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
SETUP_LAYERS = ("formats", "generators", "stars")

_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "print(run.timed_setup(sys.argv[2], int(sys.argv[3]), sys.argv[4] == '1')[-1])"
)


def reference_loop() -> None:
    """Fixed work in the style of snc: Fraction sums over small-int sets,
    then a few MB of Fractions and tuples spread over a dict, so that the
    loop feels cache and memory contention the way the exact DP does."""
    acc = Fraction(0)
    seen: set[int] = set()
    for i in range(1, 600):
        acc += Fraction(i % 7, i % 11 + 1)
        seen ^= {i * i % 97, i % 13}
    values = [Fraction(i % 13, i % 7 + 1) for i in range(1, 6000)]
    table = {i * 7919 % 65521: (v, v) for i, v in enumerate(values)}
    for i in range(0, len(values), 7):
        acc += table[i * 7919 % 65521][0]


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def _seed(text: str) -> int:
    named = {"default": DEFAULT_SEED, "held-out": HELD_OUT_SEED}
    return named[text] if text in named else int(text)


def timed_setup(workload: str, seed: int, smoke: bool):
    """Import snc, build the workload and its inputs; return (workload,
    pool, scaled seconds).  The first call in a process pays the import."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[workload](smoke)
    pool = wl.setup(seed)
    elapsed = time.perf_counter() - start
    ref = statistics.mean(time_reference() for _ in range(SETUP_REF_LOOPS))
    return wl, pool, elapsed * REF_LOOP_S / ref


def _setup_probe(workload: str, seed: int, smoke: bool) -> float:
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(HERE), workload, str(seed), "1" if smoke else "0"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Pass:
    """One closed-loop pass over the pool: latencies, failures, digests,
    and reference-loop times taken between instances."""

    def __init__(self, wl, pool, prefix: int):
        self.wl, self.pool, self.prefix = wl, pool, prefix
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self.failures: list[str] = []
        self.failed: set[int] = set()
        self.digest = hashlib.sha256()  # stdout of the first `prefix` instances
        self.full_digest = hashlib.sha256()  # stdout of every instance
        self.on_prefix_done = None

    def run(self, seconds: float, count: int | None = None, tracer=None) -> None:
        """Run instances until `seconds` have passed and at least `prefix`
        are done, or exactly `count` instances when given."""
        clock = time.perf_counter
        self.refs.append(time_reference())
        start = last_ref = clock()
        k = 0
        while (k < count) if count is not None else (k < self.prefix or clock() - start < seconds):
            inst = self.pool[k % len(self.pool)]
            if tracer is not None:
                tracer.instance = k
                tracer.enabled = True
            t0 = clock()
            try:
                outputs = self.wl.run(inst)
            except Exception as exc:  # any failure of the program counts against it
                outputs, error = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            if tracer is not None:
                tracer.enabled = False
            if outputs is not None:
                try:
                    self.wl.check(inst, outputs)
                    error = None
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            self.latencies.append(t1 - t0)
            if error is not None:
                self.failed.add(k)
                self.failures.append(f"instance {k}: {error}"[:1000])
            for text in outputs or ["<failed>\n"]:
                self.full_digest.update(text.encode())
                if k < self.prefix:
                    self.digest.update(text.encode())
            k += 1
            if k == self.prefix and self.on_prefix_done is not None:
                self.on_prefix_done()
            if clock() - last_ref >= REF_EVERY_S:
                self.refs.append(time_reference())
                last_ref = clock()

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds at reference speed."""
        return REF_LOOP_S / statistics.mean(self.refs)


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_SAMPLES_BEYOND samples beyond it (the minimum when too few)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(0, n - TAIL_SAMPLES_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / n


def _bucket(moves: int) -> str:
    lo = max(b for b in MOVE_BUCKETS if b <= moves)
    i = MOVE_BUCKETS.index(lo)
    if i + 1 == len(MOVE_BUCKETS):
        return f"{lo}_up"
    hi = MOVE_BUCKETS[i + 1] - 1
    return str(lo) if hi == lo else f"{lo}_{hi}"


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(p: Pass, setup_samples: list[float]) -> tuple[dict, dict]:
    done = [t for k, t in enumerate(p.latencies) if k not in p.failed]
    ok = done or [float("nan")]
    tail, pct = _tail(ok)
    raw = {
        "instances_per_s": len(done) / sum(p.latencies),
        "latency_p50_s": statistics.median(ok),
        "latency_tail_s": tail,
    }
    metrics = {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "instances_per_s": _metric(raw["instances_per_s"] / p.scale, "1/s"),
        "latency_p50_s": _metric(raw["latency_p50_s"] * p.scale, "s"),
        "latency_tail_s": _metric(tail * p.scale, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {
        "latency_tail_percentile": pct,
        "setup_samples_s": setup_samples,
        "unscaled": raw,
        "scale": p.scale,
    }
    return metrics, report


def per_layer(counts: dict, tracer, plain: Pass, traced: Pass, setup_self: dict) -> tuple[dict, dict]:
    from tracing import SPAN_NAMES

    calls, counters, moves = counts["calls"], counts["counters"], counts["moves"]
    per_instance = traced.scale / len(traced.latencies)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = _metric(calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = _metric(tracer.self_s.get(name, 0.0) * per_instance, "s")
    metrics["median_order.moves"] = _metric(sum(m for _n, m in moves), "count")
    metrics["median_order.move_limit_frac_max"] = _metric(
        max((m / (50 * n ** 3) for n, m in moves), default=0.0), "fraction"
    )
    hist = {_bucket(b): 0 for b in MOVE_BUCKETS}
    for _n, m in moves:
        hist[_bucket(m)] += 1
    for bucket, count in hist.items():
        metrics[f"median_order.moves_hist.{bucket}"] = _metric(count, "count")
    for cond in ("cond_i", "cond_ii", "cond_both"):
        metrics[f"good_edges.{cond}"] = _metric(counters.get(cond, 0), "count")
    results = counters.get("witness_results", 0)
    metrics["good_edges.fallback_frac"] = _metric(
        counters.get("fallback_results", 0) / results if results else 0.0, "fraction"
    )
    for layer in SETUP_LAYERS:
        metrics[f"setup.{layer}.self_s"] = _metric(setup_self.get(layer, 0.0) * traced.scale, "s")
    untraced_s = sum(plain.latencies) * plain.scale
    traced_s = sum(traced.latencies) * traced.scale
    metrics["trace.overhead_frac"] = _metric(traced_s / untraced_s - 1, "fraction")
    report = {"moves_hist": hist, "counters": counters, "calls": calls}
    return metrics, report


def measure(args) -> tuple[dict, dict, int, list[str]]:
    """Run one workload; return (metrics, report, attempted, failures)."""
    wl, pool, first = timed_setup(args.workload, args.seed, args.smoke)
    prefix = wl.prefix
    if not args.trace:
        setup_samples = [first] + [
            _setup_probe(args.workload, args.seed, args.smoke) for _ in range(SETUP_REPS - 1)
        ]
        p = Pass(wl, pool, prefix)
        p.run(args.seconds)
        metrics, report = end_to_end(p, setup_samples)
        report.update({"samples": len(p.latencies), "prefix": prefix,
                       "stdout_sha256": p.digest.hexdigest()})
        return metrics, report, len(p.latencies), p.failures

    from tracing import Tracer

    plain = Pass(wl, pool, prefix)
    plain.run(args.seconds / 2)
    count = len(plain.latencies)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        wl.setup(args.seed)
        tracer.enabled = False
        setup_self: dict = {}
        for name, s in tracer.self_s.items():
            layer = name.split(".")[0]
            setup_self[layer] = setup_self.get(layer, 0.0) + s
        tracer.reset()

        traced = Pass(wl, pool, prefix)
        snapshot: dict = {}
        traced.on_prefix_done = lambda: snapshot.update(tracer.counts())
        traced.run(0, count=count, tracer=tracer)
    finally:
        tracer.uninstall()

    failures = plain.failures + traced.failures
    if traced.full_digest.hexdigest() != plain.full_digest.hexdigest():
        failures.append("traced outputs differ from untraced outputs")
    metrics, report = per_layer(snapshot, tracer, plain, traced, setup_self)
    report.update({"samples": count, "prefix": prefix,
                   "stdout_sha256": traced.digest.hexdigest()})
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(
        json.dumps({"fields": ["instance", "id", "parent", "name", "start", "end"],
                    "spans": tracer.spans})
    )
    report["spans_file"] = str(spans_file.relative_to(ROOT))
    return metrics, report, 2 * count, failures


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "snc" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no snc package under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)

    metrics, report, attempted, failures = measure(args)
    report.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_sha": _git_sha(),
        },
        "failed_frac": _metric(len(failures) / attempted, "fraction"),
        "failures": failures[:10],
    })
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
