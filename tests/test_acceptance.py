"""Acceptance suite: every release gate, at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to watch
them).  Criteria 1 to 5 run through the command-line interface so that
criterion 8 can hash the exact bytes a user would see and compare them
with pinned digests; each command runs twice, with --jobs 1 and with
--jobs 2, and both outputs are kept.  Expected instance counts: 33867 labeled
tournaments on 1..6 vertices, 1099 labeled graphs on 1..5 vertices, 622
exhaustive orientation checks on up to 4 vertices (every completion of
every square-free graph, one adversarial build per violating graph).
"""
from __future__ import annotations

import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from snc import (
    exact_median_order,
    feedback_check,
    gamma_bracket,
    gamma_constant,
    local_median_order,
    sweep_gamma,
)
from snc.cli import main
from snc.generators import Rng, random_tournament, random_weights
from snc.oracle import gamma_sign

COMMANDS = {
    "theorem1": ["sweep", "theorem1", "--n", "6", "--cumulative"],
    "prop1": ["sweep", "prop1", "--samples", "1000", "--max-n", "10",
              "--max-weight", "10", "--seed", "7"],
    "theorem2": ["sweep", "theorem2", "--samples", "500", "--max-n", "14",
                 "--seed", "11"],
    "theorem3_routes": ["sweep", "theorem3", "--n", "5", "--samples", "2000",
                        "--min-n", "6", "--max-n", "9", "--seed", "13"],
    "theorem3_orientations": ["sweep", "theorem3", "--n", "4"],
}


# SHA-256 of each command's stdout.  A change that alters these bytes on
# purpose re-pins them and names the change.
PINNED_SHA256 = {
    "theorem1": "9dff0c7f78dd7f93b5db434cea8217904b5f62a6b84c561ad4f573160a01696d",
    "prop1": "6d767227786e13bb6f90b060c0a63aaaf71b5d5564fb91f12887542337b912d4",
    "theorem2": "f9d3ee9092cbec3724983340357d90b828fc9b2838219d7fb7e94fbe458078e3",
    "theorem3_routes": "b3effed223a17899228b6374517843b1ae480de1aa905e202791bf85e0ececbc",
    "theorem3_orientations": "fb9ff716e9f717e98ab7550cb15e2e4c71aeec791560145652a1817ffdd77708",
}


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def runs() -> dict:
    """Each acceptance command executed with --jobs 1 and with --jobs 2,
    with wall time of the first."""
    results = {}
    for name, argv in COMMANDS.items():
        t0 = time.perf_counter()
        code1, out1 = _run(argv)
        elapsed = time.perf_counter() - t0
        code2, out2 = _run(argv + ["--jobs", "2"])
        results[name] = {
            "codes": (code1, code2),
            "outputs": (out1, out2),
            "elapsed": elapsed,
        }
    return results


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _sweep_doc(runs, name) -> dict:
    assert runs[name]["codes"] == (0, 0)
    return json.loads(runs[name]["outputs"][0])


def test_criterion_1_feed_vertex_snp_exhaustive(runs):
    doc = _sweep_doc(runs, "theorem1")
    ok = doc["instances"] == 33867 and doc["failures"] == 0
    _report(
        "1 exhaustive feed-vertex SNP, n<=6",
        ok,
        f"{doc['instances']} tournaments, {doc['failures']} failures, "
        f"{runs['theorem1']['elapsed']:.1f}s",
    )
    assert ok


def test_criterion_2_weighted_feed_vertex_randomized(runs):
    doc = _sweep_doc(runs, "prop1")
    ok = doc["instances"] == 1000 and doc["failures"] == 0
    _report(
        "2 randomized weighted feed-vertex SNP, n<=10",
        ok,
        f"{doc['instances']} tournaments, {doc['failures']} failures, "
        f"{runs['prop1']['elapsed']:.1f}s",
    )
    assert ok


def test_criterion_3_witness_pipeline_on_star_missing_digraphs(runs):
    doc = _sweep_doc(runs, "theorem2")
    ok = doc["instances"] == 500 and doc["failures"] == 0
    _report(
        "3 certified witness pipeline, 500 star-missing digraphs n<=14",
        ok,
        f"{doc['instances']} instances, {doc['failures']} failures, "
        f"{runs['theorem2']['elapsed']:.1f}s",
    )
    assert ok


def test_criterion_4_recognition_route_agreement(runs):
    doc = _sweep_doc(runs, "theorem3_routes")
    counts = doc["data"]
    ok = (
        doc["failures"] == 0
        and counts["route_agreement_graphs"] == 1099  # includes all 1024 on 5 vertices
        and counts["random_route_agreement_graphs"] == 2000
    )
    _report(
        "4 recognition route agreement, exhaustive n=5 plus 2000 random",
        ok,
        f"{counts['route_agreement_graphs']} labeled + "
        f"{counts['random_route_agreement_graphs']} random graphs, "
        f"{doc['failures']} disagreements, {runs['theorem3_routes']['elapsed']:.1f}s",
    )
    assert ok


def test_criterion_5_orientation_characterization(runs):
    doc = _sweep_doc(runs, "theorem3_orientations")
    counts = doc["data"]
    ok = doc["failures"] == 0 and counts["orientation_instances"] == 622
    _report(
        "5 orientation characterization, all graphs n<=4, all completions",
        ok,
        f"{counts['orientation_instances']} oriented instances, "
        f"{doc['failures']} failures, {runs['theorem3_orientations']['elapsed']:.1f}s",
    )
    assert ok


def test_criterion_6_exact_order_sanity():
    t0 = time.perf_counter()
    failures = 0
    for i in range(200):
        rng = Rng(0xACCE97 ^ i)
        n = 2 + rng.below(7)  # up to 8 vertices
        t = random_tournament(n, rng.next_u64())
        w = random_weights(n, rng.next_u64(), 10)
        exact = exact_median_order(t, w)
        if feedback_check(t, w, exact.order):
            failures += 1
            continue
        local = local_median_order(t, w)
        if not local.objective <= exact.objective:
            failures += 1
    ok = failures == 0
    _report(
        "6 exact-order sanity, 200 weighted tournaments n<=8",
        ok,
        f"{failures} failures, {time.perf_counter() - t0:.1f}s",
    )
    assert ok


def test_criterion_7_gamma_constant():
    g6 = gamma_constant(6)
    lo, hi = gamma_bracket(6)
    value_ok = abs(g6 - Fraction(657298, 10 ** 6)) <= Fraction(1, 10 ** 6)
    bracket_ok = (
        hi - lo <= Fraction(1, 10 ** 6) and gamma_sign(lo) < 0 < gamma_sign(hi)
    )
    sweep = sweep_gamma(200, 12, seed=3)
    sweep_ok = sweep.instances == 200 and sweep.failures == []
    ok = value_ok and bracket_ok and sweep_ok
    _report(
        "7 gamma constant to six digits with sign-verified bracket, "
        "d++(v) >= gamma*d+(v) on 200 oriented graphs",
        ok,
        f"midpoint {float(g6):.7f}, bracket width {float(hi - lo):.2e}, "
        f"{sweep.instances} oriented graphs, {len(sweep.failures)} failures",
    )
    assert ok


def test_criterion_8_byte_identical_reruns(runs):
    mismatched = []
    digests = {}
    for name, result in runs.items():
        first = hashlib.sha256(result["outputs"][0].encode()).hexdigest()
        second = hashlib.sha256(result["outputs"][1].encode()).hexdigest()
        digests[name] = first[:12]
        if not first == second == PINNED_SHA256[name]:
            mismatched.append(name)
    ok = not mismatched
    _report(
        "8 determinism, criteria 1-5 hashed with --jobs 1 and 2 and against the pinned digests",
        ok,
        "all digests stable and pinned" if ok else f"mismatch in {mismatched}",
    )
    assert ok, f"outputs differ between reruns or from the pins: {mismatched} ({digests})"
