"""Workload inputs and correctness gates.

`reproduce-full` and `reproduce-small` run the `reproduce-all` command; their
input is fixed by the command line, so the seed does not change them.
`fekete-sweep` solves batches of `fekete.find_small_polynomial` problems drawn
from the seed with the interval distribution of the Fekete random-certificate
test, stratified so that every batch holds each (field, degree) the same
number of times, and without the Q widths on which the search is known to
fail (see Q_MIN_WIDTH).

Functions that need groundbound import it lazily: the harness checks for the
source tree before anything imports it.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

REPRODUCE_KMAX = {"reproduce-full": 10**7, "reproduce-small": 2000}
WORKLOADS = ("reproduce-full", "reproduce-small", "fekete-sweep")

# -- reproduce-all -------------------------------------------------------------

# The three Gamma3 table entries the source prints but that are not the least
# solution of the stated inequality (README, "Known divergences").
EXPECTED_MISMATCHES = {
    ("family-Gamma3", "Gamma3(s=2,k=3,r=4) [u, m=1]", 46),
    ("family-Gamma3", "Gamma3(s=2,k=3,r=5) [u_squared, m=1]", 38),
    ("family-Gamma3", "Gamma3(s=2,k=5,r=3) [u_squared, m=1]", 28),
}
EXPECTED_SUMMARY = {
    "max degree over Gamma1": 24,
    "max degree over Gamma2": 39,
    "max degree over Gamma3": 53,
    "max degree over Gamma4": 120,
    "max degree over Gamma5": 120,
    "degree bound N(14)": 120,
}
EXPECTED_SURVIVORS = {"pairs-gamma5": 416, "pairs-gamma4": 265}
EXIT_MISMATCH = 1


def reproduce_argv(workload: str) -> list[str]:
    return ["reproduce-all", "--kmax", str(REPRODUCE_KMAX[workload]), "--format", "json"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def certified_pairs(report: dict) -> int:
    """Surviving non-exceptional pairs the report certifies (both kinds)."""
    return sum(r["result"] for s in report["sections"] for r in s["records"]
               if r["case"].startswith("surviving non-exceptional pairs"))


def check_reproduce(output: bytes, exit_code: int) -> list[str]:
    """Problems with one `reproduce-all --format json` run; empty when correct."""
    if exit_code != EXIT_MISMATCH:
        return [f"exit code {exit_code}, expected {EXIT_MISMATCH}"]
    try:
        report = json.loads(output)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    records = [r for s in report["sections"] for r in s["records"]]
    problems = []
    mismatches = {(r["pipeline"], r["case"], r["result"]) for r in records if r["match"] is False}
    if mismatches != EXPECTED_MISMATCHES or report["mismatches"] != len(EXPECTED_MISMATCHES):
        problems.append(f"mismatch records {sorted(mismatches)}")
    summary = {r["case"]: r["result"] for r in records if r["pipeline"] == "summary"}
    if summary != EXPECTED_SUMMARY:
        problems.append(f"summary {summary}")
    for pipeline, want in EXPECTED_SURVIVORS.items():
        got = [r["result"] for r in records if r["pipeline"] == pipeline
               and r["case"].startswith("surviving non-exceptional pairs")]
        if got != [want]:
            problems.append(f"{pipeline} survivors {got}, expected {want}")
    glob = [r for r in records if r["pipeline"] == "pairs-gamma5" and r["case"] == "global maximum"]
    if len(glob) != 1 or glob[0]["result"] != 120 \
            or glob[0]["inputs"].get("argmax", {}).get("exact") != "(31, 3)":
        problems.append(f"gamma5 global maximum {glob}")
    return problems


# -- fekete-sweep --------------------------------------------------------------

FEKETE_Q_DEGREES = range(1, 13)
FEKETE_SQRT5_DEGREES = range(1, 7)
# Each (field, degree) appears this often per batch, its first widths a
# quarter of the width range apart, so that every batch holds some of the
# narrow, slow problems and the work per batch varies little.
FEKETE_STRATA_PER_BATCH = 4
# The test draws Q widths 1/10 .. 30/10.  At widths 1/10 and 2/10 and degree
# 10-12, find_small_polynomial raises SearchExhausted for many centres (at
# degree 12 and width 1/10, 16 of the 41 centres -2 .. 2), a known defect of
# its search (README, "Known defect left out of the inputs"); a benchmark
# operation must not fail, so the sweep starts at 3/10, where all 41 centres
# succeed at degrees 9-12.
Q_MIN_WIDTH = 3  # tenths
Q_WIDTHS = 28  # widths 3/10 .. 30/10
SQRT5_WIDTHS = 25  # first-embedding widths 1/10 .. 25/10, as in the test
Q_CENTRES = 41  # centres -2 .. 2 in steps of 1/10, as in the test
SQRT5_CENTRES = 21  # centres -1 .. 1 on each embedding


def _q_interval(width_index: int, centre_index: int):
    width = Fraction(width_index + Q_MIN_WIDTH, 10)
    center = Fraction(centre_index - Q_CENTRES // 2, 10)
    if width / 4 >= 1:
        width = Fraction(39, 10)
    return [(center - width / 2, center + width / 2)]


def _sqrt5_intervals(width_index: int, c1_index: int, c2_index: int, w2_step: int):
    w1 = Fraction(width_index + 1, 10)
    w2_cap = max(1, min(25, int(16 / float(w1) * 10) - 1))
    w2 = Fraction(w2_step % w2_cap + 1, 10)
    c1 = Fraction(c1_index - SQRT5_CENTRES // 2, 10)
    c2 = Fraction(c2_index - SQRT5_CENTRES // 2, 10)
    return [(c1 - w1 / 2, c1 + w1 / 2), (c2 - w2 / 2, c2 + w2 / 2)]


def fekete_batch(seed: int, index: int) -> list[dict]:
    """Batch `index` of the seed's problem stream, as JSON-ready dicts.

    Each problem is {"field": "Q" | "sqrt5", "n": degree, "intervals":
    [[a, b], ...]} with one interval per embedding, in embedding order.

    The inputs are stratified, so that the work of a run depends little on
    its seed.  Every batch holds each (field, degree)
    FEKETE_STRATA_PER_BATCH times.  Widths and centres follow fixed
    rotations over the test's grids: over consecutive batches each degree
    meets every width of its field's range once, and its centres step
    evenly through theirs.  The seed sets where the centre rotations and the
    second sqrt(5) width start, so the inputs differ between seeds.
    """
    rng = random.Random(f"fekete-sweep:{seed}")
    s_q, s_c1, s_c2, s_w2 = (rng.randrange(1 << 16) for _ in range(4))
    problems = []
    for j in range(FEKETE_STRATA_PER_BATCH):
        for n in FEKETE_Q_DEGREES:
            w = (11 * n + 7 * j + 3 * index) % Q_WIDTHS
            c = (5 * n + 10 * j + 9 * index + s_q) % Q_CENTRES
            problems.append(("Q", n, _q_interval(w, c)))
        for n in FEKETE_SQRT5_DEGREES:
            w = (7 * n + 6 * j + 2 * index) % SQRT5_WIDTHS
            c1 = (3 * n + 5 * j + 8 * index + s_c1) % SQRT5_CENTRES
            c2 = (5 * n + 5 * j + 4 * index + s_c2) % SQRT5_CENTRES
            w2 = 7 * n + 13 * j + 5 * index + s_w2
            problems.append(("sqrt5", n, _sqrt5_intervals(w, c1, c2, w2)))
    return [{"field": f, "n": n, "intervals": [[str(a), str(b)] for a, b in ivs]}
            for f, n, ivs in problems]


def fekete_problem(problem: dict):
    """(field, {embedding: (a, b)}, n) for one problem dict."""
    from groundbound.fields import RealCyclotomicField

    field = (RealCyclotomicField.rationals() if problem["field"] == "Q"
             else RealCyclotomicField([5]))
    intervals = {emb: (Fraction(a), Fraction(b))
                 for emb, (a, b) in zip(field.embeddings(), problem["intervals"])}
    return field, intervals, problem["n"]


def recheck_fekete(problem: dict, alpha) -> list[str]:
    """Re-certify one returned certificate from its integer coordinates.

    The polynomial is rebuilt from `alpha` over the integral basis; each
    embedding's exact sup bound must not certify GREATER than the theoretical
    bound.
    """
    from groundbound import balls
    from groundbound.balls import AlgConst, certify_compare
    from groundbound.cyclo import CycloElement
    from groundbound.fekete import certify_sup_norm, fekete_bound_expr, integral_basis

    field, intervals, n = fekete_problem(problem)
    if len(alpha) != n + 1 or not any(x for row in alpha for x in row):
        return [f"certificate {alpha} is zero or has the wrong degree"]
    basis = integral_basis(field)
    coeffs = []
    for row in alpha:
        acc = CycloElement.rational(field.n, 0)
        for j, x in enumerate(row):
            acc = acc + basis[j] * x
        coeffs.append(acc)
    bound = fekete_bound_expr(field, intervals, n)
    problems = []
    for emb, interval in intervals.items():
        sup = certify_sup_norm(coeffs, emb, interval)
        if certify_compare(AlgConst(sup), bound) == balls.GREATER:
            problems.append(f"sup bound above the theoretical bound on embedding {emb.representative}")
    return problems
