"""Which groundbound functions the traced run wraps, and the per-layer metrics
derived from its spans.

Layers are named by module.  Counts come from return values and from span
parentage, so two traced runs of the same inputs give identical counts; times
are self times (span minus child spans) unless a name ends in `incl_s`.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import self_and_total

PACKAGE = "groundbound"
NS_PER_S = 1e9
MIB = float(1 << 20)
# bytes per sieve entry: phi (int64) + is_prime (bool) + g (float64)
SIEVE_BYTES_PER_ENTRY = 8 + 1 + 8
SETTLE_BITS = (64, 128, 256, 512, 1024, 2048, 4096)
OUTCOMES = ("LESS", "GREATER", "EQUAL", "UNDECIDED")
FAMILIES = ("Gamma1", "Gamma2", "Gamma3", "Gamma4")


def _search_attrs(args, kwargs, result):
    return {"candidate_k": result.candidate_k_count, "checked_pairs": result.checked_pairs}


TARGETS = [
    ("groundbound.pairs", "sieve_tables", lambda a, k, r: {"limit": a[0] if a else k["limit"]}),
    ("groundbound.pairs", "search", _search_attrs),
    ("groundbound.pairs", "survives", lambda a, k, r: {"kept": bool(r)}),
    ("groundbound.pairs", "pair_report", None),
    ("groundbound.pairs", "certified_floor_ratio", None),
    ("groundbound.pairs", "exceptional_bound", None),
    ("groundbound.bounds", "solve", lambda a, k, r: {"least_n": r.least_n}),
    ("groundbound.balls", "certify_compare", lambda a, k, r: {"outcome": r}),
    ("groundbound.balls", "eval_ball", lambda a, k, r: {"bits": r.precision_bits}),
    ("groundbound.graphs", "family_bound", lambda a, k, r: {"family": r.family.value}),
    ("groundbound.graphs", "case_bound", None),
    ("groundbound.fekete", "find_small_polynomial", None),
    ("groundbound.fekete", "chebyshev_linear_forms", None),
    ("groundbound.fekete", "certify_sup_norm", None),
    ("groundbound.polytopes", "max_admissible_dimension", None),
    ("groundbound.fields", "field_discriminant", None),
    ("groundbound.report", "Report.render", None),
]


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = [
        "pairs.sieve_tables.self_s",
        "pairs.sieve_tables.computed_mb",
        "pairs.search.self_s",
        "pairs.search.candidate_k",
        "pairs.search.checked_pairs",
        "pairs.survives.calls",
        "pairs.survives.self_s",
        "pairs.survives.kept_ratio",
        "pairs.pair_report.calls",
        "pairs.pair_report.self_s",
        "pairs.certified_floor_ratio.calls",
        "pairs.certified_floor_ratio.self_s",
        "pairs.exceptional_bound.calls",
        "pairs.exceptional_bound.self_s",
        "bounds.solve.calls",
        "bounds.solve.incl_s",
        "bounds.solve.n_scanned",
        "bounds.solve.compares_per_call",
        "balls.certify_compare.calls",
        "balls.certify_compare.self_s",
    ]
    names += [f"balls.certify_compare.outcome.{o}" for o in OUTCOMES]
    names.append("balls.certify_compare.exact_path")
    names += [f"balls.certify_compare.settle_bits.{b}" for b in SETTLE_BITS]
    names += [
        "balls.eval_ball.calls",
        "balls.eval_ball.self_s",
        "balls.eval_ball.per_compare",
    ]
    names += [f"graphs.family_bound.{f}.incl_s" for f in FAMILIES]
    names += [
        "graphs.case_bound.calls",
        "graphs.case_bound.self_s",
        "fekete.find_small_polynomial.calls",
        "fekete.find_small_polynomial.self_s",
        "fekete.chebyshev_linear_forms.self_s",
        "fekete.certify_sup_norm.calls",
        "fekete.certify_sup_norm.self_s",
        "fekete.sup_checks_per_cert",
        "polytopes.max_admissible_dimension.self_s",
        "fields.field_discriminant.calls",
        "fields.field_discriminant.self_s",
        "report.Report.render.self_s",
        "trace.spans",
        "trace.wall_s",
        "trace.overhead_s",
    ]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(("_ratio", "per_call", "per_compare", "per_cert")):
        return "ratio"
    return "count"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def span_metrics(spans) -> tuple[dict, dict]:
    """(counts, times) from one traced run's spans.

    Counts are exact and must repeat between runs; times are in seconds.
    `trace.*` metrics are filled in by the caller.
    """
    self_ns, total_ns = self_and_total(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    children = defaultdict(list)
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += self_ns[i] / NS_PER_S
        incl_s[name] += total_ns[i] / NS_PER_S
        if parent >= 0:
            children[parent].append(i)

    def attrs(i):
        return spans[i][5] or {}

    def indices(name):
        return [i for i, span in enumerate(spans) if span[0] == name]

    counts: dict = {}
    times: dict = {}

    limits = {attrs(i)["limit"] for i in indices("pairs.sieve_tables")}
    counts["pairs.sieve_tables.computed_mb"] = sum(
        SIEVE_BYTES_PER_ENTRY * (limit + 1) for limit in limits) / MIB
    searches = [attrs(i) for i in indices("pairs.search")]
    counts["pairs.search.candidate_k"] = sum(a["candidate_k"] for a in searches)
    counts["pairs.search.checked_pairs"] = sum(a["checked_pairs"] for a in searches)
    kept = sum(1 for i in indices("pairs.survives") if attrs(i).get("kept"))
    counts["pairs.survives.kept_ratio"] = _ratio(kept, calls["pairs.survives"])

    solves = indices("bounds.solve")
    counts["bounds.solve.n_scanned"] = sum(attrs(i).get("least_n", 0) for i in solves)
    solve_compares = sum(1 for i in solves for c in children[i]
                         if spans[c][0] == "balls.certify_compare")
    counts["bounds.solve.compares_per_call"] = _ratio(solve_compares, len(solves))
    times["bounds.solve.incl_s"] = incl_s["bounds.solve"]

    outcome = defaultdict(int)
    settle = defaultdict(int)
    exact_path = 0
    compare_evals = 0
    for i in indices("balls.certify_compare"):
        outcome[attrs(i).get("outcome")] += 1
        evals = [c for c in children[i] if spans[c][0] == "balls.eval_ball"]
        compare_evals += len(evals)
        if not evals:
            exact_path += 1
        else:
            settle[attrs(evals[-1]).get("bits")] += 1
    for o in OUTCOMES:
        counts[f"balls.certify_compare.outcome.{o}"] = outcome[o]
    counts["balls.certify_compare.exact_path"] = exact_path
    for b in SETTLE_BITS:
        counts[f"balls.certify_compare.settle_bits.{b}"] = settle[b]
    counts["balls.eval_ball.per_compare"] = _ratio(compare_evals, calls["balls.certify_compare"])

    family_incl = defaultdict(float)
    for i in indices("graphs.family_bound"):
        family_incl[attrs(i).get("family")] += total_ns[i] / NS_PER_S
    for f in FAMILIES:
        times[f"graphs.family_bound.{f}.incl_s"] = family_incl[f]

    certs = sum(1 for i in indices("fekete.find_small_polynomial") if "error" not in attrs(i))
    counts["fekete.sup_checks_per_cert"] = _ratio(calls["fekete.certify_sup_norm"], certs)
    counts["trace.spans"] = len(spans)

    for name in metric_names():
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            counts[name] = calls[layer]
        elif stat == "self_s":
            times[name] = self_s[layer]
    return counts, times
