"""Tests of the benchmark's own code: tracer, metric names, generators.

    python3 -m pytest perfbench/tests
"""

import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_and_total  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bindings():
    """Every (module, attribute, object id) in the package, plus Report.render."""
    import groundbound.report

    out = {(name, attr, id(value))
           for name, mod in list(sys.modules.items())
           if name == "groundbound" or name.startswith("groundbound.")
           for attr, value in vars(mod).items()}
    out.add(("Report", "render", id(groundbound.report.Report.__dict__["render"])))
    return out


def test_install_and_uninstall_restore_every_binding():
    import groundbound.balls
    import groundbound.bounds
    import groundbound.pairs

    tracer = Tracer(layers.PACKAGE, layers.TARGETS)
    tracer._package_modules()
    before = _bindings()
    original = groundbound.balls.certify_compare
    replaced = tracer.install()
    try:
        assert replaced > len(layers.TARGETS)
        wrapper = groundbound.balls.certify_compare
        assert wrapper is not original
        # modules that imported the function by name get the same wrapper
        assert groundbound.bounds.certify_compare is wrapper
        assert groundbound.pairs.solve is groundbound.bounds.solve
        assert _bindings() != before
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert groundbound.bounds.certify_compare is original


def test_spans_reach_calls_through_imported_names():
    from groundbound.balls import E, Const, Sqrt
    from groundbound.bounds import BoundProblem, solve

    problem = BoundProblem(m_field_degree=1, b_disc_root=Const(Fraction(1)),
                           r_ratio=Sqrt(Const(Fraction(1, 2))), s_factor=Const(Fraction(16)) * E)
    with Tracer(layers.PACKAGE, layers.TARGETS) as tracer:
        import groundbound.bounds

        assert groundbound.bounds.solve(problem).least_n == 22
    assert solve is groundbound.bounds.solve  # restored
    counts, times = layers.span_metrics(tracer.spans)
    assert counts["bounds.solve.calls"] == 1
    assert counts["bounds.solve.n_scanned"] == 22
    # R < 1, S > 1, then one comparison for each N = 1..22
    assert counts["bounds.solve.compares_per_call"] == 24
    assert times["bounds.solve.incl_s"] >= times["balls.certify_compare.self_s"] > 0


def test_self_time_subtracts_children():
    spans = [["a", 0, 100, -1, "r", None], ["b", 10, 40, 0, "r", None],
             ["c", 50, 70, 0, "r", None], ["d", 55, 60, 2, "r", None]]
    self_ns, total_ns = self_and_total(spans)
    assert total_ns == [100, 30, 20, 5]
    assert self_ns == [50, 30, 15, 5]


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    assert per_layer == layers.metric_names()
    assert end_to_end == list(run.END_TO_END)
    names = per_layer + end_to_end + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fekete_generator_is_deterministic_and_seeded():
    assert workloads.fekete_batch(7, 0) == workloads.fekete_batch(7, 0)
    assert workloads.fekete_batch(7, 0) != workloads.fekete_batch(8, 0)
    assert workloads.fekete_batch(7, 0) != workloads.fekete_batch(7, 1)
    batch = workloads.fekete_batch(7, 0)
    per = workloads.FEKETE_STRATA_PER_BATCH
    for field, degrees in (("Q", workloads.FEKETE_Q_DEGREES),
                           ("sqrt5", workloads.FEKETE_SQRT5_DEGREES)):
        got = sorted(p["n"] for p in batch if p["field"] == field)
        assert got == sorted(list(degrees) * per)
    for p in batch:
        if p["field"] == "Q":
            a, b = p["intervals"][0]
            assert Fraction(b) - Fraction(a) >= Fraction(workloads.Q_MIN_WIDTH, 10)
        prod = Fraction(1)
        for a, b in p["intervals"]:
            assert Fraction(a) < Fraction(b)
            prod *= (Fraction(b) - Fraction(a)) / 4
        assert prod < 1


def test_fekete_rotation_covers_every_q_width_once_per_degree():
    widths = {}
    for index in range(workloads.Q_WIDTHS):
        for p in workloads.fekete_batch(3, index)[:len(workloads.FEKETE_Q_DEGREES)]:
            a, b = (Fraction(x) for x in p["intervals"][0])
            widths.setdefault(p["n"], []).append(b - a)
    for n, seen in widths.items():
        assert len(set(seen)) == workloads.Q_WIDTHS, n


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    p, value = run.tail([float(i) for i in range(1, 21)])
    assert p == 50 and value == 10.0
    p, _ = run.tail([float(i) for i in range(100)])
    assert p == 90


@pytest.mark.parametrize("exit_code", [0, 2])
def test_reproduce_gate_rejects_wrong_exit(exit_code):
    assert workloads.check_reproduce(b"{}", exit_code)


def test_probe_samples_while_the_main_thread_works():
    from probe import Probe

    probe = Probe()
    probe.start()
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        sum(i * i for i in range(1000))
    speed = probe.stop()
    assert speed["samples"] >= 10
    assert speed["chunk_s"] > 0
    assert run.reference_seconds(run.REF_CHUNK_S) == 1.0
    assert run.reference_seconds(2 * run.REF_CHUNK_S) == 0.5


def test_probe_takes_minimum_samples_in_a_short_child():
    from probe import MIN_SAMPLES, Probe

    probe = Probe()
    probe.start()
    assert probe.stop()["samples"] == MIN_SAMPLES
