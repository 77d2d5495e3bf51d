"""groundbound benchmark: one workload, measured in fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: reproduce-full, reproduce-small,
fekete-sweep (see perfbench/README.md).  Each repetition is a fresh
interpreter, one at a time (a closed loop with one client); its CPU time
and `peak_rss_mb` come from `os.wait4` on that child alone.  Every time the
run reports is in reference seconds: the time measured, scaled by how fast
the machine ran the speed probe (probe.py) inside that child against
REF_CHUNK_S (see `reference_seconds`).

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced repetitions and reports the per-layer metrics
derived from the spans (written to perfbench/out/<workload>/spans.json) plus
the tracing overhead.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = HERE / "out"

import layers  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import workloads  # noqa: E402
from tracer import load_spans  # noqa: E402

SETUP_PER_REP = 2  # timed fresh-interpreter imports before each repetition
SETUP_MIN = 9  # and at least this many per run, after one untimed warm-up
MIN_REPS = 3
MIN_TRACED_PAIRS = 2  # so that every run checks that the counts repeat
CHILD_TIMEOUT_S = 150
TAIL_MIN_BEYOND = 10
# Time of one probe chunk (trimmed mean) on the machine the first numbers
# were taken on (2 vCPU Xeon, Python 3.11.7): it defines the reference second.
REF_CHUNK_S = 0.0003

END_TO_END = {
    "wall_ref_s": "s",
    "cpu_ref_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "certs_per_ref_s": "1/s",
}


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    output: bytes
    speed: float  # reference seconds per second measured, from the child's probe

    @property
    def wall_ref_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def cpu_ref_s(self) -> float:
        return self.cpu_s * self.speed


def reference_seconds(chunk_s: float) -> float:
    """Reference seconds per measured second in a child whose probe chunks
    took `chunk_s` on average: 1 when the machine runs at the reference speed,
    below 1 when the chunks, and so everything else, ran slower."""
    return REF_CHUNK_S / chunk_s


def child_env() -> dict:
    """The caller's environment with `src` importable and bytecode caching on,
    as for an installed package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str], stem: Path) -> Rep:
    """Run `child.py ARGS` to completion; wall time spans spawn to reap.  Its
    stdout, stderr and probe summary go to `stem`.out, .err and .probe."""
    out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
    probe_path = stem.with_suffix(".probe")
    probe_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), "--probe", str(probe_path), *args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    exit_code = os.waitstatus_to_exitcode(status)
    try:
        speed = reference_seconds(json.loads(probe_path.read_text())["chunk_s"])
    except (OSError, ValueError, KeyError):
        speed = math.nan  # the child died before writing it; its checks fail
    return Rep(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
               peak_rss_mb=usage.ru_maxrss / 1024.0, exit_code=exit_code,
               output=out_path.read_bytes(), speed=speed)


def measure_setup(out: Path, count: int) -> list[Rep]:
    reps = [run_child(["import"], out / "setup") for _ in range(count)]
    for rep in reps:
        if rep.exit_code != 0:
            raise SystemExit(f"error: importing groundbound.cli exited with {rep.exit_code}")
    return reps


def tail(samples: list[float]):
    """(percentile, value) of the highest whole percentile with at least
    TAIL_MIN_BEYOND samples above its rank, or None when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def describe(name: str, samples: list[float], unit: str) -> str:
    line = f"{name}: median {statistics.median(samples):.4f} {unit} over n={len(samples)}"
    t = tail(samples)
    if t is None:
        return line + f" (no percentile has {TAIL_MIN_BEYOND} samples beyond it)"
    return line + f", p{t[0]} {t[1]:.4f} {unit}"


# -- workload runners ----------------------------------------------------------


class Workload:
    """One repetition's command and its correctness checks."""

    def __init__(self, seed: int, out: Path):
        self.seed, self.out = seed, out
        self.spans = out / "spans.json"
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # outputs that were produced but are incorrect
        # certificates per reference second, one rate per good untraced repetition
        self.cert_rates: list[float] = []

    def note_wrong(self, problems: list[str]) -> None:
        for p in problems:
            print(f"  check failed: {p}")
        self.wrong.extend(problems)


class Reproduce(Workload):
    def __init__(self, name: str, seed: int, out: Path):
        super().__init__(seed, out)
        self.argv = workloads.reproduce_argv(name)
        self.digest = None

    def run(self, rep_index: int, traced: bool) -> Rep:
        spans = ["--spans", str(self.spans)] if traced else []
        rep = run_child([*spans, "cli", *self.argv], self.out / ("traced" if traced else "rep"))
        if self.check(rep, traced) and not traced:
            certs = workloads.certified_pairs(json.loads(rep.output))
            self.cert_rates.append(certs / rep.wall_ref_s)
        return rep

    def check(self, rep: Rep, traced: bool) -> bool:
        self.attempted += 1
        problems = workloads.check_reproduce(rep.output, rep.exit_code)
        digest = workloads.digest(rep.output)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"{'traced ' if traced else ''}report digest {digest} "
                            f"differs from {self.digest}")
        if problems:
            self.failed += 1
            self.note_wrong(problems)
        return not problems

    def finish(self) -> None:
        print(f"report sha256 {self.digest}")


class FeketeSweep(Workload):
    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        self.solved: list[tuple] = []  # (batch, results) of every repetition
        self.alphas: dict[int, list] = {}
        self.latencies: list[float] = []

    def run(self, batch_index: int, traced: bool) -> Rep:
        batch = workloads.fekete_batch(self.seed, batch_index)
        batch_path = self.out / "batch.json"
        batch_path.write_text(json.dumps(batch))
        spans = ["--spans", str(self.spans)] if traced else []
        rep = run_child([*spans, "fekete", str(batch_path)],
                        self.out / ("traced" if traced else "rep"))
        self.attempted += len(batch)
        if rep.exit_code != 0:
            self.failed += len(batch)
            self.note_wrong([f"fekete child exited with {rep.exit_code}"])
            return rep
        data = json.loads(rep.output)
        results = data["results"]
        alphas = [r.get("alpha") for r in results]
        if batch_index in self.alphas and alphas != self.alphas[batch_index]:
            self.note_wrong([f"batch {batch_index} certificates differ between repetitions"])
        self.alphas.setdefault(batch_index, alphas)
        for problem, result in zip(batch, results):
            if result["status"] != "ok":
                self.failed += 1
                print(f"  {result['status']}: {problem}")
        if not traced:
            self.solved.append((batch, results))
            ok = [r["seconds"] * rep.speed for r in results if r["status"] == "ok"]
            self.latencies += ok
            self.cert_rates.append(len(ok) / (data["solve_s"] * rep.speed))
        return rep

    def finish(self) -> None:
        """Re-certify every distinct certificate, outside the timed region."""
        checked = set()
        for batch, results in self.solved:
            for problem, result in zip(batch, results):
                key = json.dumps([problem, result.get("alpha")])
                if result["status"] != "ok" or key in checked:
                    continue
                checked.add(key)
                problems = workloads.recheck_fekete(problem, result["alpha"])
                if problems:
                    self.failed += 1
                    self.note_wrong(problems)
        print(f"re-certified {len(checked)} distinct certificates")
        if self.latencies:
            print(describe("per-certificate latency (reference)", self.latencies, "s"))


def make_workload(name: str, seed: int, out: Path) -> Workload:
    if name in workloads.REPRODUCE_KMAX:
        return Reproduce(name, seed, out)
    return FeketeSweep(seed, out)


# -- measurement -----------------------------------------------------------------


def measure(work: Workload, seconds: float) -> dict:
    """Time repetitions until the next would pass `seconds`, set-up included.

    The set-up imports are spread over the whole run, a few before each
    repetition, so that their median does not hang on the machine's speed
    in one stretch of a few seconds."""
    start = time.perf_counter()
    setup: list[Rep] = []
    reps: list[Rep] = []
    rounds: list[float] = []  # duration of each round of set-up imports and repetition
    while True:
        round_start = time.perf_counter()
        setup += measure_setup(work.out, SETUP_PER_REP)
        # each fekete repetition solves a different batch of the seed's stream
        rep = work.run(len(reps), traced=False)
        reps.append(rep)
        print(f"  rep {len(reps)}: wall {rep.wall_s:.4f} s, cpu {rep.cpu_s:.4f} s, "
              f"speed {rep.speed:.4f}, wall_ref {rep.wall_ref_s:.4f} s")
        now = time.perf_counter()
        rounds.append(now - round_start)
        if len(reps) >= MIN_REPS and now - start + statistics.median(rounds) > seconds:
            break
    setup += measure_setup(work.out, max(0, SETUP_MIN - len(setup)))
    work.finish()
    print("raw " + describe("wall_s", [r.wall_s for r in reps], "s"))
    print("raw " + describe("cpu_s", [r.cpu_s for r in reps], "s"))
    print("raw " + describe("setup_s", [r.wall_s for r in setup], "s"))
    print(describe("speed", [r.speed for r in reps], "reference s per s"))
    samples = {
        "wall_ref_s": [r.wall_ref_s for r in reps],
        "cpu_ref_s": [r.cpu_ref_s for r in reps],
        "peak_rss_mb": [r.peak_rss_mb for r in reps],
        "setup_s": [r.wall_ref_s for r in setup],
    }
    for name, values in samples.items():
        print(describe(name, values, END_TO_END[name]))
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    print(describe("certs_per_ref_s", work.cert_rates, "1/s"))
    metrics["certs_per_ref_s"] = statistics.median(work.cert_rates) if work.cert_rates else 0.0
    return metrics


def measure_traced(work: Workload, seconds: float) -> dict:
    """Alternate untraced and traced repetitions of the same input."""
    plain: list[Rep] = []
    traced: list[Rep] = []
    counts0 = None
    times: dict[str, list[float]] = {}
    start = time.perf_counter()
    while True:
        plain.append(work.run(0, traced=False))
        traced.append(work.run(0, traced=True))
        counts, span_times = layers.span_metrics(load_spans(work.spans))
        span_times = {name: value * traced[-1].speed for name, value in span_times.items()}
        if counts0 is None:
            counts0 = counts
        elif counts != counts0:
            diff = sorted(k for k in counts if counts[k] != counts0.get(k))
            work.note_wrong([f"per-layer counts differ between traced runs: {diff}"])
        for name, value in span_times.items():
            times.setdefault(name, []).append(value)
        pair = plain[-1].wall_s + traced[-1].wall_s
        if len(traced) >= MIN_TRACED_PAIRS and time.perf_counter() - start + pair > seconds:
            break
    work.finish()
    plain_wall = statistics.median(r.wall_ref_s for r in plain)
    traced_wall = statistics.median(r.wall_ref_s for r in traced)
    print(f"tracing overhead: traced wall {traced_wall:.4f} s - untraced wall "
          f"{plain_wall:.4f} s (reference) over n={len(traced)} pairs; spans in {work.spans}")
    metrics = dict(counts0)
    metrics.update({name: statistics.median(v) for name, v in times.items()})
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "groundbound" / "__init__.py").is_file():
        print(f"error: no groundbound sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    out = OUT_ROOT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))  # for re-certifying fekete certificates

    work = make_workload(args.workload, args.seed, out)
    run_child(["import"], out / "setup")  # fill the bytecode cache, warm the page cache
    print(f"workload {args.workload} seed {args.seed} budget {args.seconds:g} s "
          f"trace {args.trace}")
    if args.trace:
        values = measure_traced(work, args.seconds)
        units = {name: layers.metric_unit(name) for name in layers.metric_names()}
    else:
        values = measure(work, args.seconds)
        units = END_TO_END
    error_rate = work.failed / work.attempted
    print(f"error_rate: {error_rate:.6f} ({work.failed} failed of {work.attempted} attempted)")
    result = {
        "correct": not work.wrong,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
