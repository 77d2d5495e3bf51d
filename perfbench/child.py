"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py --probe PATH [--spans PATH] import
        import groundbound.cli and exit (the set-up time).
    python3 perfbench/child.py --probe PATH [--spans PATH] cli ARGS...
        run `groundbound ARGS...`; the report goes to stdout, the exit code is
        the CLI's.
    python3 perfbench/child.py --probe PATH [--spans PATH] fekete BATCH_JSON
        solve every problem of the batch with `find_small_polynomial` and print
        {"solve_s": ..., "results": [{"status", "seconds", "alpha"}, ...]}.

The speed probe (`probe.py`) runs from before groundbound is imported until
the work ends; its summary is written to the `--probe` path.  With
`--spans`, the tracer wraps the layer functions listed in `layers.TARGETS`
before the work starts and writes the spans to PATH when it ends.  Requires
the repository's `src` directory on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time

from probe import Probe


def solve_batch(batch_path: str) -> int:
    from groundbound.errors import SearchExhausted, UndecidableError
    from groundbound.fekete import find_small_polynomial
    from workloads import fekete_problem

    with open(batch_path) as fh:
        problems = [fekete_problem(p) for p in json.load(fh)]
    results = []
    start = time.perf_counter()
    for field, intervals, n in problems:
        t0 = time.perf_counter()
        try:
            cert = find_small_polynomial(field, intervals, n)
        except (SearchExhausted, UndecidableError) as exc:
            results.append({"status": type(exc).__name__, "seconds": time.perf_counter() - t0})
            continue
        results.append({"status": "ok", "seconds": time.perf_counter() - t0,
                        "alpha": [list(row) for row in cert.alpha]})
    solve_s = time.perf_counter() - start
    json.dump({"solve_s": solve_s, "results": results}, sys.stdout)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] != ["--probe"]:
        raise SystemExit("usage: child.py --probe PATH [--spans PATH] MODE ARGS...")
    probe_path, argv = argv[1], argv[2:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]

    probe = Probe()
    probe.start()
    tracer = None
    try:
        import groundbound.cli

        if spans_path:
            from layers import PACKAGE, TARGETS
            from tracer import Tracer

            tracer = Tracer(PACKAGE, TARGETS, run_id=spans_path)
            tracer.install()
        if mode == "import":
            return 0
        if mode == "cli":
            return groundbound.cli.main(rest)
        if mode == "fekete":
            return solve_batch(rest[0])
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        speed = probe.stop()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans_path)
        with open(probe_path, "w") as fh:
            json.dump(speed, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
