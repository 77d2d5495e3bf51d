"""Exhaustive narrow-width sweep of `fekete.find_small_polynomial` (not tier-1).

Run:  PYTHONPATH=src python tests/narrow_fekete_sweep.py

Q: widths 1/10 and 2/10, degrees 1-12, all 41 centres -2 .. 2 (984
problems).  Q(sqrt5): first-embedding widths 1/10 and 2/10, second 1/10,
2/10 and 5/2, the 25 centre pairs in {-1, -1/2, 0, 1/2, 1}^2, degrees 1-6
(900 problems).  Every certificate must be nonzero with no sup bound
certified GREATER than the theoretical bound; prints one line per failure
and a summary, and exits 1 if anything failed.  The summary also counts the
problems that needed more than the first LLL-reduced vector: a wrapper
counts `certify_sup_norm` calls, one per embedding for each candidate.  It
also gives the seconds spent in two layers of the search, timed by
wrappers: the reduction `fekete._lll`, and the certification, that is
`certify_sup_norm` and the exact comparison `within_bound` with the
theoretical bound.
"""

import sys
import time
from fractions import Fraction as F

from groundbound import fekete
from groundbound.balls import GREATER, AlgConst, certify_compare
from groundbound.fekete import find_small_polynomial
from groundbound.fields import RealCyclotomicField


def problems():
    q = RealCyclotomicField.rationals()
    for w in (F(1, 10), F(2, 10)):
        for n in range(1, 13):
            for c in range(-20, 21):
                c = F(c, 10)
                yield q, {q.identity_embedding(): (c - w / 2, c + w / 2)}, n
    f5 = RealCyclotomicField([5])
    embs = f5.embeddings()
    centres = [F(c, 2) for c in range(-2, 3)]
    for w1 in (F(1, 10), F(2, 10)):
        for w2 in (F(1, 10), F(2, 10), F(5, 2)):
            for c1 in centres:
                for c2 in centres:
                    ivs = {embs[0]: (c1 - w1 / 2, c1 + w1 / 2),
                           embs[1]: (c2 - w2 / 2, c2 + w2 / 2)}
                    for n in range(1, 7):
                        yield f5, ivs, n


def main() -> int:
    calls = 0
    seconds = {"lll": 0.0, "certification": 0.0}

    def timed(layer, function, counted=False):
        def wrapper(*args):
            nonlocal calls
            calls += counted
            t0 = time.perf_counter()
            try:
                return function(*args)
            finally:
                seconds[layer] += time.perf_counter() - t0
        return wrapper

    fekete._lll = timed("lll", fekete._lll)
    fekete.certify_sup_norm = timed("certification", fekete.certify_sup_norm, counted=True)
    fekete.within_bound = timed("certification", fekete.within_bound)
    start = time.perf_counter()
    total = failed = beyond_first = 0
    for field, ivs, n in problems():
        total += 1
        calls = 0
        try:
            cert = find_small_polynomial(field, ivs, n)
            ok = not cert.is_zero() and all(
                certify_compare(AlgConst(s), cert.theoretical_bound) != GREATER
                for s in cert.sup_bounds)
            outcome = "bad certificate"
            beyond_first += calls > field.degree
        except Exception as exc:  # report every failure, keep sweeping
            ok, outcome = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            failed += 1
            print(f"FAIL field n={field.n} degree {n} intervals {list(ivs.values())}: {outcome}")
    print(f"{total} problems, {failed} failed, {beyond_first} needed more than the "
          f"first reduced vector, {time.perf_counter() - start:.1f} s "
          f"(_lll {seconds['lll']:.2f} s, certification {seconds['certification']:.2f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
