"""Certified degree bounds for ground fields of arithmetic hyperbolic
reflection groups.

Layers, bottom up:

* ``polyint`` / ``cyclo`` / ``balls`` -- exact arithmetic: integer
  polynomials, real cyclotomic elements, and adaptive-precision certified
  interval evaluation;
* ``fields`` -- invariants of the fields Q(cos^2(pi/l), ...): degrees,
  embeddings, exact norms, and discriminants from the
  conductor-discriminant formula, counted by subgroup indices;
* ``bounds`` -- the least-N solver for the key inequality
  N ln(1/R) - M ln(2N+2) - ln B >= ln S, and the one Method-A derivation
  of (M, B, R, S) from an interval width;
* ``fekete`` -- constructive small-sup-norm integer polynomials with
  exact Chebyshev-coefficient certificates;
* ``graphs`` -- the five 4-vertex edge-graph families: enumeration, Gram
  matrices, determinants, feasibility, Method-A bound tables;
* ``pairs`` -- the global pair search with certified pruning, floor
  bounds and Method-A refinement;
* ``polytopes`` -- exact dimension eliminations and Fuchsian bounds;
* ``datasets`` / ``report`` / ``reproduce`` / ``cli`` -- static tables,
  deterministic reports, and the batch front end.
"""

from .balls import Ball, certify_compare, eval_ball
from .bounds import BoundProblem, BoundResult, method_a_problem, solve
from .cyclo import CycloElement
from .fields import RealCyclotomicField, field_discriminant, field_norm

__all__ = [
    "Ball",
    "BoundProblem",
    "BoundResult",
    "CycloElement",
    "RealCyclotomicField",
    "certify_compare",
    "eval_ball",
    "field_discriminant",
    "field_norm",
    "method_a_problem",
    "solve",
]

__version__ = "0.1.0"
