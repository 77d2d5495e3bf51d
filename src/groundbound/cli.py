"""Command-line front end.

Subcommands: bound-solve, fekete, graph-case, graph-family, search-pairs,
refine-pair, polytope, datasets, reproduce-all.  Every subcommand takes
--format {text,json,csv} and --out PATH; bound-solve also takes
--precision-cap BITS and polytope also takes --verbose.  Reports go to
stdout or --out and are byte-identical across runs for the same
configuration.

bound-solve reads B, R and S as exact expressions: decimal literals
(digits with at most one dot, such as 2, 0.5 or .5), the constants pi and
e, the functions sqrt, ln, exp and sin of one argument, parentheses, and
the operators + - * / and ^.  ^ binds tighter than unary minus, so -2^2
is -(2^2); its exponent is a rational literal, a signed number or a
parenthesised quotient of two, such as 2, -1, 0.5, (3/4) or (1/-2).
Anything else (1e5, 2**3, 2^3^2, 2^pi, +2, an unknown name) is a usage
error.

Exit codes: 0 success, 1 reproduction mismatch, 2 undecidable (a sign
not settled at the precision cap, or no N up to 1000000), 3 usage error
(a bad flag, an argument out of range: `errors.InvalidInput` and the
other package errors, a malformed or too deeply nested expression, or an
--out, --case-csv or --pairs-out path that cannot be written, which is
checked before any work starts).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
import warnings
from fractions import Fraction

from . import balls
from .balls import Const, E, Expr, ExpNode, Ln, PI, Pow, Sin, Sqrt
from .bounds import BoundProblem, solve
from .errors import GroundboundError, UndecidableError
from .fields import RealCyclotomicField
from .report import Record, Report, case_table_csv, pair_table_lines

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_UNDECIDABLE = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- expression language ------------------------------------------------------
#
# Python's own parser reads the text with `^` written as `**`; the walk
# below admits only the node shapes of the language and builds `balls`
# nodes from them.  Nothing is evaluated by Python.

_BINARY = {ast.Add: balls.Add, ast.Sub: balls.Sub, ast.Mult: balls.Mul, ast.Div: balls.Div}
_FUNCS = {"sqrt": Sqrt, "ln": Ln, "exp": ExpNode, "sin": Sin}
_NAMES = {"pi": PI, "e": E}


def parse_expr(text: str) -> Expr:
    if "**" in text:
        raise UsageError("write powers with ^, not **")
    # one line without leading blanks, and integers without leading zeros,
    # so that Python's parser reads what the text means
    source = re.sub(r"(?<![\d.])0+(?=\d)", "", " ".join(text.split())).replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)  # raised as SyntaxError
            tree = ast.parse(source, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise UsageError(f"bad expression: {getattr(exc, 'msg', exc)}") from None
    return _walk(tree.body, source)


def _walk(node, source: str) -> Expr:
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            return Pow(_walk(node.left, source), _exponent(node.right, source))
        if type(node.op) in _BINARY:
            return _BINARY[type(node.op)](_walk(node.left, source), _walk(node.right, source))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_walk(node.operand, source)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords):
        return _FUNCS[node.func.id](_walk(node.args[0], source))
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if isinstance(node, ast.Constant):
        return Const(_literal(node, source))
    raise UsageError(f"unexpected {ast.get_source_segment(source, node)!r} in expression")


def _literal(node, source: str) -> Fraction:
    """A decimal literal (digits with at most one dot), or its negation."""
    negate = isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
    if negate:
        node = node.operand
    text = ast.get_source_segment(source, node)
    if not (isinstance(node, ast.Constant) and text.replace(".", "", 1).isdigit()):
        raise UsageError(f"expected a decimal number, got {text!r}")
    return -Fraction(text) if negate else Fraction(text)


def _exponent(node, source: str) -> Fraction:
    """A rational literal: a signed number, or a quotient of two in parentheses."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
        return _literal(node, source)
    den = _literal(node.right, source)
    if den == 0:
        raise UsageError("zero denominator in exponent")
    return _literal(node.left, source) / den


# -- field names ----------------------------------------------------------------

_FIELD_NAMES = {
    "Q": (), "sqrt2": (8,), "sqrt3": (12,), "sqrt5": (5,),
}


def _field_from_name(name: str) -> RealCyclotomicField:
    if name not in _FIELD_NAMES:
        raise UsageError(f"unknown field {name!r}; choose from {sorted(_FIELD_NAMES)}")
    return RealCyclotomicField(_FIELD_NAMES[name])


# -- subcommand implementations ---------------------------------------------------


def _cmd_bound_solve(args) -> Report:
    problem = BoundProblem(
        m_field_degree=args.M,
        b_disc_root=parse_expr(args.B),
        r_ratio=parse_expr(args.R),
        s_factor=parse_expr(args.S),
        exceptional_count=args.m,
    )
    result = solve(problem, precision_cap=args.precision_cap)
    report = Report(title="least-N bound solve")
    report.add_section("solve", [Record(
        pipeline="bound-solve", case=f"M={args.M}, m={args.m}",
        inputs={"B": problem.b_disc_root, "R": problem.r_ratio, "S": problem.s_factor},
        result=result.least_n, paper_expected=None, match=None,
        note=f"degree bound N*M/m = {result.degree_bound}; "
             "inequality: N ln(1/R) - M ln(2N+2) - ln B >= ln S",
    )])
    return report


def _interval(text: str) -> tuple[Fraction, Fraction]:
    try:
        a, b = map(Fraction, text.split(","))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"interval {text!r} is not of the form a,b with rationals a, b") from None
    return a, b


def _cmd_fekete(args) -> Report:
    from .fekete import find_small_polynomial

    field = _field_from_name(args.field)
    embeddings = field.embeddings()
    raw = [_interval(item) for item in args.interval]
    if len(raw) != len(embeddings):
        raise UsageError(f"field {args.field} needs {len(embeddings)} interval(s)")
    intervals = dict(zip(embeddings, raw))
    cert = find_small_polynomial(field, intervals, args.degree)
    report = Report(title="small-polynomial certificate")
    rows = []
    for emb, sup in zip(embeddings, cert.sup_bounds):
        rows.append(Record(
            pipeline="fekete", case=f"embedding {emb.representative} mod {field.n}",
            inputs={"sup_bound": balls.AlgConst(sup),
                    "theoretical_bound": cert.theoretical_bound},
            result="certified", paper_expected=None, match=None))
    rows.append(Record(pipeline="fekete", case="coefficients (integral basis coords)",
                       inputs={}, result=str(cert.alpha), paper_expected=None, match=None,
                       note="sup bound = sum_k |A_k| over the exact Chebyshev expansion"))
    report.add_section("certificate", rows)
    return report


def _cmd_graph_case(args) -> Report:
    from .graphs import EdgeGraphCase, Family, Variant, case_bound

    family = Family[args.family.upper()]
    case = EdgeGraphCase(family, s=args.s, k=args.k, r=args.r, p=args.p)
    variant = Variant(args.variant) if args.variant else None
    row = case_bound(case, variant, m=args.m)
    report = Report(title=f"graph case {case.label()}")
    inputs = {}
    if row.problem is not None:
        inputs = {"M": row.problem.m_field_degree, "B": row.problem.b_disc_root,
                  "R": row.problem.r_ratio, "S": row.problem.s_factor}
    report.add_section("case", [Record(
        pipeline="graph-case", case=case.label(), inputs=inputs,
        result=row.bound, paper_expected=row.published_bound, match=row.match,
        note=f"mechanism={row.mechanism}, least N={row.least_n}")])
    return report


def _cmd_graph_family(args) -> Report:
    from .graphs import Family, family_bound
    from .reproduce import family_records

    family = Family[args.family.upper()]
    k_range = None
    if args.kmin is not None or args.kmax_family is not None:
        kmin = 2 if args.kmin is None else args.kmin
        kmax = 6 if args.kmax_family is None else args.kmax_family
        k_range = range(kmin, kmax + 1)
    table = family_bound(family, k_range)
    report = Report(title=f"family table {family.value}")
    report.add_section(f"family {family.value}", family_records(table))
    if args.case_csv:
        with open(args.case_csv, "w") as fh:
            fh.write(case_table_csv(table.rows))
    return report


def _cmd_search_pairs(args) -> Report:
    from .pairs import PairKind, search
    from .reproduce import tail_record

    kind = PairKind[args.kind.upper()]
    result = search(kind, k_max=args.kmax)
    report = Report(title=f"pair search {kind.value}, k <= {args.kmax}")
    rows = [Record(pipeline="search-pairs", case="survivors", inputs={},
                   result=len(result.survivors), paper_expected=None, match=None),
            Record(pipeline="search-pairs", case="max surviving k", inputs={},
                   result=max((r.k for r in result.survivors), default=0),
                   paper_expected=None, match=None)]
    if result.tail is not None:
        rows.append(tail_record("search-pairs", result.tail))
    report.add_section("search", rows)
    if args.pairs_out:
        with open(args.pairs_out, "w") as fh:
            fh.write("\n".join(pair_table_lines(result.survivors)) + "\n")
    else:
        report.add_section("surviving pairs", [
            Record(pipeline="search-pairs", case=f"(k={r.k}, s={r.s})",
                   inputs={"bound_KF": r.bound_kf, "bound_K": r.bound_k,
                           "refined_KF": r.refined_kf},
                   result=r.final_bound, paper_expected=r.published_final,
                   match=None if r.published_final is None else r.final_bound == r.published_final)
            for r in result.survivors])
    return report


def _cmd_refine_pair(args) -> Report:
    from .pairs import PairKind, pair_report

    kind = PairKind[args.kind.upper()]
    r = pair_report(args.k, args.s, kind, refine_above=0)
    report = Report(title=f"pair refinement ({args.k}, {args.s})")
    note = ""
    if r.published_bound_kf is not None and not r.intermediates_match:
        note = (f"formula intermediates ({r.bound_kf}, {r.bound_k}) diverge from "
                f"printed ({r.published_bound_kf}, {r.published_bound_k})")
    report.add_section("refine", [Record(
        pipeline="refine-pair", case=f"(k={r.k}, s={r.s})",
        inputs={"field_degree": r.field_degree, "bound_KF": r.bound_kf,
                "bound_K": r.bound_k, "refined_KF": r.refined_kf},
        result=r.final_bound, paper_expected=r.published_final,
        match=None if r.published_final is None else r.final_bound == r.published_final,
        note=note)])
    return report


def _cmd_polytope(args) -> Report:
    from .reproduce import fuchsian_records, polytope_records

    report = Report(title="polytope and Fuchsian bounds")
    report.add_section("dimension elimination", polytope_records())
    report.add_section("Fuchsian bounds", fuchsian_records())
    if args.verbose:
        from .polytopes import counting_chain

        rows = []
        for n in range(8, 13):
            chain = counting_chain(n)
            rows.append(Record(
                pipeline="polytope", case=f"counting chain at n={n}",
                inputs={k: v for k, v in chain.items() if k != "holds"},
                result="holds" if chain["holds"] else "fails",
                paper_expected=None, match=None))
        report.add_section("counting-argument intermediates", rows)
    return report


def _cmd_datasets(args) -> Report:
    from .reproduce import dataset_records

    report = Report(title="static datasets")
    report.add_section("datasets", dataset_records())
    return report


def _cmd_reproduce_all(args) -> Report:
    from .reproduce import reproduce_all

    return reproduce_all(args.kmax)


# -- driver --------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="groundbound",
                     description="certified degree bounds for reflection-group ground fields")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--out", default=None, help="write the report to PATH")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("bound-solve", help="solve the least-N inequality", parents=[common])
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--R", required=True)
    p.add_argument("--S", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--precision-cap", type=int, default=balls.DEFAULT_CAP_BITS,
                   help="give up as undecidable above this many bits")
    p.set_defaults(func=_cmd_bound_solve)

    p = sub.add_parser("fekete", help="construct a small-sup-norm integer polynomial", parents=[common])
    p.add_argument("--field", default="Q")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--interval", action="append", required=True,
                   help="a,b (repeat once per embedding)")
    p.set_defaults(func=_cmd_fekete)

    p = sub.add_parser("graph-case", help="bound one edge-graph case", parents=[common])
    p.add_argument("--family", required=True, choices=("g1", "g2", "g3", "g4", "g5"))
    p.add_argument("--s", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--variant", choices=("u", "u_squared", "u_tilde"))
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(func=_cmd_graph_case)

    p = sub.add_parser("graph-family", help="bound table for one family", parents=[common])
    p.add_argument("--family", required=True, choices=("g1", "g2", "g3", "g4", "g5"))
    p.add_argument("--kmin", type=int)
    p.add_argument("--kmax-family", type=int)
    p.add_argument("--case-csv", help="also write the per-case CSV table to PATH")
    p.set_defaults(func=_cmd_graph_family)

    p = sub.add_parser("search-pairs", help="global Method-B pair search", parents=[common])
    p.add_argument("--kind", required=True, choices=("gamma4", "gamma5"))
    p.add_argument("--kmax", type=int, default=10**7)
    p.add_argument("--pairs-out", help="write the machine-readable pair report to PATH")
    p.set_defaults(func=_cmd_search_pairs)

    p = sub.add_parser("refine-pair", help="Method-A refinement for one pair", parents=[common])
    p.add_argument("--kind", required=True, choices=("gamma4", "gamma5"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_refine_pair)

    p = sub.add_parser("polytope", help="dimension elimination and Fuchsian bounds", parents=[common])
    p.add_argument("--verbose", action="store_true",
                   help="also print the counting-argument intermediates")
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("datasets", help="verify the static datasets", parents=[common])
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser("reproduce-all", help="run the full reproduction suite", parents=[common])
    p.add_argument("--kmax", type=int, default=10**7)
    p.set_defaults(func=_cmd_reproduce_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print("run with --help for usage", file=sys.stderr)
        return EXIT_USAGE
    try:
        # an unwritable path fails before the work; append mode keeps an
        # existing file intact until the report is written
        for path in (args.out, getattr(args, "case_csv", None), getattr(args, "pairs_out", None)):
            if path:
                open(path, "a").close()
        report = args.func(args)
        text = report.render(args.format)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UndecidableError as exc:
        print(f"undecidable: {exc}", file=sys.stderr)
        return EXIT_UNDECIDABLE
    except (GroundboundError, OSError, OverflowError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not args.out:
        sys.stdout.write(text)
    return EXIT_MISMATCH if report.mismatch_count else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
