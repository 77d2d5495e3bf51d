import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from groundbound.cli import UsageError, main, parse_expr
from groundbound.balls import eval_ball
from fractions import Fraction

from enclosures import encloses, midpoint


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expression_parser():
    ball = eval_ball(parse_expr("1/sqrt(2)"), 64)
    assert abs(float(midpoint(ball)) - 2**-0.5) < 1e-15
    ball = eval_ball(parse_expr("16*e"), 64)
    assert abs(float(midpoint(ball)) - 16 * 2.718281828459045) < 1e-12
    ball = eval_ball(parse_expr("(1/2)^(3/4)"), 64)
    assert abs(float(midpoint(ball)) - 0.5**0.75) < 1e-15
    ball = eval_ball(parse_expr("sin(pi/7)"), 64)
    assert abs(float(midpoint(ball)) - 0.4338837391175581) < 1e-12
    ball = eval_ball(parse_expr("ln(2) - ln(3/2)"), 64)
    assert encloses(ball, Fraction("0.2876820724517809274392190059938274315"))


# S - 1 = sqrt(pi - q) with q the 50-digit truncation of pi, about 7.6e-26:
# the sqrt argument straddles zero below about 170 bits
NEAR_ZERO_S = "1 + sqrt(pi - 314159265358979323846264338327950288419716939937510/10^50)"

# str(parse_expr(text)) for accepted input, None for a usage error
EXPRESSION_LANGUAGE = {
    "1/sqrt(2)": "(1 / sqrt(2))",
    "(1/2)^(3/4)": "((1 / 2))^(3/4)",
    "2^-1": "(2)^(-1)",
    "2^(1/-2)": "(2)^(-1/2)",
    "2^(-3/4)": "(2)^(-3/4)",
    "2^0.5": "(2)^(1/2)",
    "2^3/4": "((2)^(3) / 4)",
    ".5": "1/2",
    "1.": "1",
    "01": "1",
    " 1 +\t2\n": "(1 + 2)",
    "--2": "(-(-2))",
    "3*-2": "(3 * (-2))",
    "1-2-3": "((1 - 2) - 3)",
    "2/3/4": "((2 / 3) / 4)",
    "sqrt(2)^2": "(sqrt(2))^(2)",
    "16*e": "(16 * e)",
    "sin(pi/7)": "sin((pi / 7))",
    "ln(2) - ln(3/2)": "(ln(2) - ln((3 / 2)))",
    "exp(1)-1/2": "(exp(1) - (1 / 2))",
    NEAR_ZERO_S: "(1 + sqrt((pi - (314159265358979323846264338327950288419716939937510"
                 " / (10)^(50)))))",
    # unary minus binds looser than ^, so -2^2 is -(2^2)
    "-2^2": "(-(2)^(2))",
    "-2^-1": "(-(2)^(-1))",
    "2*-3^2": "(2 * (-(3)^(2)))",
    "1e5": None,
    "2**3": None,
    "2^3^2": None,
    "2^(1/2/3)": None,
    "2^(1/0)": None,
    "2^--1": None,
    "2^pi": None,
    "(2)(3)": None,
    "ln 2": None,
    "sqrt(2,3)": None,
    "sqrt": None,
    "+2": None,
    "x": None,
    "0x10": None,
    "1.2.3": None,
    "1_0": None,
    "1j": None,
    "True": None,
    "'2'": None,
    "2in 3": None,
    "": None,
}


@pytest.mark.parametrize("text", list(EXPRESSION_LANGUAGE), ids=repr)
def test_expression_language(text):
    expected = EXPRESSION_LANGUAGE[text]
    if expected is None:
        with pytest.raises(UsageError):
            parse_expr(text)
    else:
        assert str(parse_expr(text)) == expected


def test_bound_solve_command(capsys):
    code, out, err = run_cli(
        ["bound-solve", "--M", "1", "--B", "1", "--R", "1/sqrt(2)", "--S", "16*e"],
        capsys,
    )
    assert code == 0
    assert "result=22" in out


def test_bound_solve_json(capsys):
    code, out, _ = run_cli(
        ["bound-solve", "--format", "json", "--M", "1", "--B", "1",
         "--R", "1/2", "--S", "32*e"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sections"][0]["records"][0]["result"] == 12


def test_graph_case_command(capsys):
    code, out, _ = run_cli(
        ["graph-case", "--family", "g2", "--s", "3", "--k", "3", "--p", "3"],
        capsys,
    )
    assert code == 0 and "result=39" in out


def test_graph_family_csv(tmp_path, capsys):
    csv_path = tmp_path / "cases.csv"
    code, out, _ = run_cli(
        ["graph-family", "--family", "g2", "--case-csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("family,s,k,r,p,variant,m,M,B,R,S,N,bound")
    assert len(lines) == 9  # header + eight cases


def test_polytope_command(capsys):
    code, out, _ = run_cli(["polytope"], capsys)
    assert code == 0
    assert "result=9" in out and "result=46" in out
    # the closed-form proofs cover every n, and the labels say so
    assert "max admissible dimension " in out and "(n <= " not in out
    assert "narrow-face bound identity (n >= 4)" in out


def test_nmax_is_a_usage_error(capsys):
    # the dimension elimination is proved for every n, so no bound is taken
    code, out, err = run_cli(["polytope", "--nmax", "20"], capsys)
    assert code == 3 and out == "" and "--nmax" in err


def test_datasets_command(capsys):
    code, out, _ = run_cli(["datasets", "--format", "csv"], capsys)
    assert code == 0
    assert "triangle_triple_count,76" in out.replace('"', "")


def test_refine_pair_command(capsys):
    code, out, _ = run_cli(
        ["refine-pair", "--kind", "gamma5", "--k", "31", "--s", "3"], capsys
    )
    assert code == 0
    assert "result=120" in out and "diverge" in out


def test_refine_pair_on_exceptional_pair_names_method_a(capsys):
    code, out, err = run_cli(
        ["refine-pair", "--kind", "gamma4", "--k", "13", "--s", "3"], capsys
    )
    assert code == 3 and out == "" and "Traceback" not in err
    assert "(13, 3) is an exceptional pair" in err
    assert "Method B does not apply" in err
    assert "Method A (pairs.exceptional_bound)" in err


def parse_pair_table(text: str) -> list[dict]:
    """Parse the machine-readable pair report back into dictionaries."""
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = {}
        for item in line.split("|"):
            key, _, value = item.partition("=")
            if key in ("k", "s", "field_degree", "bound_KF", "bound_K", "final_bound"):
                rec[key] = int(value)
            elif key in ("refined_KF", "published_bound_KF", "published_bound_K"):
                rec[key] = int(value) if value else None
            elif key == "coefficient":
                rec[key] = float(value)
            elif key == "intermediates_match":
                rec[key] = None if not value else value == "true"
            else:
                rec[key] = value
        out.append(rec)
    return out


def test_search_pairs_command(tmp_path, capsys):
    pairs_path = tmp_path / "pairs.txt"
    code, out, _ = run_cli(
        ["search-pairs", "--kind", "gamma5", "--kmax", "600",
         "--pairs-out", str(pairs_path)],
        capsys,
    )
    assert code == 0
    text = pairs_path.read_text()
    lines = text.splitlines()
    assert any("k=31|s=3" in line for line in lines)
    records = parse_pair_table(text)
    by_pair = {(r["k"], r["s"]): r for r in records}
    assert by_pair[(31, 3)]["final_bound"] == 120
    assert by_pair[(31, 3)]["refined_KF"] == 8
    assert by_pair[(23, 3)]["bound_K"] == 3091
    assert "tail certificate" not in out


def test_search_pairs_prints_tail_certificate(capsys):
    code, out, _ = run_cli(
        ["search-pairs", "--kind", "gamma4", "--kmax", "10000000", "--format", "json"],
        capsys,
    )
    assert code == 0
    records = {r["case"]: r for s in json.loads(out)["sections"] for r in s["records"]}
    tail = records["tail certificate (k > 4096)"]
    assert tail["result"] == "void"
    assert set(tail["inputs"]) == {"min_slack"} and tail["inputs"]["min_slack"]["exact"] == "341"
    assert records["survivors"]["result"] == 265
    assert json.loads(out)["title"] == "pair search gamma4, all k"
    code, out, _ = run_cli(["search-pairs", "--kind", "gamma4", "--kmax", "2000"], capsys)
    assert code == 0 and out.startswith("pair search gamma4, k <= 2000")
    assert "tail certificate" not in out


def test_reproduce_all_is_the_same_for_every_kmax_from_4096():
    # the tail covers every k > 4096, so --kmax above it only caps the scan
    from groundbound.reproduce import reproduce_all

    text = reproduce_all(4096).render("text")
    assert text == reproduce_all(10**7).render("text")
    assert "surviving non-exceptional pairs (all k)" in text


def test_fekete_command(capsys):
    code, out, _ = run_cli(
        ["fekete", "--field", "Q", "--degree", "2", "--interval=-1/2,1/2"],
        capsys,
    )
    assert code == 0 and "certified" in out
    code, out, _ = run_cli(
        ["fekete", "--field", "sqrt5", "--degree", "2",
         "--interval=-1/4,1/4", "--interval=-1/4,1/4"],
        capsys,
    )
    assert code == 0 and out.count("certified") == 2
    # wrong interval multiplicity for the field
    code, out, err = run_cli(
        ["fekete", "--field", "sqrt5", "--degree", "2", "--interval=-1/4,1/4"],
        capsys,
    )
    assert code == 3


def test_graph_family_g5_needs_range(capsys):
    code, out, err = run_cli(["graph-family", "--family", "g5"], capsys)
    assert code == 3
    code, out, _ = run_cli(
        ["graph-family", "--family", "g5", "--kmin", "3", "--kmax-family", "5"],
        capsys,
    )
    assert code == 0 and "family maximum" in out


def test_usage_error_exit_code(capsys):
    code, out, err = run_cli(["bound-solve", "--M", "1"], capsys)
    assert code == 3
    code, out, err = run_cli(["graph-case", "--family", "g9"], capsys)
    assert code == 3


@pytest.mark.parametrize("args", [
    ["datasets", "--out"],
    ["graph-family", "--family", "g2", "--case-csv"],
    ["search-pairs", "--kind", "gamma5", "--kmax", "31", "--pairs-out"],
])
def test_unwritable_output_path_is_a_usage_error(args, tmp_path, monkeypatch, capsys):
    from groundbound import graphs, pairs, reproduce

    def work(*args, **kwargs):
        raise AssertionError("the work started before the output path was checked")

    for module, name in ((reproduce, "dataset_records"), (graphs, "family_bound"),
                         (pairs, "search")):
        monkeypatch.setattr(module, name, work)
    missing = tmp_path / "no-such-dir" / "out.txt"
    code, out, err = run_cli(args + [str(missing)], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_output_path_checked_without_truncation(tmp_path, capsys):
    # the early check opens the path for appending; a run that fails later
    # leaves an existing report as it was
    out = tmp_path / "report.txt"
    out.write_text("earlier report\n")
    code, _, _ = run_cli(["bound-solve", "--M", "1", "--B", "1", "--R", "1/",
                          "--S", "2", "--out", str(out)], capsys)
    assert code == 3 and out.read_text() == "earlier report\n"


@pytest.mark.parametrize("expr", ["(" * 300 + "2" + ")" * 300, "+".join(["1"] * 400),
                                  "-" * 1000 + "2"], ids=("parentheses", "sum", "negations"))
def test_deep_expression_is_a_usage_error(expr, capsys):
    code, out, err = run_cli(["bound-solve", "--M", "1", "--B", "1", "--R", "1/2",
                              f"--S={expr}"], capsys)
    assert code == 3 and out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and "error:" in err


def test_syntax_warning_is_one_usage_error_line():
    # Python warns about "2in" (a number run into a keyword) while parsing
    proc = subprocess.run(
        [sys.executable, "-m", "groundbound", "bound-solve", "--M", "1", "--B", "1",
         "--R", "1/2", "--S", "1 + 2in 3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("usage error:") and len(proc.stderr.splitlines()) == 1


def test_inadmissible_variant_names_the_admissible_ones(capsys):
    code, out, err = run_cli(["graph-case", "--family", "g3", "--s", "2", "--k", "3",
                              "--r", "3", "--variant", "u_tilde"], capsys)
    assert code == 3 and out == ""
    assert err == "error: variant u_tilde undefined for Gamma3(s=2,k=3,r=3); " \
                  "admissible: u, u_squared\n"


def test_undecidable_exit_code(capsys):
    # exact tie at N = 5: 5 ln 2 - ln 12 equals ln(8/3); the enclosures
    # never separate, so the solver reports UNDECIDED at the cap
    code, out, err = run_cli(
        ["bound-solve", "--M", "1", "--B", "1", "--R", "1/2", "--S", "8/3",
         "--precision-cap", "512"],
        capsys,
    )
    assert code == 2
    assert "undecidable" in err.lower()


def test_solve_limit_is_undecidable_without_naming_the_cap(capsys):
    # every probe settles at 64 bits, but ln(1/R) ~ 10^-30 needs N beyond
    # the search limit: exit 2, naming N and not the precision cap
    code, out, err = run_cli(
        ["bound-solve", "--M", "1", "--B", "1", "--R", "1 - 10^(-30)", "--S", "3"], capsys)
    assert code == 2 and out == ""
    assert err == "undecidable: no solution found below N = 1000000\n"


@pytest.mark.parametrize("s", ["exp(10^30)", "10^100000000000000000000", "exp(exp(exp(10)))",
                               "exp(10^100000000000000000000)"])
def test_huge_magnitudes_are_undecidable(s, capsys):
    # ln of a value with a huge binary exponent is bounded without shifting
    # an integer by that exponent; the first two need N beyond the search
    # limit, and exp of an argument far wider than 2^bits never settles
    # (nor is 10^(10^20) computed exactly)
    code, out, err = run_cli(["bound-solve", "--M", "1", "--B", "1", "--R", "1/2", "--S", s],
                             capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("undecidable: ")


@pytest.mark.parametrize("s, least_n", [("10^100000", 332213), ("10^1000", 3335),
                                        ("(1/7)^(-3000)", 8437)])
def test_large_s_gives_the_least_n(s, least_n, capsys):
    code, out, _ = run_cli(["bound-solve", "--M", "1", "--B", "1", "--R", "1/2", "--S", s],
                           capsys)
    assert code == 0 and f"result={least_n}\n" in out


def test_huge_values_print_with_their_decimal_exponent(capsys):
    # the solve succeeds at N = 1; R = 10^(-10^20) and S = exp(10^20) have
    # no decimal that fits in memory, so each prints scaled by a power of 10
    code, out, err = run_cli(
        ["bound-solve", "--M", "1", "--B", "1", "--R", "10^(-100000000000000000000)",
         "--S", "exp(10^20)"], capsys)
    assert code == 0 and err == "" and "result=1" in out
    assert "R = 1.00000000000e-100000000000000000000  (" in out
    # exp(10^20) = 10^(10^20 / ln 10), 10^20 / ln 10 = 43429448190325182765.11...
    assert "S = 1.29685640608e+43429448190325182765  (" in out


def test_exact_power_of_a_large_base_is_left_to_the_enclosures():
    # (10^1000)^60000 has about 2 * 10^8 bits: the exact path gives it up,
    # and the enclosures of the difference straddle 0 at every precision
    proc = subprocess.run(
        [sys.executable, "-m", "groundbound", "bound-solve", "--M", "1", "--B", "1",
         "--R", "1/2", "--S", "1 + sqrt((10^1000)^60000 - (10^1000)^60000)"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("undecidable: ")


def test_graph_case_of_degree_504_finishes():
    # F = Q(cos 2pi/1009) has degree 504: N(W) is one integer resultant with
    # psi_1009, where the product of 504 conjugates ran for minutes
    proc = subprocess.run(
        [sys.executable, "-m", "groundbound", "graph-case", "--family", "g5", "--s", "3",
         "--k", "1009"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0 and "Gamma5(s=3,k=1009)" in proc.stdout


def test_precision_cap_only_on_bound_solve(capsys):
    code, out, _ = run_cli(
        ["bound-solve", "--M", "1", "--B", "1", "--R", "1/sqrt(2)", "--S", "16*e",
         "--precision-cap", "128"],
        capsys,
    )
    assert code == 0 and "result=22" in out
    for args in (["datasets"], ["polytope"], ["reproduce-all", "--kmax", "100"]):
        code, _, err = run_cli([*args, "--precision-cap", "512"], capsys)
        assert code == 3 and "--precision-cap" in err


# a valid invocation of each subcommand; with an unknown flag appended,
# parsing fails before anything runs
SUBCOMMANDS = (
    ["bound-solve", "--M", "1", "--B", "1", "--R", "1/2", "--S", "2"],
    ["fekete", "--degree", "2", "--interval", "0,1"],
    ["graph-case", "--family", "g2", "--s", "3", "--k", "3", "--p", "3"],
    ["graph-family", "--family", "g1"],
    ["search-pairs", "--kind", "gamma4", "--kmax", "100"],
    ["refine-pair", "--kind", "gamma5", "--k", "31", "--s", "3"],
    ["polytope"],
    ["datasets"],
    ["reproduce-all", "--kmax", "100"],
)


def test_jobs_is_a_usage_error(capsys):
    for args in SUBCOMMANDS:
        code, _, err = run_cli([*args, "--jobs", "2"], capsys)
        assert code == 3 and "--jobs" in err, args


def test_verbose_only_on_polytope(capsys):
    code, out, _ = run_cli(["polytope", "--verbose"], capsys)
    assert code == 0
    assert "counting-argument intermediates" in out and "counting chain at n=10" in out
    code, out, _ = run_cli(["polytope"], capsys)
    assert code == 0 and "counting chain" not in out
    for args in SUBCOMMANDS:
        if args[0] != "polytope":
            code, _, err = run_cli([*args, "--verbose"], capsys)
            assert code == 3 and "--verbose" in err, args


def test_precision_cap_bounds_inconclusive_evaluations(capsys):
    args = ["bound-solve", "--M", "1", "--B", "1", "--R", "1/2", "--S", NEAR_ZERO_S]
    code, _, err = run_cli([*args, "--precision-cap", "64"], capsys)
    assert code == 2 and "undecidable" in err.lower()
    code, out, _ = run_cli(args, capsys)
    assert code == 0


BAD_SOLVE = ["bound-solve", "--M", "1", "--B", "1", "--S", "2"]
SOLVE_R_HALF = ["bound-solve", "--M", "1", "--R", "1/2"]
# the reason a usage error must name, where the command line alone does not
# show it: an explicit 0 is a k bound, not a request for the default, and
# evaluation starts at 64 bits, so a smaller cap could decide nothing
USAGE_ERROR_REASON = {
    ("graph-family", "--family", "g5", "--kmin", "3", "--kmax-family", "0"):
        "no Gamma5 case in the k range",
    ("graph-family", "--family", "g4", "--kmin", "0", "--kmax-family", "3"): ">= 2",
    (*BAD_SOLVE, "--R", "1/2", "--precision-cap", "0"): "precision cap 0",
    (*BAD_SOLVE, "--R", "1/2", "--precision-cap", "63"): "precision cap 63",
    (*BAD_SOLVE, "--R", "0"): "R must be > 0",
    (*SOLVE_R_HALF, "--B", "0", "--S", "2"): "B must be > 0",
    (*SOLVE_R_HALF, "--B", "1", "--S", "0"): "S must be > 0",
    (*SOLVE_R_HALF, "--B", "1", "--S", "-5"): "S must be > 0",
}


@pytest.mark.parametrize("args", [
    [*BAD_SOLVE, "--R", "1/"],
    [*BAD_SOLVE, "--R", "sqrt(2"],
    [*BAD_SOLVE, "--R", "2^"],
    [*BAD_SOLVE, "--R", "2^(1/0)"],
    [*BAD_SOLVE, "--R", "1.2.3"],
    [*BAD_SOLVE, "--R", "1/2", "--m", "0"],
    [*BAD_SOLVE, "--R", "1/2", "--precision-cap", "0"],
    [*BAD_SOLVE, "--R", "1/2", "--precision-cap", "63"],
    [*BAD_SOLVE, "--R", "0"],
    [*SOLVE_R_HALF, "--B", "0", "--S", "2"],
    [*SOLVE_R_HALF, "--B", "1", "--S", "0"],
    [*SOLVE_R_HALF, "--B", "1", "--S", "-5"],
    ["bound-solve", "--M", "0", "--B", "1", "--R", "1/2", "--S", "2"],
    ["graph-case", "--family", "g1", "--s", "3", "--k", "3", "--r", "3", "--p", "3", "--m", "0"],
    ["graph-case", "--family", "g5", "--s", "3"],
    ["graph-case", "--family", "g5", "--s", "3", "--k", "3", "--p", "4"],
    ["graph-family", "--family", "g4", "--kmin", "5", "--kmax-family", "3"],
    ["graph-family", "--family", "g1", "--kmin", "5", "--kmax-family", "5"],
    ["graph-family", "--family", "g2", "--kmin", "5", "--kmax-family", "5"],
    ["graph-family", "--family", "g3", "--kmin", "5", "--kmax-family", "5"],
    ["graph-family", "--family", "g5", "--kmin", "3", "--kmax-family", "0"],
    ["graph-family", "--family", "g4", "--kmin", "0", "--kmax-family", "3"],
    ["reproduce-all", "--kmax", "5"],
    ["search-pairs", "--kind", "gamma4", "--kmax", "10"],
    ["refine-pair", "--kind", "gamma4", "--k", "5", "--s", "3"],
    ["fekete", "--degree", "2", "--interval=1,0"],
    ["fekete", "--degree", "2", "--interval=0,0"],
    ["fekete", "--degree", "2", "--interval=1"],
    ["fekete", "--degree", "2", "--interval=a,b"],
    ["fekete", "--degree", "2", "--interval=1/0,1"],
    ["fekete", "--degree", "-1", "--interval=0,1"],
], ids=lambda args: " ".join(args))
def test_bad_input_is_a_usage_error(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 3 and "Traceback" not in err
    assert USAGE_ERROR_REASON.get(tuple(args), "") in err


def test_python_m_groundbound_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "groundbound", "bound-solve", "--M", "1", "--B", "1",
         "--R", "1/sqrt(2)", "--S", "16*e"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "result=22" in proc.stdout


def test_reproduce_all_rejects_small_kmax_before_any_section(monkeypatch, capsys):
    import groundbound.reproduce as reproduce

    def family_bound(*args, **kwargs):
        raise AssertionError("a report section was built before the k_max check")

    monkeypatch.setattr(reproduce, "family_bound", family_bound)
    code, _, err = run_cli(["reproduce-all", "--kmax", "5"], capsys)
    assert code == 3 and "k_max" in err


def test_invalid_expression(capsys):
    code, out, err = run_cli(
        ["bound-solve", "--M", "1", "--B", "1", "--R", "1/$", "--S", "16*e"],
        capsys,
    )
    assert code == 3


# sha256 of the `reproduce-all --kmax 2000` reports (written with --out);
# an evaluator change that moves one printed digit changes them
REPRODUCE_2000_SHA256 = {
    "text": "c6dba622f0221f4351970bcff04372ce9696b761f4bdd287d51cf5d5a7d6056d",
    "json": "d966e674a310f97d5445ca248d996c192554402dad0b35d0ef276909282b8430",
}


# sha256 of the `reproduce-all --kmax 10000000` reports, the full run
REPRODUCE_FULL_SHA256 = {
    "text": "c93dde166d2e86cd4b2ed52778d1d811742250099d7321313db6acc2d7b3fee9",
    "json": "f15135c0613025a394e8e5eabbc8051d99fb4bb2b67caee3a84b8a5d3acca96b",
}


def test_reproduce_all_full_report_pinned():
    from groundbound.reproduce import reproduce_all

    report = reproduce_all(10**7)
    for fmt, digest in REPRODUCE_FULL_SHA256.items():
        assert hashlib.sha256(report.render(fmt).encode()).hexdigest() == digest, fmt


def test_reproduce_all_small_deterministic(tmp_path):
    # run via subprocess to exercise the entry point end to end; every fresh
    # run must reproduce the pinned bytes of both formats
    reports = {}
    for fmt, digest in REPRODUCE_2000_SHA256.items():
        out = tmp_path / f"report.{fmt}"
        proc = subprocess.run(
            [sys.executable, "-m", "groundbound.cli", "reproduce-all",
             "--kmax", "2000", "--format", fmt, "--out", str(out)],
            capture_output=True, text=True, timeout=900,
        )
        assert proc.returncode == 1  # documented divergences are reported
        reports[fmt] = out.read_bytes()
        assert hashlib.sha256(reports[fmt]).hexdigest() == digest, fmt
    text = reports["text"].decode()
    assert "degree bound N(14)" in text
    assert text.count("MISMATCH") == 3


def test_reproduce_all_runs_without_numpy(tmp_path):
    # numpy is not a dependency: with its import blocked, the run still
    # writes the pinned text report
    out = tmp_path / "report.text"
    code = ("import sys; sys.modules['numpy'] = None; from groundbound.cli import main; "
            "sys.exit(main(['reproduce-all', '--kmax', '2000', '--format', 'text', "
            f"'--out', {str(out)!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 1, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPRODUCE_2000_SHA256["text"]


# sha256 of `graph-family` text reports (written with --out): the per-case
# rows of every family table, including the Gamma5 rows that
# `reproduce-all` does not print
GRAPH_FAMILY_SHA256 = {
    ("g1",): "fb7c0a2ad9a190f810b4e2e75aa26df5d68dac46fa651af8f92fc9de4162c37d",
    ("g2",): "723a1455dbb6d51a54fe280668af73abf7781f54e7d663fe6eee3f575fa871b5",
    ("g3",): "99317dcf8f54d2f64a4032325ad56d602c424583c51c976f15d374efe3bf4346",
    ("g4",): "7fc3ece664dcb2a2bc899cf82bbff0c5e497e54b82d1b69ff7c4aad9eae05471",
    ("g5", "--kmin", "3", "--kmax-family", "8"):
        "bf0f23213c6cc2f4a5628d00d35d5f1a23d860004e34fda3576ed00416f0f71e",
}


@pytest.mark.parametrize("args", list(GRAPH_FAMILY_SHA256), ids=lambda a: a[0])
def test_graph_family_reports_pinned(args, tmp_path, capsys):
    out = tmp_path / "family.txt"
    code = main(["graph-family", "--family", *args, "--out", str(out)])
    capsys.readouterr()
    assert code == (1 if args[0] == "g3" else 0)  # G3 carries the documented divergences
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRAPH_FAMILY_SHA256[args]


# sha256 of the `graph-family --case-csv` tables: B, R and S rendered as
# the reports render them (`report.render_value`)
CASE_CSV_SHA256 = {
    ("g1",): "c427f6e5011af8925b6dff583cc84f3bc7a1d73e1c54b2a06d728bcb30607eee",
    ("g2",): "3259ee9bc43e3f8cbb847ae941c22e0b16ed5ae470eb7d81ddc7609ae7704889",
    ("g3",): "23f2476d4dbc6b75b596620f2799d240ede18a331eb2c1177833a2fa2aa2671c",
    ("g4",): "74ae79a784cb24ee715c75b91e71e62b1355e3e95801c35d8d2b67966fc3b990",
    ("g5", "--kmin", "3", "--kmax-family", "8"):
        "53e6293bb15a16ffd3be3ebeb9b22005e19b9166963be5385458431408b691ea",
}


@pytest.mark.parametrize("args", list(CASE_CSV_SHA256), ids=lambda a: a[0])
def test_graph_family_case_csv_pinned(args, tmp_path, capsys):
    out = tmp_path / "cases.csv"
    main(["graph-family", "--family", *args, "--case-csv", str(out)])
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CASE_CSV_SHA256[args]


def test_cli_import_is_light():
    # every pipeline is imported by the subcommand that runs it
    code = ("import sys, groundbound.cli; "
            "print(sorted(m for m in ('numpy', 'groundbound.pairs') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_no_mpmath_at_run_time(tmp_path):
    # mpmath is the tests' oracle only: importing the CLI and running
    # `reproduce-all --kmax 2000` and the README's `fekete` and
    # `bound-solve` examples leave it out of sys.modules
    commands = [["reproduce-all", "--kmax", "2000", "--out", str(tmp_path / "report.txt")]]
    commands += [argv for argv, _ in _readme_cli_lines() if argv[0] in ("fekete", "bound-solve")]
    assert len(commands) == 3
    code = (
        "import contextlib, io, json, sys\n"
        "import groundbound.cli\n"
        "seen = ['mpmath' in sys.modules]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        groundbound.cli.main(argv)\n"
        "    seen.append('mpmath' in sys.modules)\n"
        "print(seen)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], capture_output=True,
                          text=True, timeout=300, env=env, check=True)
    assert proc.stdout.strip() == "[False, False, False, False]"


def test_no_dataclasses_or_inspect_at_run_time(tmp_path):
    # the value classes are plain slotted classes (`frozen.Frozen`), so a
    # fresh `reproduce-all` imports neither `dataclasses` nor `inspect`
    code = (
        "import sys\n"
        "import groundbound.cli\n"
        "code = groundbound.cli.main(sys.argv[1:])\n"
        "print(code, sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    argv = ["reproduce-all", "--kmax", "2000", "--out", str(tmp_path / "report.txt")]
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, timeout=300, env=env, check=True)
    assert proc.stdout.strip() == "1 []"


def _readme_cli_lines():
    """(argv, expected result or None) for each command of the README's CLI block."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        if line.startswith("groundbound "):
            command, _, comment = line.partition("#")
            stated = re.search(r"\d+", comment)
            lines.append((shlex.split(command)[1:], stated and int(stated.group())))
    return lines


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    lines = _readme_cli_lines()
    assert len(lines) == 8
    monkeypatch.chdir(tmp_path)
    for argv, stated in lines:
        code, out, err = run_cli(argv, capsys)
        assert code == (1 if argv[0] == "reproduce-all" else 0), (argv, err)
        if stated is not None:
            assert f"result={stated}" in out, argv
    assert [stated for _, stated in lines if stated is not None] == [22, 120]
