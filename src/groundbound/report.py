"""Deterministic report records and renderers (text / json / csv).

Every numeric cell is either an exact integer/rational string or a
fixed-precision decimal computed from a certified enclosure midpoint at a
fixed bit count, so byte-identical output across runs is a property of
the data, not of formatting luck.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .balls import Expr, ball_str
from .frozen import Frozen, set_field


def render_value(x, decimals: dict) -> dict:
    """{'decimal': ..., 'exact': ...} for an exact or expression value.
    `decimals` maps each exact text already rendered to its decimal; an
    exact text names one value, so one render evaluates each value once."""
    if isinstance(x, bool):
        return {"decimal": str(x).lower(), "exact": str(x).lower()}
    if isinstance(x, int):
        return {"decimal": str(x), "exact": str(x)}
    if isinstance(x, (Fraction, Expr)):
        exact = str(x)
        if exact not in decimals:
            decimals[exact] = ball_str(x)
        return {"decimal": decimals[exact], "exact": exact}
    if x is None:
        return {"decimal": "", "exact": ""}
    return {"decimal": str(x), "exact": str(x)}


class Record(Frozen):
    """One report line: a pipeline result with its provenance."""

    __slots__ = ("pipeline", "case", "inputs", "result", "paper_expected", "match", "note")

    def __init__(self, pipeline: str, case: str, inputs: dict, result: int | str | None,
                 paper_expected: int | None, match: bool | None, note: str = ""):
        set_field(self, "pipeline", pipeline)
        set_field(self, "case", case)
        set_field(self, "inputs", inputs)
        set_field(self, "result", result)
        set_field(self, "paper_expected", paper_expected)
        set_field(self, "match", match)
        set_field(self, "note", note)

    def to_json_dict(self, decimals: dict) -> dict:
        return {
            "pipeline": self.pipeline,
            "case": self.case,
            "inputs": {k: render_value(v, decimals) for k, v in sorted(self.inputs.items())},
            "result": self.result,
            "paper_expected": self.paper_expected,
            "match": self.match,
            "note": self.note,
        }


class Report:
    __slots__ = ("title", "records", "sections")

    def __init__(self, title: str):
        self.title = title
        self.records = []
        self.sections = []  # (heading, [Record])

    def add_section(self, heading: str, records) -> None:
        records = list(records)
        self.sections.append((heading, records))
        self.records.extend(records)

    @property
    def mismatch_count(self) -> int:
        return sum(1 for r in self.records if r.match is False)

    # -- renderers ---------------------------------------------------------

    def to_text(self, decimals: dict) -> str:
        out = [self.title, "=" * len(self.title)]
        for heading, records in self.sections:
            out.append("")
            out.append(heading)
            out.append("-" * len(heading))
            for r in records:
                status = {True: "ok", False: "MISMATCH", None: "--"}[r.match]
                expected = "" if r.paper_expected is None else f" expected={r.paper_expected}"
                line = f"[{status:>8}] {r.pipeline:<14} {r.case:<34} result={r.result}{expected}"
                out.append(line)
                if r.note:
                    out.append(f"           note: {r.note}")
                for key in sorted(r.inputs):
                    val = render_value(r.inputs[key], decimals)
                    out.append(f"           {key} = {val['decimal']}  ({val['exact']})")
        out.append("")
        out.append(f"mismatches: {self.mismatch_count}")
        return "\n".join(out) + "\n"

    def to_json(self, decimals: dict) -> str:
        payload = {
            "title": self.title,
            "sections": [
                {"heading": heading, "records": [r.to_json_dict(decimals) for r in records]}
                for heading, records in self.sections
            ],
            "mismatches": self.mismatch_count,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_csv(self, decimals: dict) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["section", "pipeline", "case", "result",
                         "paper_expected", "match", "note", "inputs"])
        for heading, records in self.sections:
            for r in records:
                inputs = ";".join(
                    f"{k}={render_value(v, decimals)['decimal']}" for k, v in sorted(r.inputs.items())
                )
                writer.writerow([heading, r.pipeline, r.case, r.result,
                                 "" if r.paper_expected is None else r.paper_expected,
                                 "" if r.match is None else str(r.match).lower(),
                                 r.note, inputs])
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        """The report as text, json or csv; the decimals of its values are
        memoized for this one call (`render_value`)."""
        renderers = {"text": self.to_text, "json": self.to_json, "csv": self.to_csv}
        if fmt not in renderers:
            raise ValueError(f"unknown format {fmt!r}")
        return renderers[fmt]({})


def case_table_csv(rows) -> str:
    """CSV mirroring the per-case listings: one row per case; B, R and S
    are rendered by `render_value`, each distinct value once."""
    decimals = {}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "s", "k", "r", "p", "variant", "m", "M",
                     "B", "R", "S", "N", "bound", "paper_bound", "match"])
    for row in rows:
        case = row.case
        prob = row.problem
        b, r, s = ("", "", "") if prob is None else [
            render_value(x, decimals)["decimal"]
            for x in (prob.b_disc_root, prob.r_ratio, prob.s_factor)]
        writer.writerow([
            case.family.value,
            "" if case.s is None else case.s,
            "" if case.k is None else case.k,
            "" if case.r is None else case.r,
            "" if case.p is None else case.p,
            row.variant.value if row.variant else "",
            row.m,
            "" if prob is None else prob.m_field_degree,
            b, r, s,
            "" if row.least_n is None else row.least_n,
            row.bound,
            "" if row.published_bound is None else row.published_bound,
            "" if row.match is None else str(row.match).lower(),
        ])
    return buf.getvalue()


def pair_table_lines(reports) -> list[str]:
    """Machine-readable search report: one record per surviving pair."""
    out = []
    for r in reports:
        fields = [
            f"kind={r.kind.value}", f"k={r.k}", f"s={r.s}",
            f"coefficient={r.coefficient:.12e}", f"field_degree={r.field_degree}",
            f"bound_KF={r.bound_kf}", f"bound_K={r.bound_k}",
            f"refined_KF={'' if r.refined_kf is None else r.refined_kf}",
            f"final_bound={r.final_bound}",
            f"published_bound_KF={'' if r.published_bound_kf is None else r.published_bound_kf}",
            f"published_bound_K={'' if r.published_bound_k is None else r.published_bound_k}",
            f"intermediates_match={'' if r.intermediates_match is None else str(r.intermediates_match).lower()}",
        ]
        out.append("|".join(fields))
    return out
