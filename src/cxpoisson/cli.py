"""Batch command-line front end.

Subcommands: check, invariants, dirac, normal-form.  Exit status 0 when every
record passes, 1 when any record fails, 2 on refusal or parse error.  The
machine format is one JSON record per line with a fixed key order; the human
format is derived from the same records.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .bivector import (
    ComplexBivector,
    jacobi_pde_residuals,
    jacobi_residual,
    pair_conditions,
)
from .fields import FormField, GradedField, MultiField
from .grammar import parse_poly
from .lagrangian import (
    check as lag_check,
    check_cot,
    complexify_real,
    hat,
    hat_cot,
    indices,
    tilde,
    tilde_cot,
    transform,
)
from .normal_form import (
    BundleChart,
    WeightZeroError,
    mixed_check,
    splitting_check,
)
from .pointwise import (
    gcs_matrix,
    graph_at,
    grid_points,
    profile_sample,
    theorem_7_18_check,
)
from .problem import ProblemFile, ProblemParseError, parse_problem


class Report:
    """Ordered collection of per-check records."""

    def __init__(self):
        self.records: List[Dict] = []

    def add(self, check_id: str, kind: str, inputs, verdict: str, witness, t0: float):
        assert verdict in ("pass", "fail") or verdict.startswith("refused")
        self.records.append(
            {
                "check": check_id,
                "kind": kind,
                "inputs": inputs,
                "verdict": verdict,
                "witness": witness,
                "time_ms": round((time.monotonic() - t0) * 1000, 3),
            }
        )

    def exit_code(self) -> int:
        if any(r["verdict"].startswith("refused") for r in self.records):
            return 2
        if any(r["verdict"] == "fail" for r in self.records):
            return 1
        return 0

    def render(self, fmt: str) -> str:
        if fmt == "machine":
            return "\n".join(json.dumps(r, default=str) for r in self.records)
        lines = []
        for r in self.records:
            lines.append(f"[{r['verdict'].upper():7s}] {r['check']} ({r['kind']}) "
                         f"{r['inputs']}  {r['time_ms']}ms")
            if r["witness"]:
                lines.append(f"          {r['witness']}")
        return "\n".join(lines)


# -- object builders -----------------------------------------------------------


# problem-file block kind -> (ProblemFile table, field class, degree)
_FIELD_KINDS = {
    "bivector": ("bivectors", MultiField, 2),
    "vector": ("vectors", MultiField, 1),
    "oneform": ("oneforms", FormField, 1),
}


def build_field(pf: ProblemFile, kind: str, name: str) -> GradedField:
    """The named bivector, vector or oneform block of pf as a field."""
    table, cls, degree = _FIELD_KINDS[kind]
    chart = pf.chart
    comps = {}
    for entry in getattr(pf, table)[name]:
        # parse_problem kept the parsed coefficient; a hand-built file has none
        p = pf.polys.get(entry[-1])
        if p is None:
            p = parse_poly(entry[-1], chart)
        comps[tuple(i - 1 for i in entry[:-1])] = p
    return cls(chart, degree, comps)


def given_points(pf: ProblemFile, extra: Optional[str]) -> List[Dict[str, Fraction]]:
    """The file's point lines plus the --points entries."""
    chart = pf.chart
    pts = [dict(zip(chart.vars, vals)) for vals in pf.points.values()]
    if extra:
        for chunk in extra.split(";"):
            try:
                vals = [Fraction(t) for t in chunk.split(",")]
            except ZeroDivisionError:
                raise ValueError(f"--points entry {chunk!r} has a zero denominator") from None
            except ValueError:
                raise ValueError(
                    f"--points entry {chunk!r} is not a comma-separated list of rationals"
                ) from None
            if len(vals) != chart.dim:
                raise ValueError(f"--points entry has {len(vals)} coords, chart has {chart.dim}")
            pts.append(dict(zip(chart.vars, vals)))
    return pts


def collect_points(pf: ProblemFile, extra: Optional[str], grid_size: int) -> List[Dict[str, Fraction]]:
    """The grid plus the given points; an empty set is refused."""
    pts = grid_points(pf.chart, grid_size) + given_points(pf, extra)
    if not pts:
        raise ValueError(
            "empty point set: --grid-size is 0 and there are no point lines or --points"
        )
    return pts


def _grid_size(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _selected(pf: ProblemFile, kind: str, only: Optional[str]):
    wanted = set(only.split(",")) if only else None
    for cid, ckind, args in pf.checks:
        if ckind != kind:
            continue
        if wanted and cid not in wanted:
            continue
        yield cid, args


# -- commands --------------------------------------------------------------------


def cmd_check(pf: ProblemFile, args) -> Report:
    rep = Report()
    items = list(_selected(pf, "jacobi", args.check))
    if not items and not args.check:
        items = [(name, [name]) for name in pf.bivectors]
    for cid, cargs in items:
        t0 = time.monotonic()
        name = cargs[0] if cargs else None
        if name not in pf.bivectors:
            rep.add(cid, "jacobi", name, "refused(unknown name)", None, t0)
            continue
        pi = ComplexBivector(build_field(pf, "bivector", name))
        res = jacobi_residual(pi)
        pc1, pc2 = pair_conditions(pi)
        pde = jacobi_pde_residuals(pi)
        bad_pde = [(ijk, s, str(p)) for ijk, s, p in pde if not p.is_zero()]
        ok = res.is_zero() and pc1.is_zero() and pc2.is_zero() and not bad_pde
        witness = None
        if not ok:
            witness = {
                "jacobi_residual": str(res),
                "pair_conditions": [str(pc1), str(pc2)],
                "pde_residuals": bad_pde[:4],
            }
        rep.add(cid, "jacobi", name, "pass" if ok else "fail", witness, t0)
    return rep


def cmd_invariants(pf: ProblemFile, args) -> Report:
    rep = Report()
    pts = collect_points(pf, args.points, args.grid_size)
    items = list(_selected(pf, "invariants", args.check))
    if not items and not args.check:
        items = [(name, [name]) for name in pf.bivectors]
    for cid, cargs in items:
        t0 = time.monotonic()
        name = cargs[0] if cargs else None
        if name not in pf.bivectors:
            rep.add(cid, "invariants", name, "refused(unknown name)", None, t0)
            continue
        pi = ComplexBivector(build_field(pf, "bivector", name))
        profs, summary = profile_sample(pi, pts)
        table = [
            {
                "point": {k: str(v) for k, v in p.point},
                "dim_E": p.dim_E,
                "dim_Delta": p.dim_Delta,
                "dim_D": p.dim_D,
                "real_index": p.real_index,
                "order": p.order,
            }
            for p in profs
        ]
        witness = {"summary": summary, "profiles": table}
        if all(p.real_index == 0 for p in profs):
            J, sigma = gcs_matrix(pi, pts[0])
            witness["gcs_matrix"] = [[str(x) for x in row] for row in J]
            witness["gcs_sigma"] = [[str(x) for x in row] for row in sigma]
        rep.add(cid, "invariants", name, "pass", witness, t0)
    return rep


_DIRAC_OPS = {
    "hat", "check", "tilde", "hat_cot", "check_cot", "tilde_cot",
    "conjugate", "indices", "theorem_7_18",
}


def cmd_dirac(pf: ProblemFile, args) -> Report:
    rep = Report()
    # dirac runs at the given points, or at three grid points when none are
    use_pts = given_points(pf, args.points) or collect_points(pf, None, args.grid_size)[:3]
    for cid, cargs in _selected(pf, "dirac", args.check):
        t0 = time.monotonic()
        if not cargs:
            rep.add(cid, "dirac", cargs, "refused(no bivector)", None, t0)
            continue
        name = cargs[0]
        ops = [a for a in cargs[1:] if a not in (":", "|")]
        bad = [op for op in ops if op not in _DIRAC_OPS]
        if name not in pf.bivectors or bad:
            rep.add(cid, "dirac", cargs, f"refused(bad pipeline {bad or name})", None, t0)
            continue
        pi = ComplexBivector(build_field(pf, "bivector", name))
        witness = []
        verdict = "pass"
        for pt in use_pts:
            obj = graph_at(pi, pt)
            steps = []
            for op in ops:
                if op == "theorem_7_18":
                    ok = theorem_7_18_check(pi, pt)
                    steps.append({"op": op, "result": "pass" if ok else "fail"})
                    if not ok:
                        verdict = "fail"
                    continue
                obj = complexify_real(obj)
                if op == "indices":
                    rec = indices(obj)
                    steps.append({"op": op, "result": rec.__dict__})
                    continue
                if op == "conjugate":
                    obj = transform("conjugate", None, obj)
                else:
                    fn = {"hat": hat, "check": lag_check, "hat_cot": hat_cot,
                          "check_cot": check_cot, "tilde": tilde,
                          "tilde_cot": tilde_cot}[op]
                    obj = fn(obj)
                steps.append({"op": op, "basis": [[str(x) for x in r] for r in obj.basis]})
            witness.append({"point": {k: str(v) for k, v in sorted(pt.items())},
                            "steps": steps})
        rep.add(cid, "dirac", cargs, verdict, witness, t0)
    return rep


def cmd_normal_form(pf: ProblemFile, args) -> Report:
    rep = Report()
    for cid, cargs in _selected(pf, "normal_form", args.check):
        t0 = time.monotonic()
        if pf.bundle is None:
            rep.add(cid, "normal_form", cargs, "refused(no bundle declared)", None, t0)
            continue
        tables = (pf.bivectors, pf.vectors, pf.oneforms, pf.oneforms)
        if len(cargs) != 4 or any(a not in t for a, t in zip(cargs, tables)):
            rep.add(cid, "normal_form", cargs,
                    "refused(need: bivector vector oneform oneform)", None, t0)
            continue
        bname, xname, x1name, x2name = cargs
        bundle = BundleChart(*pf.bundle)
        pi = ComplexBivector(build_field(pf, "bivector", bname))
        X = build_field(pf, "vector", xname)
        xi1 = build_field(pf, "oneform", x1name)
        xi2 = build_field(pf, "oneform", x2name)
        pts = collect_points(pf, args.points, args.grid_size)
        base_pts = [{v: p[v] for v in bundle.base_vars} for p in pts[:10]]
        mrep = mixed_check(pi, bundle, base_pts)
        if not mrep.mixed:
            rep.add(cid, "normal_form", cargs,
                    "refused(no mixed submanifold: "
                    f"pi2_annihilator_zero={mrep.pi2_annihilator_zero}, "
                    f"direct_sum_ok={mrep.direct_sum_ok})", None, t0)
            continue
        try:
            srep = splitting_check(pi, bundle, (X, xi1, xi2), pts[:10])
        except WeightZeroError as exc:
            rep.add(cid, "normal_form", cargs, f"refused(weight: {exc})", None, t0)
            continue
        if not srep.section_in_graph:
            rep.add(cid, "normal_form", cargs,
                    "refused(section is not in the graph of pi)", None, t0)
            continue
        witness = {
            "B": str(srep.B),
            "omega": str(srep.omega),
            "fiber_form_ok": srep.fiber_form_ok,
            "points": [
                {"point": {k: str(v) for k, v in p}, "match": ok}
                for p, ok in srep.point_results
            ],
        }
        rep.add(cid, "normal_form", cargs,
                "pass" if srep.passed else "fail", witness, t0)
    return rep


# -- entry point -------------------------------------------------------------------


# subcommand -> the check kind it runs
_COMMAND_KINDS = {
    "check": "jacobi", "invariants": "invariants", "dirac": "dirac",
    "normal-form": "normal_form",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cxpoisson",
        description="Exact checks for complex Poisson bivectors and Dirac structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMAND_KINDS:
        p = sub.add_parser(name)
        p.add_argument("file", help="problem file path")
        p.add_argument("--points", default=None,
                       help="extra points, e.g. '1/2,1,0;1,1,1'")
        p.add_argument("--grid-size", type=_grid_size, default=20)
        p.add_argument("--format", choices=("human", "machine"), default="human")
        p.add_argument("--check", default=None, help="comma-separated check ids")
    return parser


# built once: parse_args leaves the parser as it found it
_PARSER = _parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            pf = parse_problem(fh.read())
    except (OSError, ProblemParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.check:
        kinds = {cid: ckind for cid, ckind, _ in pf.checks}
        ids = args.check.split(",")
        unknown = [cid for cid in ids if cid not in kinds]
        if unknown:
            print(f"error: --check names no check of the file: {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        other = [f"{cid} is of kind {kinds[cid]}" for cid in ids
                 if kinds[cid] != _COMMAND_KINDS[args.command]]
        if other:
            print(f"error: --check names no check for {args.command}: {'; '.join(other)}",
                  file=sys.stderr)
            return 2

    try:
        if args.command == "check":
            rep = cmd_check(pf, args)
        elif args.command == "invariants":
            rep = cmd_invariants(pf, args)
        elif args.command == "dirac":
            rep = cmd_dirac(pf, args)
        else:
            rep = cmd_normal_form(pf, args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not rep.records:
        # nothing ran, so there is no verdict to report as a pass
        print(f"error: no check for {args.command} was selected", file=sys.stderr)
        return 2

    print(rep.render(args.format))
    return rep.exit_code()


if __name__ == "__main__":
    sys.exit(main())
