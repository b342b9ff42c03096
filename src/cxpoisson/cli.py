"""Batch command-line front end.

Subcommands: check, invariants, dirac, normal-form.  Each runs the file's
checks of its kind through one runner (_run), which selects them under
--check, times each and records it; a subcommand supplies only its points and
the body of one check, which gets the arguments parse_problem fitted to the
check's signature (ProblemFile.fits, read as they are, not fitted again).
A jacobi check decides on [pi, pi] alone; the pair conditions and the PDE
residuals, equivalent to it, run only to fill a failing witness.  Exit
status 0 when every record passes, 1 when any record fails, 2 on refusal or
parse error.  Witnesses are recorded as library values and turned
into text in one place (_text): a dirac step records its Subspace or
Lagrangian, whose canonical integer rows are written straight to entry text
by the formatter GaussScalar prints with, so no scalar is made only to be
printed.  The machine format is one JSON record per line with a fixed key
order; the human format is derived from the same records.
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
    Subspace,
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
from .normal_form import BundleChart, splitting_check
from .pointwise import _theorem_7_18, gcs_matrix, graph_at, grid_points, profile_sample
from .problem import (BLOCK_KINDS, CHECK_KINDS, ProblemFile, ProblemParseError, _coords,
                      parse_problem)
from .scalars import _gauss_str, _ratio_str


def _text(value):
    """value with each library value in it (Poly, field, Subspace, Fraction,
    GaussScalar) turned into its text; containers keep their type, and
    numbers, strings and None are kept as they are.  A Subspace is the list
    of its basis rows, each a list of entry texts, as its basis prints."""
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {k: _text(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_text, value))
    if isinstance(value, Subspace):
        return [_row_text(row) for row in value.rows]
    return _printed(str, value)


def _row_text(row: tuple) -> List[str]:
    """The entry texts of a canonical row, (re, im, d) or (ints, d), as its
    GaussScalars or Fractions print."""
    *parts, d = row
    fmt = _gauss_str if len(parts) == 2 else _ratio_str
    return [_printed(fmt, *entry, d) for entry in zip(*parts)]


def _printed(fmt, *args) -> str:
    """fmt(*args), or a note when an integer is past Python's digit limit on
    int -> str."""
    try:
        return fmt(*args)
    except ValueError:
        return f"<not printed: more than {sys.get_int_max_str_digits()} digits>"


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
                "witness": _text(witness),
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
            return "\n".join(json.dumps(r) for r in self.records)
        lines = []
        for r in self.records:
            # a refusal prints its reason where a witness goes
            verdict, _, reason = r["verdict"].partition("(")
            lines.append(f"[{verdict.upper():7s}] {r['check']} ({r['kind']}) "
                         f"{r['inputs']}  {r['time_ms']}ms")
            for note in (reason[:-1], r["witness"]):
                if note:
                    lines.append(f"          {note}")
        return "\n".join(lines)


# -- object builders -----------------------------------------------------------


# problem-file block kind -> field class; its degree is the number of
# indices per entry
_FIELD_CLASSES = {"bivector": MultiField, "vector": MultiField, "oneform": FormField}


def build_field(pf: ProblemFile, kind: str, name: str) -> GradedField:
    """The named bivector, vector or oneform block of pf as a field."""
    attr, degree = BLOCK_KINDS[kind]
    chart = pf.chart
    comps = {}
    for entry in getattr(pf, attr)[name]:
        # parse_problem kept the parsed coefficient; a hand-built file has none
        p = pf.polys.get(entry[-1])
        if p is None:
            p = parse_poly(entry[-1], chart)
        comps[tuple(i - 1 for i in entry[:-1])] = p
    return _FIELD_CLASSES[kind](chart, degree, comps)


def given_points(pf: ProblemFile, extra: Optional[str]) -> List[Dict[str, Fraction]]:
    """The file's point lines plus the --points entries."""
    chart = pf.chart
    pts = [dict(zip(chart.vars, vals)) for vals in pf.points.values()]
    if extra:
        for chunk in extra.split(";"):
            vals = _coords(
                chunk, chart.dim,
                lambda exc: ValueError(f"--points entry {chunk!r} is not a comma-separated "
                                       f"list of rationals: {exc}"),
                lambda n: ValueError(f"--points entry has {n} coords, chart has {chart.dim}"),
            )
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


# -- commands --------------------------------------------------------------------


def _run(pf: ProblemFile, args, kind: str, body) -> Report:
    """One timed record per check of kind that --check selects.  body(pi,
    rest) gives the verdict and witness on the check's bivector pi and its
    other arguments, blocks built: dirac's ops, normal_form's section.  A
    kind whose checks name just a bivector records the name, and a file with
    no check of such a kind gets one per bivector."""
    rep = Report()
    wanted = None if args.check is None else args.check.split(",")
    items = [(cid, cargs, pf.fits[cid]) for cid, ckind, cargs in pf.checks
             if ckind == kind and (wanted is None or cid in wanted)]
    if not items and wanted is None and CHECK_KINDS[kind] == ("bivector",):
        items = [(name, [name], [("bivector", name)]) for name in pf.bivectors]
    for cid, cargs, fitted in items:
        t0 = time.monotonic()
        pi, *rest = [build_field(pf, w, a) if w in BLOCK_KINDS else a for w, a in fitted]
        verdict, witness = body(ComplexBivector(pi), rest)
        rep.add(cid, kind, cargs if rest else cargs[0], verdict, witness, t0)
    return rep


def cmd_check(pf: ProblemFile, args) -> Report:
    def jacobi(pi, _):
        # pi is Poisson exactly when [pi, pi] = 0, so the other two routes,
        # equivalent to it, run only to fill a failing witness
        res = jacobi_residual(pi)
        if res.is_zero():
            return "pass", None
        pc1, pc2 = pair_conditions(pi)
        # the triple in the file's 1-based indices, and the part of the equation
        bad_pde = [(tuple(x + 1 for x in t), ("re", "im")[s - 1], r)
                   for t, s, r in jacobi_pde_residuals(pi) if not r.is_zero()]
        return "fail", {"jacobi_residual": res, "pair_conditions": [pc1, pc2],
                        "pde_residuals": bad_pde[:4]}

    return _run(pf, args, "jacobi", jacobi)


def cmd_invariants(pf: ProblemFile, args) -> Report:
    pts = collect_points(pf, args.points, args.grid_size)

    def invariants(pi, _):
        profs, summary = profile_sample(pi, pts)
        table = [
            {
                "point": dict(p.point),
                "dim_E": p.dim_E,
                "dim_Delta": p.dim_Delta,
                "dim_D": p.dim_D,
                "real_index": p.real_index,
                "order": p.dim_D,
            }
            for p in profs
        ]
        witness = {"summary": summary, "profiles": table}
        if all(p.real_index == 0 for p in profs):
            witness["gcs_matrix"], witness["gcs_sigma"] = gcs_matrix(pi, pts[0])
        return "pass", witness

    return _run(pf, args, "invariants", invariants)


# op of problem.DIRAC_OPS -> the map it applies to the complexified lagrangian,
# or None for indices, which reports on the current object, and theorem_7_18,
# which reports on gr pi wherever it sits in the pipeline.  Each map is the
# library function itself; conjugate fixes the kind of its transform.
_DIRAC_OPS = {
    "hat": hat, "check": lag_check, "tilde": tilde, "hat_cot": hat_cot, "check_cot": check_cot,
    "tilde_cot": tilde_cot, "conjugate": lambda L: transform("conjugate", None, L),
    "indices": None, "theorem_7_18": None,
}


def cmd_dirac(pf: ProblemFile, args) -> Report:
    # dirac runs at the given points, or at the first three grid points when
    # none are
    use_pts = given_points(pf, args.points) or collect_points(pf, None, min(args.grid_size, 3))

    def dirac(pi, ops):
        witness = []
        verdict = "pass"
        for pt in use_pts:
            gr = obj = graph_at(pi, pt)
            steps = []
            for op in ops:
                if op == "theorem_7_18":
                    ok = _theorem_7_18(gr)
                    steps.append({"op": op, "result": "pass" if ok else "fail"})
                    if not ok:
                        verdict = "fail"
                    continue
                obj = complexify_real(obj)
                if op == "indices":
                    steps.append({"op": op, "result": indices(obj).__dict__})
                else:
                    obj = _DIRAC_OPS[op](obj)
                    steps.append({"op": op, "basis": obj})
            witness.append({"point": dict(sorted(pt.items())), "steps": steps})
        return verdict, witness

    return _run(pf, args, "dirac", dirac)


def cmd_normal_form(pf: ProblemFile, args) -> Report:
    def normal_form(pi, section):
        bundle = BundleChart(*pf.bundle)
        # the grid is capped at ten points to bound the cost; no given point is dropped
        pts = collect_points(pf, args.points, min(args.grid_size, 10))
        srep = splitting_check(pi, bundle, section, pts)
        mrep = srep.mixed
        if not mrep.mixed:
            return ("refused(no mixed submanifold: "
                    f"pi2_annihilator_zero={mrep.pi2_annihilator_zero}, "
                    f"direct_sum_ok={mrep.direct_sum_ok})"), None
        if not srep.section_in_graph:
            return "refused(section is not in the graph of pi)", None
        witness = {
            "B": srep.B,
            "omega": srep.omega,
            "fiber_form_ok": srep.fiber_form_ok,
            "vanishes_on_N": srep.vanishes_on_N,
            "euler_linear_ok": srep.euler_linear_ok,
            "euler_higher_order_warning": srep.euler_higher_order_warning,
            "points": [{"point": dict(p), "match": ok} for p, ok in srep.point_results],
        }
        return "pass" if srep.passed else "fail", witness

    return _run(pf, args, "normal_form", normal_form)


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
        p.add_argument("--grid-size", type=_grid_size, default=20,
                       help="grid points to sample; the grid has 20 distinct points")
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
    if args.check is not None:
        kinds = {cid: ckind for cid, ckind, _ in pf.checks}
        ids = args.check.split(",")
        unknown = [cid for cid in ids if cid not in kinds]
        if unknown:
            print(f"error: --check names no check of the file: {', '.join(map(repr, unknown))}",
                  file=sys.stderr)
            return 2
        other = [f"{cid} is of kind {kinds[cid]}" for cid in ids
                 if kinds[cid] != _COMMAND_KINDS[args.command]]
        if other:
            print(f"error: --check names no check for {args.command}: {'; '.join(other)}",
                  file=sys.stderr)
            return 2

    try:
        # the names are looked up as main runs, so a name rebound on the module is called
        rep = {"check": cmd_check, "invariants": cmd_invariants, "dirac": cmd_dirac,
               "normal-form": cmd_normal_form}[args.command](pf, args)
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
