"""Problem-file format for the CLI.

Line-oriented text, '#' starts a comment.  Indices are 1-based in files.

    chart x y z
    bundle base: u v ; fiber: q p      # optional, for normal-form runs
    point p0 = 1/2, 1, 2
    bivector NB {
      1 2 = 1
      1 3 = i
      2 3 = y + i*(-1*y)               # any string in the polynomial grammar
    }
    form om {
      1 2 = 3
    }
    vector X {
      3 = q
    }
    oneform xi1 {
      4 = q
    }
    check c1 jacobi NB
    check c2 invariants NB
    check c3 dirac NB : tilde | indices
    check c4 normal_form NB X xi1 xi2

Coefficient strings are kept verbatim (they are validated against the chart
at parse time), so parse -> dumps -> parse is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .grammar import PolyParseError, parse_poly
from .poly import Chart


class ProblemParseError(ValueError):
    def __init__(self, lineno: int, msg: str):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


@dataclass
class ProblemFile:
    chart_vars: Tuple[str, ...]
    bundle: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]] = None
    points: Dict[str, Tuple[Fraction, ...]] = field(default_factory=dict)
    bivectors: Dict[str, List[Tuple[int, int, str]]] = field(default_factory=dict)
    forms: Dict[str, List[Tuple[int, int, str]]] = field(default_factory=dict)
    vectors: Dict[str, List[Tuple[int, str]]] = field(default_factory=dict)
    oneforms: Dict[str, List[Tuple[int, str]]] = field(default_factory=dict)
    checks: List[Tuple[str, str, List[str]]] = field(default_factory=list)
    # file line of each check, by check id; not part of the content
    check_lines: Dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def chart(self) -> Chart:
        return Chart(self.chart_vars)


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _parse_fraction(tok: str, lineno: int) -> Fraction:
    try:
        return Fraction(tok.strip())
    except (ValueError, ZeroDivisionError):
        raise ProblemParseError(lineno, f"bad rational {tok!r}") from None


def parse_problem(text: str) -> ProblemFile:
    lines = text.splitlines()
    pf: Optional[ProblemFile] = None
    i = 0
    nlines = len(lines)

    def need_chart(lineno):
        if pf is None:
            raise ProblemParseError(lineno, "chart must be declared first")
        return pf

    while i < nlines:
        raw = lines[i]
        lineno = i + 1
        i += 1
        line = _strip(raw)
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "chart":
            if pf is not None:
                raise ProblemParseError(lineno, "duplicate chart declaration")
            try:
                Chart(tuple(parts[1:]))
            except ValueError as exc:
                raise ProblemParseError(lineno, str(exc)) from None
            pf = ProblemFile(chart_vars=tuple(parts[1:]))
        elif kw == "bundle":
            p = need_chart(lineno)
            body = line[len("bundle"):].strip()
            try:
                base_part, fiber_part = body.split(";")
                base = tuple(base_part.split(":", 1)[1].split())
                fiber = tuple(fiber_part.split(":", 1)[1].split())
            except (ValueError, IndexError):
                raise ProblemParseError(
                    lineno, "expected: bundle base: <vars> ; fiber: <vars>"
                ) from None
            if base + fiber != p.chart_vars:
                raise ProblemParseError(
                    lineno, "bundle variables must equal the chart in order"
                )
            p.bundle = (base, fiber)
        elif kw == "point":
            p = need_chart(lineno)
            try:
                name, rest = line[len("point"):].split("=", 1)
            except ValueError:
                raise ProblemParseError(lineno, "expected: point NAME = v, v, ...") from None
            name = name.strip()
            vals = tuple(_parse_fraction(t, lineno) for t in rest.split(","))
            if len(vals) != len(p.chart_vars):
                raise ProblemParseError(
                    lineno, f"point {name!r} has {len(vals)} coordinates, "
                    f"chart has {len(p.chart_vars)}"
                )
            p.points[name] = vals
        elif kw in ("bivector", "form", "vector", "oneform"):
            p = need_chart(lineno)
            if len(parts) < 3 or parts[2] != "{":
                raise ProblemParseError(lineno, f"expected: {kw} NAME {{")
            name = parts[1]
            entries = []
            while True:
                if i >= nlines:
                    raise ProblemParseError(lineno, f"unterminated {kw} block {name!r}")
                raw2 = lines[i]
                lineno2 = i + 1
                i += 1
                line2 = _strip(raw2)
                if not line2:
                    continue
                if line2 == "}":
                    break
                try:
                    idx_part, coeff = line2.split("=", 1)
                except ValueError:
                    raise ProblemParseError(lineno2, "expected: INDEX... = coeff") from None
                idxs = idx_part.split()
                want = 2 if kw in ("bivector", "form") else 1
                if len(idxs) != want:
                    raise ProblemParseError(
                        lineno2, f"{kw} entries need {want} index(es)"
                    )
                try:
                    nums = [int(t) for t in idxs]
                except ValueError:
                    raise ProblemParseError(lineno2, "indices must be integers") from None
                dim = len(p.chart_vars)
                for v in nums:
                    if not 1 <= v <= dim:
                        raise ProblemParseError(lineno2, f"index {v} out of range 1..{dim}")
                if want == 2 and not nums[0] < nums[1]:
                    raise ProblemParseError(lineno2, "indices must satisfy i < j")
                coeff = coeff.strip()
                try:
                    parse_poly(coeff, p.chart)
                except PolyParseError as exc:
                    raise ProblemParseError(lineno2, f"bad coefficient: {exc}") from None
                entries.append(tuple(nums) + (coeff,))
            store = {
                "bivector": p.bivectors,
                "form": p.forms,
                "vector": p.vectors,
                "oneform": p.oneforms,
            }[kw]
            if name in store:
                raise ProblemParseError(lineno, f"duplicate {kw} name {name!r}")
            store[name] = entries
        elif kw == "check":
            p = need_chart(lineno)
            if len(parts) < 3:
                raise ProblemParseError(lineno, "expected: check ID KIND args...")
            cid, ckind = parts[1], parts[2]
            args = parts[3:]
            if any(c[0] == cid for c in p.checks):
                raise ProblemParseError(lineno, f"duplicate check id {cid!r}")
            p.checks.append((cid, ckind, args))
            p.check_lines[cid] = lineno
        else:
            raise ProblemParseError(lineno, f"unknown keyword {kw!r}")
    if pf is None:
        raise ProblemParseError(1, "empty problem file (no chart)")
    _validate_names(pf)
    return pf


def _validate_names(pf: ProblemFile):
    known = set(pf.bivectors) | set(pf.forms) | set(pf.vectors) | set(pf.oneforms)
    for cid, kind, args in pf.checks:
        for a in args:
            if a in ("|", ":"):
                continue
            if kind == "dirac" and a not in known:
                continue  # pipeline op names are validated at run time
            if kind in ("jacobi", "invariants", "normal_form") and a not in known:
                raise ProblemParseError(
                    pf.check_lines.get(cid, 0),
                    f"check {cid!r} references unknown name {a!r}",
                )


def dumps(pf: ProblemFile) -> str:
    out = ["chart " + " ".join(pf.chart_vars)]
    if pf.bundle:
        base, fiber = pf.bundle
        out.append(f"bundle base: {' '.join(base)} ; fiber: {' '.join(fiber)}")
    for name, vals in pf.points.items():
        out.append(f"point {name} = " + ", ".join(str(v) for v in vals))
    for kw, store in (
        ("bivector", pf.bivectors),
        ("form", pf.forms),
        ("vector", pf.vectors),
        ("oneform", pf.oneforms),
    ):
        for name, entries in store.items():
            out.append(f"{kw} {name} {{")
            for entry in entries:
                *idxs, coeff = entry
                out.append("  " + " ".join(str(v) for v in idxs) + " = " + coeff)
            out.append("}")
    for cid, kind, args in pf.checks:
        out.append(" ".join(["check", cid, kind] + list(args)))
    return "\n".join(out) + "\n"
