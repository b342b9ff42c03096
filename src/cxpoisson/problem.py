"""Problem-file format for the CLI.

Line-oriented text, '#' starts a comment.  Indices are 1-based in files.

    chart x y q p
    bundle base: x y ; fiber: q p      # optional, for normal-form runs
    point p0 = 1/2, 1, 2, 0
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
    check c4 normal_form NB X xi1 xi1

The bundle line is optional and comes once: `base:` before the `;` and
`fiber:` after it, in that order, whose variables list the chart in order.
Normal-form runs refuse an empty side.  A block header is its keyword, its
name and `{`, with nothing after.  Block and point names and check ids are
single words, and a check id has no `,`.  Each check must fit its kind's
signature in CHECK_KINDS, checked once the file is read, so a block may follow
its check; the fitted arguments are kept in ProblemFile.fits, so a runner
does not fit them again.

Coefficient strings are kept verbatim, so parse -> dumps -> parse is the
identity.  parse_problem builds the file's one Chart (ProblemFile.chart)
from its chart line, and every Poly parsed from the file, and every field
built from it, holds that one object.  Each coefficient string is parsed
once, at parse time, and the parsed Poly is kept in ProblemFile.polys under
its string.
Chart variables must be names the coefficient grammar can read, and `i` is
refused, since it would shadow the imaginary unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Container, Dict, Iterator, List, Optional, Tuple

from .grammar import NAME_RE, PolyParseError, parse_poly, parse_rational
from .poly import Chart, Poly


# the ops of a dirac pipeline; cli maps each to what it computes
DIRAC_OPS = ("hat", "check", "tilde", "hat_cot", "check_cot", "tilde_cot", "conjugate",
             "indices", "theorem_7_18")

# check kind -> its signature, the arguments after the check's id and kind.  A
# block keyword stands for the name of a block of that kind, "op" for one of
# DIRAC_OPS, and ":" and "|" for themselves.  A dirac pipeline goes on with
# "| op" any number of times; a normal_form check also needs a bundle line.
CHECK_KINDS = {
    "jacobi": ("bivector",), "invariants": ("bivector",), "dirac": ("bivector", ":", "op"),
    "normal_form": ("bivector", "vector", "oneform", "oneform"),
}

# block keyword -> (the ProblemFile attribute holding its blocks, indices per
# entry); the reader, the writer, the signature check and the CLI read it
BLOCK_KINDS = {
    "bivector": ("bivectors", 2),
    "form": ("forms", 2),
    "vector": ("vectors", 1),
    "oneform": ("oneforms", 1),
}

_BUNDLE_SYNTAX = "expected: bundle base: <vars> ; fiber: <vars>"


class ProblemParseError(ValueError):
    def __init__(self, lineno: int, msg: str):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


@dataclass
class ProblemFile:
    chart: Chart
    bundle: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]] = None
    points: Dict[str, Tuple[Fraction, ...]] = field(default_factory=dict)
    bivectors: Dict[str, List[Tuple[int, int, str]]] = field(default_factory=dict)
    forms: Dict[str, List[Tuple[int, int, str]]] = field(default_factory=dict)
    vectors: Dict[str, List[Tuple[int, str]]] = field(default_factory=dict)
    oneforms: Dict[str, List[Tuple[int, str]]] = field(default_factory=dict)
    checks: List[Tuple[str, str, List[str]]] = field(default_factory=list)
    # file line of each check, by check id; not part of the content
    check_lines: Dict[str, int] = field(default_factory=dict, compare=False)
    # each coefficient string, parsed on the chart; not part of the content
    polys: Dict[str, Poly] = field(default_factory=dict, compare=False, repr=False)
    # each check's arguments as check_args fits them, by check id; not part
    # of the content
    fits: Dict[str, List[Tuple[str, str]]] = field(default_factory=dict, compare=False, repr=False)


def _lines(text: str) -> Iterator[Tuple[int, str]]:
    """(line number, text) of each line that has text left once its comment
    and outer blanks are stripped."""
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.partition("#")[0].strip()
        if line:
            yield lineno, line


def _coords(text: str, dim: int, bad: Callable, count: Callable) -> Tuple[Fraction, ...]:
    """The comma-separated rationals of text as Fractions, dim of them.  The
    caller words the refusals: bad(exc) is raised for a part that is no
    rational, count(n) for a number n of parts other than dim."""
    try:
        vals = tuple(Fraction(*parse_rational(t.strip())) for t in text.split(","))
    except PolyParseError as exc:
        raise bad(exc) from None
    if len(vals) != dim:
        raise count(len(vals))
    return vals


def parse_problem(text: str) -> ProblemFile:
    lines = _lines(text)
    pf: Optional[ProblemFile] = None
    for lineno, line in lines:
        parts = line.split()
        kw = parts[0]
        if kw == "chart":
            if pf is not None:
                raise ProblemParseError(lineno, "duplicate chart declaration")
            try:
                pf = ProblemFile(Chart(tuple(parts[1:])))
            except ValueError as exc:
                raise ProblemParseError(lineno, str(exc)) from None
            for v in pf.chart.vars:
                if not NAME_RE.fullmatch(v):
                    raise ProblemParseError(
                        lineno, f"chart variable {v!r} is not a name coefficients can use"
                    )
                if v == "i":
                    raise ProblemParseError(
                        lineno, "chart variable 'i' would shadow the imaginary unit"
                    )
        elif kw not in _READERS:
            raise ProblemParseError(lineno, f"unknown keyword {kw!r}")
        elif pf is None:
            raise ProblemParseError(lineno, "chart must be declared first")
        else:
            _READERS[kw](pf, lineno, parts, line, lines)
    if pf is None:
        raise ProblemParseError(1, "empty problem file (no chart)")
    # once every block is read
    admits = {**{kw: getattr(pf, attr) for kw, (attr, _) in BLOCK_KINDS.items()},
              "op": DIRAC_OPS, ":": (":",), "|": ("|",)}
    for cid, kind, args in pf.checks:
        pf.fits[cid] = check_args(pf, admits, cid, kind, args)
    return pf


def _bundle(pf: ProblemFile, lineno: int, parts, line: str, lines) -> None:
    try:
        (b, base), (f, fiber) = [side.split(":", 1) for side in line[len("bundle"):].split(";")]
    except ValueError:
        raise ProblemParseError(lineno, _BUNDLE_SYNTAX) from None
    base, fiber = tuple(base.split()), tuple(fiber.split())
    if base + fiber != pf.chart.vars:
        raise ProblemParseError(lineno, "bundle variables must equal the chart in order")
    if b.strip() != "base" or f.strip() != "fiber":
        raise ProblemParseError(lineno, _BUNDLE_SYNTAX)
    if pf.bundle is not None:
        raise ProblemParseError(lineno, "duplicate bundle declaration")
    pf.bundle = (base, fiber)


def _point(pf: ProblemFile, lineno: int, parts, line: str, lines) -> None:
    head, eq, rest = line.partition("=")
    words = head.split()
    if not eq or len(words) != 2:
        raise ProblemParseError(lineno, "expected: point NAME = v, v, ...")
    name = words[1]
    if name in pf.points:
        raise ProblemParseError(lineno, f"duplicate point name {name!r}")
    dim = pf.chart.dim
    pf.points[name] = _coords(
        rest, dim, lambda exc: ProblemParseError(lineno, f"bad rational: {exc}"),
        lambda n: ProblemParseError(lineno, f"point {name!r} has {n} coordinates, chart has {dim}"),
    )


def _block(pf: ProblemFile, lineno: int, parts, line: str, lines) -> None:
    """A block: its header line, then its entry lines taken from lines up to
    its closing brace."""
    kw = parts[0]
    if len(parts) != 3 or parts[2] != "{":
        raise ProblemParseError(lineno, f"expected: {kw} NAME {{")
    name = parts[1]
    attr, want = BLOCK_KINDS[kw]
    chart = pf.chart
    dim = chart.dim
    entries = []
    for at, entry in lines:
        if entry == "}":
            break
        try:
            idx_part, coeff = entry.split("=", 1)
        except ValueError:
            raise ProblemParseError(at, "expected: INDEX... = coeff") from None
        idxs = idx_part.split()
        if len(idxs) != want:
            raise ProblemParseError(at, f"{kw} entries need {want} index(es)")
        try:
            nums = tuple(int(t) for t in idxs)
        except ValueError:
            raise ProblemParseError(at, "indices must be integers") from None
        for v in nums:
            if not 1 <= v <= dim:
                raise ProblemParseError(at, f"index {v} out of range 1..{dim}")
        if want == 2 and not nums[0] < nums[1]:
            raise ProblemParseError(at, "indices must satisfy i < j")
        if any(e[:-1] == nums for e in entries):
            raise ProblemParseError(at, f"duplicate entry {' '.join(idxs)}")
        coeff = coeff.strip()
        if coeff not in pf.polys:
            try:
                pf.polys[coeff] = parse_poly(coeff, chart)
            except PolyParseError as exc:
                raise ProblemParseError(at, f"bad coefficient: {exc}") from None
        entries.append(nums + (coeff,))
    else:
        raise ProblemParseError(lineno, f"unterminated {kw} block {name!r}")
    store = getattr(pf, attr)
    if name in store:
        raise ProblemParseError(lineno, f"duplicate {kw} name {name!r}")
    store[name] = entries


def _check(pf: ProblemFile, lineno: int, parts, line: str, lines) -> None:
    if len(parts) < 3:
        raise ProblemParseError(lineno, "expected: check ID KIND args...")
    _, cid, ckind, *args = parts
    if ckind not in CHECK_KINDS:
        raise ProblemParseError(lineno, f"unknown check kind {ckind!r}, "
                                        f"expected one of {', '.join(CHECK_KINDS)}")
    if cid in pf.check_lines:
        raise ProblemParseError(lineno, f"duplicate check id {cid!r}")
    if "," in cid:
        raise ProblemParseError(lineno, f"check id {cid!r} has a comma, which --check splits on")
    pf.checks.append((cid, ckind, args))
    pf.check_lines[cid] = lineno


# keyword -> reader of its line: (pf, line number, words, line, the line
# iterator); a block's reader takes its entry lines from the iterator
_READERS = {"bundle": _bundle, "point": _point, "check": _check, **dict.fromkeys(BLOCK_KINDS, _block)}


def check_args(pf: ProblemFile, admits: Dict[str, Container[str]], cid: str, kind: str,
               args: List[str]) -> List[Tuple[str, str]]:
    """(signature word, argument) for each argument of check cid of kind but
    the ':' and '|' of its signature; admits maps each signature word to the
    names it admits.  A check whose arguments do not fit the signature, or a
    normal_form check without a bundle, is refused at its line, so
    parse_problem returns no such check."""
    sig = CHECK_KINDS[kind]
    if kind == "dirac":
        sig += ("|", "op") * ((len(args) - len(sig)) // 2)
    lineno = pf.check_lines.get(cid, 0)
    if len(args) != len(sig) or any(a not in admits[w] for w, a in zip(sig, args)):
        want = " ".join(CHECK_KINDS[kind])
        if kind == "dirac":
            want += f" [| op]..., op one of {', '.join(DIRAC_OPS)}"
        found = " ".join(a + "".join(f" ({kw})" for kw in BLOCK_KINDS if a in admits[kw])
                         for a in args)
        raise ProblemParseError(lineno, f"check {cid!r} ({kind}) takes: {want}; found: "
                                + (found or "nothing"))
    if kind == "normal_form" and pf.bundle is None:
        raise ProblemParseError(lineno, f"check {cid!r} needs a bundle line")
    return [(w, a) for w, a in zip(sig, args) if w not in (":", "|")]


def dumps(pf: ProblemFile) -> str:
    out = ["chart " + " ".join(pf.chart.vars)]
    if pf.bundle:
        base, fiber = pf.bundle
        out.append(f"bundle base: {' '.join(base)} ; fiber: {' '.join(fiber)}")
    for name, vals in pf.points.items():
        out.append(f"point {name} = " + ", ".join(str(v) for v in vals))
    for kw, (attr, _) in BLOCK_KINDS.items():
        for name, entries in getattr(pf, attr).items():
            out.append(f"{kw} {name} {{")
            for *idxs, coeff in entries:
                out.append("  " + " ".join(str(v) for v in idxs) + " = " + coeff)
            out.append("}")
    for cid, kind, args in pf.checks:
        out.append(" ".join(["check", cid, kind] + list(args)))
    return "\n".join(out) + "\n"
