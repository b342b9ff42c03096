"""Seeded input generators and checked operations for the three workloads.

Every generator draws from its own ``random.Random`` seeded by the workload
name and the ``--seed`` argument, and produces plain inputs (polynomials,
matrices, problem-file text) whose correct answer is known by construction.
An operation runs library calls on those inputs and returns ``(ok, outputs)``:
``ok`` says whether every verdict matched the known answer, ``outputs`` are
the values whose coefficient bit-height the traced run records.

The library is reached only through the module namespace ``cx`` handed in by
the runner (``cx.bivector.jacobi_residual`` and so on), so that functions the
tracer rebinds on those modules are the ones the operations call.

Workloads are lists of *cycles*.  A cycle is a fixed, stratified mix of
operations (the same sizes and kinds in every cycle, fresh random
coefficients), so that the cost of a cycle hardly depends on the seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple


@dataclass
class Op:
    """One closed-loop operation: ``run()`` returns ``(ok, outputs)``.

    ``inputs`` is a plain-data description of what the op receives, used to
    check that a seed reproduces its inputs exactly.  ``expected`` holds the
    known answer the op is checked against; tests overwrite it to plant a
    wrong answer.
    """

    label: str
    inputs: Any
    expected: Any
    body: Callable[["Op"], Tuple[bool, Any]]

    def run(self) -> Tuple[bool, Any]:
        return self.body(self)


# -- small exact helpers shared by the generators -----------------------------


def _rat(rng: random.Random, num: int = 3, den: int = 2, nonzero: bool = False) -> Fraction:
    while True:
        x = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if x or not nonzero:
            return x


def _gauss(rng: random.Random, nonzero: bool = True) -> Tuple[Fraction, Fraction]:
    while True:
        z = (_rat(rng), _rat(rng))
        if any(z) or not nonzero:
            return z


def _unimodular(rng: random.Random, n: int) -> Tuple[List[List[int]], List[List[int]]]:
    """Integer matrix M and its integer inverse: a product of n elementary
    row operations row_a += s * row_b with s = +-1."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    Minv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        a, b = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        # M <- E M adds s * row b to row a; Minv <- Minv E^-1 subtracts
        # s * column a from column b
        M[a] = [x + s * y for x, y in zip(M[a], M[b])]
        for row in Minv:
            row[b] -= s * row[a]
    return M, Minv


# Lie algebra blocks as structure constants {(i, j): {k: c}} for i < j.
_LIE_BLOCKS = {
    "so3": (3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}),
    "sl2": (3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
    "heis": (3, {(0, 1): {2: 1}}),
    "aff": (2, {(0, 1): {1: 1}}),
    "ab": (1, {}),
}


def _lie_algebra(rng: random.Random, n: int, variant: int) -> List[List[List[int]]]:
    """Structure constants c[i][j][k] of a Lie algebra of dimension n: a
    direct sum of standard blocks, picked by variant, in a random unimodular
    basis."""
    blocks = []
    left = n
    while left:
        fits = [b for b, (d, _) in _LIE_BLOCKS.items() if 1 < d <= left] or ["ab"]
        name = fits[(variant + len(blocks)) % len(fits)]
        blocks.append(name)
        left -= _LIE_BLOCKS[name][0]
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    off = 0
    for name in blocks:
        d, table = _LIE_BLOCKS[name]
        for (i, j), out in table.items():
            for k, v in out.items():
                c[off + i][off + j][off + k] = v
                c[off + j][off + i][off + k] = -v
        off += d
    M, Minv = _unimodular(rng, n)
    # {y_a, y_b} = sum M_ai M_bj c_ij^k x_k with x_k = sum_l Minv_kl y_l
    out = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for i in range(n):
                for j in range(n):
                    w = M[a][i] * M[b][j]
                    if not w:
                        continue
                    for k in range(n):
                        if c[i][j][k]:
                            for l in range(n):
                                out[a][b][l] += w * c[i][j][k] * Minv[k][l]
    return out


def _jacobi_holds(c) -> bool:
    """Jacobi identity of structure constants, checked directly."""
    n = len(c)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for m in range(n):
                    s = 0
                    for (a, b, e) in ((i, j, k), (j, k, i), (k, i, j)):
                        s += sum(c[a][b][l] * c[l][e][m] for l in range(n))
                    if s:
                        return False
    return True


def _perturbed_lie(rng: random.Random, n: int, variant: int):
    """A Lie algebra with one structure constant changed so Jacobi fails."""
    for attempt in itertools.count():
        c = _lie_algebra(rng, n, variant + attempt)
        i, j = sorted(rng.sample(range(n), 2))
        k = rng.randrange(n)
        d = rng.choice((-1, 1))
        c[i][j][k] += d
        c[j][i][k] -= d
        if not _jacobi_holds(c):
            return c


def _designed_rank_skew(rng: random.Random, n: int, r: int) -> List[List[int]]:
    """Integer skew matrix of rank exactly r (r even): R^T Om R with R of full
    row rank and Om nondegenerate block-diagonal."""
    R = [[1 if i == j else 0 for j in range(r)] + [rng.randint(-2, 2) for _ in range(n - r)] for i in range(r)]
    perm = list(range(n))
    rng.shuffle(perm)
    R = [[row[perm[j]] for j in range(n)] for row in R]
    om = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r // 2)]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = sum(
                om[t] * (R[2 * t][i] * R[2 * t + 1][j] - R[2 * t + 1][i] * R[2 * t][j])
                for t in range(r // 2)
            )
    return out


def _random_exponent(rng: random.Random, n: int, max_deg: int) -> Tuple[int, ...]:
    e = [0] * n
    for _ in range(rng.randint(0, max_deg)):
        e[rng.randrange(n)] += 1
    return tuple(e)


def _random_terms(rng: random.Random, n: int, nterms: int, max_deg: int = 2, real: bool = False):
    terms: Dict[Tuple[int, ...], Tuple[Fraction, Fraction]] = {}
    for _ in range(nterms):
        e = _random_exponent(rng, n, max_deg)
        terms[e] = (_rat(rng, nonzero=True), Fraction(0)) if real else _gauss(rng)
    return terms


def _linear_terms(c, z, n: int) -> Dict[Tuple[int, int], Dict[Tuple[int, ...], Tuple[Fraction, Fraction]]]:
    """Brackets {x_i, x_j} = z * sum_k c_ij^k x_k as term dictionaries."""
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = {}
            for k in range(n):
                if c[i][j][k]:
                    e = tuple(1 if t == k else 0 for t in range(n))
                    terms[e] = (z[0] * c[i][j][k], z[1] * c[i][j][k])
            if terms:
                out[(i, j)] = terms
    return out


def _poly(cx, chart, terms) -> Any:
    G = cx.scalars.GaussScalar
    return cx.poly.Poly(chart, {e: G(re, im) for e, (re, im) in terms.items()})


def _freeze(entries) -> Tuple:
    """Hashable, order-independent description of bracket term dictionaries."""
    return tuple(sorted((k, tuple(sorted(v.items()))) for k, v in entries.items()))


# -- symbolic -------------------------------------------------------------------

SYMBOLIC_DIMS = (4, 5, 6)
# per dimension and cycle: three known-Poisson bivectors, three random ones
SYMBOLIC_KINDS = ("log_canonical", "lie_poisson", "constant", "random", "random", "random")


def symbolic_bivector(rng: random.Random, n: int, kind: str, variant: int):
    """Bracket terms of a degree <= 2 bivector; Poisson when kind is a family."""
    entries = {}
    if kind == "log_canonical":
        for i in range(n):
            for j in range(i + 1, n):
                e = tuple((t == i) + (t == j) for t in range(n))
                entries[(i, j)] = {e: _gauss(rng)}
    elif kind == "lie_poisson":
        entries = _linear_terms(_lie_algebra(rng, n, variant), _gauss(rng), n)
    elif kind == "constant":
        for i in range(n):
            for j in range(i + 1, n):
                entries[(i, j)] = {(0,) * n: _gauss(rng)}
    else:
        for i in range(n):
            for j in range(i + 1, n):
                entries[(i, j)] = _random_terms(rng, n, 2)
    return entries


def symbolic(cx, rng: random.Random, cycles: int, workdir: Path) -> List[List[Op]]:
    out = []
    for c in range(cycles):
        cycle = []
        for n in SYMBOLIC_DIMS:
            chart = cx.poly.Chart(tuple(f"x{k}" for k in range(n)))
            for kind in SYMBOLIC_KINDS:
                entries = symbolic_bivector(rng, n, kind, c)
                f_terms = _random_terms(rng, n, 3)
                g_terms = _random_terms(rng, n, 3)
                pi = cx.bivector.bivector_from_brackets(
                    chart, {ij: _poly(cx, chart, t) for ij, t in entries.items()}
                )
                f = cx.fields.MultiField.function(chart, _poly(cx, chart, f_terms))
                g = cx.fields.MultiField.function(chart, _poly(cx, chart, g_terms))
                expected = None if kind == "random" else True
                cycle.append(Op(
                    label=f"{kind}/n={n}",
                    inputs=(n, kind, _freeze(entries), _freeze({0: f_terms, 1: g_terms})),
                    expected=expected,
                    body=_symbolic_body(cx, pi, f, g),
                ))
        out.append(cycle)
    return out


def _symbolic_body(cx, pi, f, g):
    bv, fl = cx.bivector, cx.fields

    def body(op: Op):
        res = bv.jacobi_residual(pi)
        pc1, pc2 = bv.pair_conditions(pi)
        pde = bv.jacobi_pde_residuals(pi)
        v_schouten = res.is_zero()
        v_pair = pc1.is_zero() and pc2.is_zero()
        v_pde = all(r.is_zero() for _, _, r in pde)
        lhs = bv.cotangent_bracket(pi, fl.complex_differential(f), fl.complex_differential(g))
        rhs = fl.complex_differential(bv.bracket_of_functions(pi, f, g))
        ok = v_schouten == v_pair == v_pde and lhs == rhs
        if op.expected is not None:
            ok = ok and v_schouten == op.expected
        return ok, (res, pc1, pc2, [r for _, _, r in pde], lhs)

    return body


# -- pointwise ------------------------------------------------------------------

# (n, pointwise function) per op of a cycle.  Smaller n are repeated because
# their ops are cheap.  Cost rises steeply with n, so the counts are chosen so
# that the median and the 90th percentile of a cycle's latencies fall inside
# a group of like ops (n = 3 tilde checks, n = 7 rank profiles), not in the
# gap between two groups, where they would swing with the coefficients.
POINTWISE_MIX = (
    (2, "rank_profile"), (2, "gcs_matrix"), (2, "theorem_7_18_check"), (2, "rank_profile"),
    (2, "gcs_matrix"), (2, "theorem_7_18_check"), (2, "rank_profile"), (2, "gcs_matrix"),
    (3, "rank_profile"), (3, "theorem_7_18_check"), (3, "rank_profile"), (3, "theorem_7_18_check"),
    (4, "gcs_matrix"), (4, "theorem_7_18_check"), (4, "rank_profile"),
    (5, "rank_profile"), (5, "theorem_7_18_check"),
    (6, "gcs_matrix"),
    (7, "rank_profile"), (7, "rank_profile"), (7, "rank_profile"),
    (8, "gcs_matrix"),
)
LAGRANGIAN_KINDS = ("bivector", "twoform", "split")


def _skew(rng: random.Random, n: int):
    M = [[(Fraction(0), Fraction(0))] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            re, im = _rat(rng), _rat(rng)
            M[i][j], M[j][i] = (re, im), (-re, -im)
    return M


def pointwise_inputs(rng: random.Random, n: int, fn: str, variant: int):
    """Plain data for one pointwise op.

    The shape of the input (graph kind, which transforms apply, the rank of
    pi2) follows from ``variant``, so every seed gets the same shapes and only
    the coefficients are random.
    """
    kind = LAGRANGIAN_KINDS[variant % 3]
    data = {"n": n, "kind": kind, "fn": fn}
    if kind == "split":
        data["split"] = sorted(rng.sample(range(n), variant % (n + 1)))
    else:
        data["A"] = _skew(rng, n)
    data["B"] = _skew(rng, n)
    data["beta"] = _skew(rng, n) if variant % 2 == 0 else None
    data["z"] = (Fraction(rng.randint(1, 3)), Fraction(rng.randint(-2, 2))) if variant // 2 % 2 == 0 else None
    data["W"] = _skew(rng, n)
    # unit lower triangular, hence invertible, map for the image round trip
    data["T"] = [
        [(Fraction(1), Fraction(0)) if i == j else (_gauss(rng, nonzero=False) if j < i else (Fraction(0), Fraction(0)))
         for j in range(n)]
        for i in range(n)
    ]
    # bivector for the pointwise function: pi1 random of degree <= 2, pi2 =
    # (1 + x0^2) K with K an integer skew matrix of designed rank r, so the
    # real index n - r holds at every rational point by construction
    r = n if fn == "gcs_matrix" else 2 * (variant % (n // 2 + 1))
    K = _designed_rank_skew(rng, n, r)
    entries = {}
    x0sq = tuple(2 if t == 0 else 0 for t in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            terms = _random_terms(rng, n, 2, real=True)
            if K[i][j]:
                for e in ((0,) * n, x0sq):
                    re, im = terms.get(e, (Fraction(0), Fraction(0)))
                    terms[e] = (re, im + K[i][j])
            entries[(i, j)] = terms
    data["pi"] = entries
    data["rank_pi2"] = r
    data["point"] = rng.randrange(20)
    return data


def pointwise(cx, rng: random.Random, cycles: int, workdir: Path) -> List[List[Op]]:
    out = []
    for c in range(cycles):
        cycle = []
        for k, (n, fn) in enumerate(POINTWISE_MIX):
            data = pointwise_inputs(rng, n, fn, k + c)
            chart = cx.poly.Chart(tuple(f"x{t}" for t in range(n)))
            pi = cx.bivector.bivector_from_brackets(
                chart, {ij: _poly(cx, chart, t) for ij, t in data["pi"].items()}
            )
            point = cx.pointwise.grid_points(chart, data["point"] + 1)[-1]
            cycle.append(Op(
                label=f"{fn}/{data['kind']}/n={n}",
                inputs=repr(sorted(data.items())),
                expected=n - data["rank_pi2"],
                body=_pointwise_body(cx, data, pi, point),
            ))
        out.append(cycle)
    return out


def _pointwise_body(cx, data, pi, point):
    lg, pw, la = cx.lagrangian, cx.pointwise, cx.linalg
    G = cx.scalars.GaussScalar
    n = data["n"]

    def mat(M):
        return [[G(re, im) for re, im in row] for row in M]

    def body(op: Op):
        if data["kind"] == "split":
            rows = []
            for k in range(n):
                r = [G(0, 0)] * (2 * n)
                r[k if k in data["split"] else n + k] = G(1, 0)
                rows.append(r)
            L = lg.Lagrangian.from_generators(n, rows)
        else:
            L = lg.graph(mat(data["A"]), data["kind"])
        L = lg.transform("b_field", mat(data["B"]), L)
        if data["beta"] is not None:
            L = lg.transform("beta", mat(data["beta"]), L)
        if data["z"] is not None:
            L = lg.transform("scalar_dot", G(*data["z"]), L)
        H = lg.hat(L)
        C = lg.check(L)
        T = lg.tilde(L)
        rec = lg.indices(L)
        W = mat(data["W"])
        P = lg.products("tangent", L, lg.graph(W, "twoform"))
        Tm = mat(data["T"])
        back = lg.images("backward", Tm, L)
        # criterion-5 laws, plus two identities with a known right-hand side:
        # L * gr(W) = e^W L, and the forward image undoes the backward one
        i_conj = lg.transform("scalar_dot", G(0, 1), lg.transform("conjugate", None, L))
        ok = (
            lg.tilde(T) == T
            and lg.hat(i_conj) == C
            and lg.is_quasi_real(L) == (T == L)
            and P == lg.transform("b_field", W, L)
            and lg.images("forward", Tm, back) == L
        )
        fn = data["fn"]
        if fn == "rank_profile":
            prof = pw.rank_profile(pi, point)
            ok = ok and prof.real_index == op.expected
            res = prof
        elif fn == "gcs_matrix":
            J, sigma = pw.gcs_matrix(pi, point)
            minus_id = [[Fraction(-1 if i == j else 0) for j in range(2 * n)] for i in range(2 * n)]
            ok = ok and op.expected == 0 and la.matmul(J, J) == minus_id
            res = (J, sigma)
        else:
            ok = ok and pw.theorem_7_18_check(pi, point)
            res = None
        return ok, (H.basis, C.basis, T.basis, rec, P.basis, back.basis, res)

    return body


# -- cli_batch --------------------------------------------------------------------

CLI_DIMS = (3, 4)
CLI_COMMANDS = ("check", "invariants", "dirac", "normal-form")
CLI_FORMATS = ("human", "machine")
CLI_GRID = 3
_CHARTS = {3: (("u",), ("q", "p")), 4: (("u", "v"), ("q", "p"))}


def _fmt_rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fmt_poly(names: Sequence[str], terms) -> str:
    chunks = []
    for e, (re, im) in sorted(terms.items()):
        if not re and not im:
            continue
        mono = "*".join(
            names[t] if k == 1 else f"{names[t]}^{k}" for t, k in enumerate(e) if k
        )
        coeff = f"({_fmt_rat(re)} + {_fmt_rat(im)}*i)"
        chunks.append(f"{coeff}*{mono}" if mono else coeff)
    return " + ".join(chunks) if chunks else "0"


def problem_file(rng: random.Random, n: int, variant: int) -> Tuple[str, Dict[str, Dict[str, str]], Dict[str, int]]:
    """Problem text plus the verdict per check id and exit code per command."""
    base, fiber = _CHARTS[n]
    names = base + fiber
    lines = [f"chart {' '.join(names)}", f"bundle base: {' '.join(base)} ; fiber: {' '.join(fiber)}"]
    for k in range(2):
        vals = [_fmt_rat(_rat(rng, 3, 3, nonzero=True)) for _ in range(n)]
        lines.append(f"point p{k} = {', '.join(vals)}")
    biv: Dict[str, Tuple[Dict, bool]] = {}
    biv["LP"] = (_linear_terms(_lie_algebra(rng, n, variant), _gauss(rng), n), True)
    biv["LC"] = (symbolic_bivector(rng, n, "log_canonical", variant), True)
    biv["PT"] = (_linear_terms(_perturbed_lie(rng, n, variant + 1), _gauss(rng), n), False)
    # normal-form bivector a(base) on the base block plus a real constant
    # c on the fiber; X is the fiber Euler field and xi1 = (q dp - p dq) / c,
    # so X + xi1 lies in the graph and the splitting holds by construction
    c = _rat(rng, 3, 2, nonzero=True)
    b = len(base)
    nf = {(b, b + 1): {(0,) * n: (c, Fraction(0))}}
    if b == 2:
        pad = (0,) * (n - b)
        nf[(0, 1)] = {e + pad: v for e, v in _random_terms(rng, b, 2).items()}
    biv["NF"] = (nf, True)
    for name, (entries, _) in biv.items():
        lines.append(f"bivector {name} {{")
        for (i, j), terms in sorted(entries.items()):
            lines.append(f"  {i + 1} {j + 1} = {_fmt_poly(names, terms)}")
        lines.append("}")
    q, p = b, b + 1
    eq = tuple(1 if t == q else 0 for t in range(n))
    ep = tuple(1 if t == p else 0 for t in range(n))
    one = (Fraction(1), Fraction(0))
    lines += ["vector X {", f"  {q + 1} = {_fmt_poly(names, {eq: one})}", f"  {p + 1} = {_fmt_poly(names, {ep: one})}", "}"]
    lines += [
        "oneform xi1 {",
        f"  {q + 1} = {_fmt_poly(names, {ep: (-1 / c, Fraction(0))})}",
        f"  {p + 1} = {_fmt_poly(names, {eq: (1 / c, Fraction(0))})}",
        "}",
        "oneform xi2 {",
        f"  {q + 1} = 0",
        "}",
    ]
    verdicts: Dict[str, Dict[str, str]] = {cmd: {} for cmd in CLI_COMMANDS}
    for name, (_, poisson) in biv.items():
        lines.append(f"check j{name} jacobi {name}")
        verdicts["check"][f"j{name}"] = "pass" if poisson else "fail"
        lines.append(f"check i{name} invariants {name}")
        verdicts["invariants"][f"i{name}"] = "pass"
    pipelines = (("LP", "tilde | indices"), ("PT", "hat | check | theorem_7_18"), ("LC", "conjugate | tilde_cot | indices"))
    for name, pipe in pipelines:
        lines.append(f"check d{name} dirac {name} : {pipe}")
        verdicts["dirac"][f"d{name}"] = "pass"
    lines.append("check nf normal_form NF X xi1 xi2")
    verdicts["normal-form"]["nf"] = "pass"
    exits = {cmd: (1 if "fail" in v.values() else 0) for cmd, v in verdicts.items()}
    return "\n".join(lines) + "\n", verdicts, exits


_HUMAN_RE = re.compile(r"^\[(\w+)[^\]]*\] (\S+) \(")
_INT_RE = re.compile(r"\d+")


def cli_batch(cx, rng: random.Random, cycles: int, workdir: Path) -> List[List[Op]]:
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for c in range(cycles):
        cycle = []
        for n in CLI_DIMS:
            text, verdicts, exits = problem_file(rng, n, c)
            path = workdir / f"cycle{c}-n{n}.prob"
            path.write_text(text, encoding="utf-8")
            for cmd in CLI_COMMANDS:
                for fmt in CLI_FORMATS:
                    argv = [cmd, str(path), "--format", fmt, "--grid-size", str(CLI_GRID)]
                    cycle.append(Op(
                        label=f"{cmd}/{fmt}/n={n}",
                        inputs=(cmd, fmt, text),
                        expected=(exits[cmd], dict(verdicts[cmd])),
                        body=_cli_body(cx, argv, fmt),
                    ))
        out.append(cycle)
    return out


def _cli_body(cx, argv: List[str], fmt: str):
    def body(op: Op):
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cx.cli.main(argv)
        text = buf.getvalue()
        got: Dict[str, str] = {}
        for line in text.splitlines():
            if fmt == "machine":
                if line.strip():
                    rec = json.loads(line)
                    got[rec["check"]] = rec["verdict"]
            else:
                m = _HUMAN_RE.match(line)
                if m:
                    got[m.group(2)] = m.group(1).lower()
        want_code, want = op.expected
        ok = code == want_code and got == want
        return ok, [int(t) for t in _INT_RE.findall(text)]

    return body


WORKLOADS: Dict[str, Callable[..., List[List[Op]]]] = {
    "symbolic": symbolic,
    "pointwise": pointwise,
    "cli_batch": cli_batch,
}


def generate(cx, name: str, seed: int, cycles: int, workdir: Path) -> List[List[Op]]:
    """The workload's cycles for a seed; same seed, same inputs."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](cx, rng, cycles, workdir)
