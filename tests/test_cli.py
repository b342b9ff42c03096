"""Command-line interface: exit codes, filters, output formats."""

import json
import re

import pytest
from hypothesis import HealthCheck, example, find, given, settings
from hypothesis import strategies as st

from cxpoisson import cli, normal_form, pointwise
from cxpoisson.cli import main
from cxpoisson.fields import MultiField
from cxpoisson.problem import DIRAC_OPS, ProblemParseError, dumps, parse_problem

NB_PROBLEM = """\
chart x y z
point p0 = 1/2, 1, 2
bivector NB {
  1 2 = 1 + i
  1 3 = 2*i
  2 3 = y + i*(-1*y + z)
}
bivector BAD {
  1 2 = 1
  1 3 = i*y
  2 3 = y + i*z
}
check good jacobi NB
check bad jacobi BAD
check inv invariants NB
check dir dirac NB : tilde | indices
check thm dirac NB : theorem_7_18
"""

SPLIT_PROBLEM = """\
chart u v q p
bundle base: u v ; fiber: q p
bivector PI {
  1 2 = u
  3 4 = 1
}
vector X {
  3 = q
  4 = p
}
oneform xi1 {
  3 = -1*p
  4 = q
}
oneform xi2 {
  3 = 0
}
check s1 normal_form PI X xi1 xi2
"""


@pytest.fixture
def nb_file(tmp_path):
    f = tmp_path / "nb.prob"
    f.write_text(NB_PROBLEM)
    return str(f)


@pytest.fixture
def split_file(tmp_path):
    f = tmp_path / "split.prob"
    f.write_text(SPLIT_PROBLEM)
    return str(f)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def evaluated_fields(monkeypatch):
    """The list of fields each evaluation at a point (pointwise._rows_at,
    under every module name bound to it) is made on, filled as they run."""
    made = []
    rows_at = pointwise._rows_at

    def counted(field, point):
        made.append(field)
        return rows_at(field, point)

    for mod in (pointwise, normal_form):
        monkeypatch.setattr(mod, "_rows_at", counted)
    return made


def test_check_pass_only(nb_file, capsys):
    code, out, _ = run(capsys, ["check", nb_file, "--check", "good"])
    assert code == 0
    assert "[PASS" in out and "good" in out


def test_check_failure_exit_code_and_witness(nb_file, capsys):
    code, out, _ = run(capsys, ["check", nb_file])
    assert code == 1
    assert "[FAIL" in out and "bad" in out
    assert "jacobi_residual" in out


def test_machine_format_is_json_lines(nb_file, capsys):
    code, out, _ = run(
        capsys, ["check", nb_file, "--format", "machine"]
    )
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["check"] for r in records} == {"good", "bad"}
    for r in records:
        assert set(r) == {
            "check", "kind", "inputs", "verdict", "witness", "time_ms"
        }
    by_id = {r["check"]: r for r in records}
    assert by_id["good"]["verdict"] == "pass"
    assert by_id["bad"]["verdict"] == "fail"
    # the PDE witness names the file's 1-based triple and the part of the equation
    assert by_id["bad"]["witness"]["pde_residuals"] == [[[1, 2, 3], "re", "1 + -1*y"]]


def test_invariants_reports_profiles(nb_file, capsys):
    code, out, _ = run(
        capsys,
        ["invariants", nb_file, "--format", "machine", "--grid-size", "5",
         "--check", "inv"],
    )
    assert code == 0
    rec = json.loads(out.strip().splitlines()[0])
    profs = rec["witness"]["profiles"]
    assert len(profs) == 6  # 5 grid + 1 named point
    assert all(p["dim_E"] == 2 and p["dim_Delta"] == 1 for p in profs)
    assert rec["witness"]["summary"]["regular_sample"]


def test_dirac_pipeline(nb_file, capsys):
    code, out, _ = run(
        capsys,
        ["dirac", nb_file, "--format", "machine", "--check", "dir,thm"],
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    by_id = {r["check"]: r for r in records}
    steps = by_id["dir"]["witness"][0]["steps"]
    assert [s["op"] for s in steps] == ["tilde", "indices"]
    assert by_id["thm"]["witness"][0]["steps"][0]["result"] == "pass"


def test_dirac_evaluates_pi_once_per_point(nb_file, capsys, monkeypatch):
    # theorem_7_18 reports on gr pi wherever it sits, so it reads the graph
    # the point's pipeline started from
    with open(nb_file, "a") as fh:
        fh.write("check ht dirac NB : hat | conjugate | theorem_7_18\n")
    made = evaluated_fields(monkeypatch)
    code, out, _ = run(capsys, ["dirac", nb_file, "--format", "machine", "--check", "ht",
                                "--points", "1,1,1"])
    assert code == 0
    witness = json.loads(out.strip())["witness"]
    assert len(witness) == len(made) == 2
    assert all(w["steps"][2] == {"op": "theorem_7_18", "result": "pass"} for w in witness)


def test_dirac_refuses_unknown_op(tmp_path, capsys):
    f = tmp_path / "bad.prob"
    f.write_text(
        "chart x y\nbivector B {\n 1 2 = 1\n}\ncheck c dirac B : frobnicate\n"
    )
    code, out, err = run(capsys, ["dirac", str(f)])
    assert code == 2 and not out
    assert err.startswith("error: line 5: check 'c' (dirac)") and "frobnicate" in err


def test_dirac_complexifies_real_steps(nb_file, capsys):
    with open(nb_file, "a") as fh:
        fh.write("check hc dirac NB : hat | conjugate | indices\n")
    code, out, _ = run(
        capsys, ["dirac", nb_file, "--format", "machine", "--check", "hc"]
    )
    assert code == 0
    steps = json.loads(out.strip())["witness"][0]["steps"]
    assert [s["op"] for s in steps] == ["hat", "conjugate", "indices"]


@pytest.mark.parametrize("command,kind", [
    ("check", "jacobi"), ("invariants", "invariants"),
    # a dirac check without an op computes nothing, so it has no verdict
    ("dirac", "dirac B"), ("dirac", "dirac B : |"),
])
def test_check_without_bivector_is_refusal(tmp_path, capsys, command, kind):
    # the check fits no signature of its kind, so the file is refused
    f = tmp_path / "noname.prob"
    f.write_text(f"chart x y\nbivector B {{\n 1 2 = 1\n}}\ncheck c1 {kind}\n")
    code, out, err = run(capsys, [command, str(f)])
    assert code == 2 and not out
    assert err.startswith(f"error: line 5: check 'c1' ({kind.split()[0]}) takes: ")


@pytest.mark.parametrize("command", ["check", "invariants", "dirac", "normal-form"])
@pytest.mark.parametrize("kind", ["jacobi", "invariants"])
def test_a_check_with_a_second_bivector_refuses_the_file(tmp_path, capsys, command, kind):
    # BAD is not Poisson: a check that ignored it would pass on G alone
    f = tmp_path / "second.prob"
    f.write_text(NB_PROBLEM.split("check")[0] + f"check c1 {kind} NB BAD\n")
    code, out, err = run(capsys, [command, str(f)])
    assert code == 2 and not out
    assert err.startswith(f"error: line 13: check 'c1' ({kind}) takes: bivector; found: ")


NINES = "9" * 1000

# coefficients whose witnesses hold integers past Python's 4,300-digit limit
# on int -> str: (subcommand, problem text, exit status)
LONG_WITNESSES = {
    "jacobi-fails": ("check", f"""\
chart x y z
bivector B {{
  1 2 = ({NINES}*x)^5
  1 3 = z
  2 3 = y
}}
check c jacobi B
""", 1),
    "dirac-passes": ("dirac", f"""\
chart x y z
point p = 1, 1, 1
bivector B {{
  1 2 = ({NINES})^5
  1 3 = 1
  2 3 = i
}}
check c dirac B : hat | indices
""", 0),
}


@pytest.mark.parametrize("fmt", ["human", "machine"])
@pytest.mark.parametrize("case", list(LONG_WITNESSES))
def test_witness_past_the_digit_limit_keeps_the_verdict(tmp_path, capsys, case, fmt):
    # the long values are shown as a note; the verdict and exit status stand
    command, text, want = LONG_WITNESSES[case]
    f = tmp_path / "long.prob"
    f.write_text(text)
    code, out, err = run(capsys, [command, str(f), "--format", fmt])
    assert code == want and not err
    if fmt == "machine":
        [rec] = [json.loads(line) for line in out.strip().splitlines()]
        assert rec["verdict"] == ("fail" if want else "pass")
        assert rec["witness"] and "not printed" in json.dumps(rec["witness"])
    else:
        head, witness = out.strip().splitlines()
        assert head.startswith("[FAIL" if want else "[PASS")
        assert "not printed" in witness


@pytest.mark.parametrize("command", ["check", "invariants", "dirac", "normal-form"])
def test_main_reaches_the_traced_names(monkeypatch, nb_file, split_file, capsys, command):
    # a tracer times these names by rebinding them on the module, so main
    # must call each through the module
    from cxpoisson import cli

    calls = {}

    def counted(name):
        inner = getattr(cli, name)

        def wrapper(*a, **k):
            calls[name] = calls.get(name, 0) + 1
            return inner(*a, **k)

        monkeypatch.setattr(cli, name, wrapper)

    cmd = "cmd_" + command.replace("-", "_")
    for name in ("parse_problem", "build_field", cmd):
        counted(name)
    path = split_file if command == "normal-form" else nb_file
    code = main([command, path, "--grid-size", "2"])
    capsys.readouterr()
    assert code in (0, 1)
    assert set(calls) == {"parse_problem", "build_field", cmd}


@pytest.mark.parametrize("command", ["check", "invariants", "dirac", "normal-form"])
def test_only_check_splits_the_bivector(monkeypatch, nb_file, split_file, capsys, command):
    # pi1 and pi2 are split off on first read; invariants, dirac and
    # normal-form read only pi's body, so they never call decompose
    from cxpoisson import bivector, fields

    split = []
    inner = fields.decompose

    def counted(m):
        split.append(m)
        return inner(m)

    monkeypatch.setattr(fields, "decompose", counted)
    monkeypatch.setattr(bivector, "decompose", counted)
    path = split_file if command == "normal-form" else nb_file
    code, out, err = run(capsys, [command, path, "--grid-size", "2"])
    assert code in (0, 1) and out and err == ""
    assert bool(split) == (command == "check")


def test_extra_points_flag(nb_file, capsys):
    code, out, _ = run(
        capsys,
        ["invariants", nb_file, "--format", "machine", "--grid-size", "2",
         "--points", "1,1,1;2,1,3", "--check", "inv"],
    )
    assert code == 0
    rec = json.loads(out.strip().splitlines()[0])
    assert len(rec["witness"]["profiles"]) == 5  # 2 grid + 1 named + 2 extra


def test_dirac_samples_the_given_points(nb_file, capsys):
    # the file's point line p0 plus --points, and no grid point
    code, out, _ = run(
        capsys,
        ["dirac", nb_file, "--format", "machine", "--check", "dir", "--points", "3,5,7"],
    )
    assert code == 0
    points = [w["point"] for w in json.loads(out.strip())["witness"]]
    assert points == [{"x": "1/2", "y": "1", "z": "2"}, {"x": "3", "y": "5", "z": "7"}]


@pytest.mark.parametrize(
    "command,points",
    [
        ("invariants", "1,2"), ("invariants", "1/0,1,1"), ("dirac", "1/0,1,1"),
        ("invariants", ";"), ("dirac", "1,,2"), ("invariants", "1 2 3"),
        # a coordinate is [+-]p or [+-]p/q, under the digit limit
        ("invariants", "1.5,1,1"), ("dirac", "1,1e9,1"), ("invariants", "1e999999999,1,1"),
        ("invariants", "1_0,1,1"), ("dirac", "1,1," + "9" * 5000),
    ],
)
def test_bad_points_flag_is_refusal(nb_file, capsys, command, points):
    code, out, err = run(capsys, [command, nb_file, "--points", points])
    assert code == 2 and "error" in err and not out
    # the refusal names the flag, and the entry when it is not rationals
    assert "--points entry" in err
    if points != "1,2":
        assert repr(points.split(";")[0]) in err


@pytest.mark.parametrize("command", ["check", "invariants", "dirac", "normal-form"])
def test_unknown_check_id_is_refusal(nb_file, capsys, command):
    code, out, err = run(capsys, [command, nb_file, "--check", "good,nosuch"])
    assert code == 2
    assert "nosuch" in err and "good" not in err and not out


@pytest.mark.parametrize("command", ["check", "invariants", "dirac", "normal-form"])
def test_empty_check_id_is_refusal(nb_file, capsys, command):
    # an explicit empty selection names no check; it does not select them all
    code, out, err = run(capsys, [command, nb_file, "--check", ""])
    assert code == 2
    assert "--check names no check" in err and "''" in err and not out


@pytest.mark.parametrize(
    "command,text,extra",
    [
        ("normal-form", NB_PROBLEM, []),  # the file has no normal_form check
        ("check", NB_PROBLEM, ["--check", "inv"]),  # an id of another kind
        ("invariants", NB_PROBLEM, ["--check", "good"]),
        ("dirac", NB_PROBLEM, ["--check", "good"]),
        ("check", "chart x y\n", []),  # no check and no bivector
        ("dirac", NB_PROBLEM, ["--check", "thm,good"]),  # one id of another kind
    ],
    ids=["no-normal-form", "check-other-kind", "invariants-other-kind",
         "dirac-other-kind", "no-bivector", "dirac-one-of-another-kind"],
)
def test_empty_selection_is_refusal(tmp_path, capsys, command, text, extra):
    # a run that produces no record has no verdict, so it is not a pass
    f = tmp_path / "sel.prob"
    f.write_text(text)
    code, out, err = run(capsys, [command, str(f)] + extra)
    assert code == 2
    assert "no check" in err and not out
    if extra == ["--check", "thm,good"]:
        # the id of another kind is named, with its kind, and not skipped
        assert "good" in err and "jacobi" in err


NO_POINTS_PROBLEM = """\
chart x y
bivector B {
  1 2 = 1
}
check c1 invariants B
check c2 dirac B : tilde
"""


@pytest.mark.parametrize(
    "command,text,point",
    [
        ("invariants", NO_POINTS_PROBLEM, "1,2"),
        ("dirac", NO_POINTS_PROBLEM, "1,2"),
        ("normal-form", SPLIT_PROBLEM, "1,2,0,0"),
    ],
)
def test_empty_point_set_is_refusal(tmp_path, capsys, command, text, point):
    # no point lines and an empty grid: nothing to sample, so no verdict
    f = tmp_path / "nopoints.prob"
    f.write_text(text)
    code, out, err = run(capsys, [command, str(f), "--grid-size", "0"])
    assert code == 2
    assert "empty point set" in err and "PASS" not in out
    # one extra point is enough to run
    code, out, _ = run(capsys, [command, str(f), "--grid-size", "0", "--points", point])
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize("grid,asked", [(200000, 3), (2, 2)])
def test_dirac_asks_the_grid_for_three_points_at_most(tmp_path, capsys, monkeypatch, grid, asked):
    # with no point lines dirac runs at the first three grid points, so it
    # builds no more of the grid than that
    asks = []
    grid_points = cli.grid_points
    monkeypatch.setattr(cli, "grid_points", lambda chart, count: asks.append(count) or grid_points(chart, count))
    f = tmp_path / "nopoints.prob"
    f.write_text(NO_POINTS_PROBLEM)
    code, out, _ = run(capsys, ["dirac", str(f), "--grid-size", str(grid), "--format", "machine"])
    assert code == 0 and asks == [asked]
    assert len(json.loads(out)["witness"]) == asked


def test_negative_grid_size_is_refused(nb_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariants", nb_file, "--grid-size", "-1"])
    assert exc.value.code == 2
    assert "--grid-size" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "broken.prob"
    f.write_text("chart x y\nbivector B {\n 2 1 = 1\n}\n")
    code, _, err = run(capsys, ["check", str(f)])
    assert code == 2 and "line 3" in err


def test_exponent_past_the_packed_limit_is_refusal(tmp_path, capsys):
    # x^32704 parses; the Schouten square would hold x^65407
    high = "*".join(["x^64"] * 511)
    f = tmp_path / "high.prob"
    f.write_text(f"chart x y z\nbivector B {{\n 1 2 = {high}\n 1 3 = {high}\n}}\n")
    code, out, err = run(capsys, ["check", str(f)])
    assert code == 2 and out == "" and "32767" in err
    # one factor more does not parse
    f.write_text(f"chart x y\nbivector B {{\n 1 2 = {high}*x^64\n}}\n")
    code, _, err = run(capsys, ["check", str(f)])
    assert code == 2 and "line 3" in err and "32767" in err


@pytest.mark.parametrize("extra,code", [("", 0), ("*x", 2)])
def test_schouten_square_at_and_past_the_packed_limit(tmp_path, capsys, extra, code):
    # f = x^16384 makes the square form f * d_x(y f) = x^32767 y, the packed
    # limit; one more power of x passes it, and check refuses before any product
    f = "*".join(["x^64"] * 256) + extra
    path = tmp_path / "square.prob"
    path.write_text(f"chart x y z\nbivector B {{\n 1 2 = {f}\n 1 3 = y*{f}\n}}\ncheck j jacobi B\n")
    got, out, err = run(capsys, ["check", str(path)])
    assert got == code
    if code == 2:
        assert out == "" and err.splitlines() == [
            "error: a product has exponent 32769, past the maximum 32767"
        ]
    else:
        assert "[PASS" in out and err == ""


def test_deeply_nested_coefficient_is_refusal(tmp_path, capsys):
    # refused by the parser's nesting bound, not a RecursionError
    f = tmp_path / "deep.prob"
    f.write_text(f"chart x y\nbivector B {{\n 1 2 = {'(' * 3000}x{')' * 3000}\n}}\ncheck c jacobi B\n")
    code, out, err = run(capsys, ["check", str(f)])
    assert code == 2 and out == "" and "line 3: bad coefficient" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, ["check", "/nonexistent/none.prob"])
    assert code == 2 and "error" in err


def test_normal_form_passes(split_file, capsys):
    code, out, _ = run(
        capsys,
        ["normal-form", split_file, "--format", "machine", "--grid-size", "6"],
    )
    assert code == 0
    rec = json.loads(out.strip().splitlines()[0])
    assert rec["verdict"] == "pass"
    assert rec["witness"]["fiber_form_ok"] is True
    assert all(p["match"] for p in rec["witness"]["points"])


def test_normal_form_refuses_names_of_the_wrong_kind(tmp_path, capsys):
    f = tmp_path / "swapped.prob"
    f.write_text(SPLIT_PROBLEM.replace("PI X xi1 xi2", "PI xi1 X xi2"))
    code, out, err = run(capsys, ["normal-form", str(f)])
    assert code == 2 and not out
    assert err.startswith("error: line 18: check 's1' (normal_form) takes: ")
    assert "xi1 (oneform) X (vector)" in err


def test_normal_form_refuses_without_bundle(tmp_path, capsys):
    f = tmp_path / "nobundle.prob"
    f.write_text(
        "chart u v\nbivector B {\n 1 2 = u\n}\nvector X {\n 1 = u\n}\n"
        "oneform a {\n 1 = u\n}\ncheck c normal_form B X a a\n"
    )
    code, out, err = run(capsys, ["normal-form", str(f)])
    assert code == 2 and not out
    assert err == "error: line 11: check 'c' needs a bundle line\n"


def test_normal_form_samples_the_given_points(split_file, capsys):
    # the default grid of 20 gives its first ten points, then the given one
    code, out, _ = run(capsys, ["normal-form", split_file, "--format", "machine",
                                "--points", "7,11,13,17"])
    assert code == 0
    points = [p["point"] for p in json.loads(out.strip())["witness"]["points"]]
    assert len(points) == 11 and points[-1] == {"u": "7", "v": "11", "q": "13", "p": "17"}


@pytest.mark.parametrize("grid, points, k", [(3, None, 3), (2, "7,11,13,17;1,2,0,0", 4)])
def test_normal_form_evaluates_pi_twice_per_point(split_file, capsys, monkeypatch, grid, points, k):
    # once on N, for the mixed and the splitting check, and once at the point
    made = evaluated_fields(monkeypatch)
    argv = ["normal-form", split_file, "--format", "machine", "--grid-size", str(grid)]
    code, out, _ = run(capsys, argv + (["--points", points] if points else []))
    assert code == 0
    assert len(json.loads(out.strip())["witness"]["points"]) == k
    assert sum(isinstance(f, MultiField) for f in made) == 2 * k


def test_normal_form_refuses_an_empty_base(tmp_path, capsys):
    # the fiber data of SPLIT_PROBLEM, which pass; but N would be a point
    f = tmp_path / "point.prob"
    f.write_text(
        "chart q p\nbundle base: ; fiber: q p\nbivector PI {\n 1 2 = 1\n}\n"
        "vector X {\n 1 = q\n 2 = p\n}\noneform xi1 {\n 1 = -1*p\n 2 = q\n}\n"
        "oneform xi2 {\n 1 = 0\n}\ncheck s1 normal_form PI X xi1 xi2\n"
    )
    code, out, err = run(capsys, ["normal-form", str(f)])
    assert code == 2 and not out
    assert err.count("error:") == 1 and "base is empty" in err


def test_normal_form_refuses_an_empty_fiber(tmp_path, capsys):
    # N would be the whole chart: with a zero section every splitting
    # condition holds vacuously, so a pass would say nothing
    f = tmp_path / "whole.prob"
    f.write_text(
        "chart u v\nbundle base: u v ; fiber:\nbivector PI {\n 1 2 = 1\n}\n"
        "vector X {\n 1 = 0\n}\noneform xi1 {\n 1 = 0\n}\noneform xi2 {\n 1 = 0\n}\n"
        "check s1 normal_form PI X xi1 xi2\n"
    )
    code, out, err = run(capsys, ["normal-form", str(f)])
    assert code == 2 and not out
    assert err.count("error:") == 1 and "fiber is empty" in err


def test_normal_form_fails_on_a_section_that_is_no_euler_field(tmp_path, capsys):
    # X = 2q, 2p with xi1 = -2p, 2q stays in the graph of pi, but it
    # linearizes to twice the Euler field
    f = tmp_path / "doubled.prob"
    f.write_text(SPLIT_PROBLEM.replace("= q\n", "= 2*q\n").replace("= p\n", "= 2*p\n")
                 .replace("-1*p", "-2*p"))
    code, out, _ = run(capsys, ["normal-form", str(f), "--format", "machine"])
    assert code == 1
    rec = json.loads(out.strip())
    assert rec["verdict"] == "fail"
    assert rec["witness"]["euler_linear_ok"] is False and rec["witness"]["vanishes_on_N"] is True


def test_normal_form_fails_on_a_section_that_does_not_vanish_on_N(tmp_path, capsys):
    # xi1 = u dv is not zero on N, so d xi1 = du ^ dv has fiber weight 0 and
    # no Moser average: a fail with no B, no omega and no point compared
    f = tmp_path / "weight0.prob"
    f.write_text(
        "chart u v q p\nbundle base: u v ; fiber: q p\nbivector PI {\n 3 4 = 1\n}\n"
        "vector X {\n 3 = 0\n}\noneform xi1 {\n 2 = u\n}\noneform xi2 {\n 3 = 0\n}\n"
        "check w0 normal_form PI X xi1 xi2\n"
    )
    code, out, err = run(capsys, ["normal-form", str(f), "--format", "machine"])
    assert code == 1 and not err
    rec = json.loads(out.strip())
    assert rec["verdict"] == "fail"
    assert rec["witness"] == {
        "B": None, "omega": None, "fiber_form_ok": None, "vanishes_on_N": False,
        "euler_linear_ok": False, "euler_higher_order_warning": False, "points": [],
    }


# -- fuzzing the exit-code contract ------------------------------------------
#
# Problem texts are built from chart, bundle, point, block, entry, check and
# junk fragments, then run through parse_problem and main() in-process with a
# random subcommand and flags.  The contract: parse_problem returns or raises
# ProblemParseError, and main() ends with 0, 1 or 2, never a traceback.

# each fragment list is well formed; the BAD_ lists are mixed in only when a
# text is drawn as malformed.  {v} and {w} stand for chart variables.
CHARTS, BAD_CHARTS = ["x y", "x y z", "u v q p", "x"], ["x x", "i j", "x y 1z", ""]
COEFFS = ["0", "1", "i", "1 + 2*i", "{v}", "-1*{v}", "{v}^2 - i*{w}", "{v}*{w} + 1/2"]
BAD_COEFFS = ["({v}", "1/0", "{v}^99", "nosuchvar", ""]
RATIONALS, BAD_RATIONALS = ["0", "1", "-2", "1/2", "3"], ["1/0", "a", "", "1e9", "1_0"]
BLOCKS = [("bivector", "B", 2), ("bivector", "C", 2), ("vector", "X", 1),
          ("oneform", "a", 1), ("oneform", "b", 1), ("form", "w", 2)]
BLOCK_NAMES = {name for _, name, _ in BLOCKS}
# a normal_form check names four of the six blocks and needs a bundle line,
# so it is drawn together with them, not left to chance
NORMAL_FORM_CHECK = "c5 normal_form B X a b"
NORMAL_FORM_BLOCKS = [b for b in BLOCKS if b[1] in NORMAL_FORM_CHECK.split()]
# CHECKS fit their signature once the blocks they name are drawn (and, for
# normal_form, a bundle); no BAD_CHECKS does
CHECKS = ["c1 jacobi B", "c2 invariants B", "c3 dirac B : tilde | indices",
          "c4 dirac B : theorem_7_18", NORMAL_FORM_CHECK,
          "c6 dirac C : hat | conjugate | check_cot", "c10 dirac C : tilde_cot | hat_cot"]
BAD_CHECKS = ["c7 frob B", "c8 jacobi", "c9 dirac", "c11 invariants", "c12 normal_form B X a",
              "c13 dirac B : frobnicate", "c14 jacobi B C", "c15 invariants X", "c16 dirac B tilde",
              "c17 dirac B :", "c18 dirac B : | tilde", "c19 dirac B : tilde |",
              "c20 normal_form B a X b", "c,21 jacobi B"]
BAD_LINES = ["garbage line", "{", "}", "= =", "check", "point", "bivector B", "bundle nonsense",
             "point = 1", "point = 1, 2", "point p q = 3, 4", "1 2 = 1", "chart x y",
             "check c1 jacobi C", "# comment", ""]


@st.composite
def problem_texts(draw, well_formed=False):
    """Problem texts from chart, bundle, point, block, entry and check
    fragments.  Unless well_formed, some are drawn malformed: bad fragments
    and junk lines may turn up anywhere.  The rest are well formed, so most
    runs get past parsing."""
    bad = not well_formed and draw(st.integers(0, 2)) == 2

    def pick(good, worse):
        return draw(st.sampled_from(good + worse if bad else good))

    names = pick(CHARTS, BAD_CHARTS).split()
    n = len(names)
    var = st.sampled_from(names or ["x"])
    lines = ["chart " + " ".join(names)]
    normal_form = n > 0 and draw(st.integers(0, 2)) == 0
    if n and (normal_form or draw(st.booleans())):
        k = draw(st.integers(0, n))  # the base or the fiber may be empty
        lines.append(f"bundle base: {' '.join(names[:k])} ; fiber: {' '.join(names[k:])}")
    for p in range(draw(st.integers(0, 2))):
        size = n + draw(st.integers(-1, 1)) if bad else n
        vals = [pick(RATIONALS, BAD_RATIONALS) for _ in range(size)]
        lines.append(f"point p{p} = {', '.join(vals)}")
    blocks = draw(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=4, unique=True))
    if normal_form:
        blocks += [b for b in NORMAL_FORM_BLOCKS if b not in blocks]
    for kw, name, arity in blocks:
        lines.append(f"{kw} {name} {{")
        used = []
        for _ in range(draw(st.integers(0, 4))):
            if bad:
                idx = draw(st.lists(st.integers(0, n + 1), min_size=arity, max_size=arity))
            elif arity <= n:
                idx = sorted(draw(st.lists(st.integers(1, n), min_size=arity,
                                           max_size=arity, unique=True)))
                if idx in used:  # a repeated index is a parse error
                    continue
                used.append(idx)
            else:
                continue
            coeff = pick(COEFFS, BAD_COEFFS).format(v=draw(var), w=draw(var))
            lines.append(" ".join(map(str, idx)) + " = " + coeff)
        if not bad or draw(st.booleans()):
            lines.append("}")
    known = {name for _, name, _ in blocks}
    has_bundle = any(line.startswith("bundle") for line in lines)
    checks = draw(st.lists(st.sampled_from(CHECKS + BAD_CHECKS if bad else CHECKS),
                           max_size=4, unique=True))
    if normal_form and NORMAL_FORM_CHECK not in checks:
        checks.append(NORMAL_FORM_CHECK)
    for c in checks:
        _, kind, *args = c.split()
        # a check naming a block that was not drawn, or a normal_form check
        # without a bundle, fits no signature
        if bad or (set(args) & BLOCK_NAMES <= known and (kind != "normal_form" or has_bundle)):
            lines.append("check " + c)
    if bad:
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    return "\n".join(lines) + "\n"


def test_well_formed_texts_reach_a_normal_form_check():
    # the strategy draws a normal_form check with its bundle line and its
    # four blocks, so the round trip and the fuzz below reach normal_form
    text = find(problem_texts(well_formed=True), lambda t: "normal_form" in t,
                settings=settings(derandomize=True, database=None, max_examples=50))
    assert [kind for _, kind, _ in parse_problem(text).checks].count("normal_form") == 1


def test_cli_maps_exactly_the_dirac_ops_of_the_table():
    # parse_problem admits the table's ops, and cli runs each of them
    assert set(cli._DIRAC_OPS) == set(DIRAC_OPS)


@settings(max_examples=200, deadline=None)
@given(problem_texts(well_formed=True))
def test_generated_files_round_trip(text):
    pf = parse_problem(text)
    out = dumps(pf)
    assert parse_problem(out) == pf
    assert dumps(parse_problem(out)) == out


POINTS = ["1,2", "1/2,1,0", "3,5,7", "1,1,1,1", "1/0,1", "a", "", ";", "1,2;3,4", "0,0", "1e9,1", "1_0,2"]


@st.composite
def cli_runs(draw):
    """(problem text, argv): a random subcommand and flags; --check ids come
    from the text's own checks, plus an unknown and an empty one."""
    text = draw(problem_texts())
    argv = [draw(st.sampled_from(["check", "invariants", "dirac", "normal-form"]))]
    argv += ["--grid-size", str(draw(st.integers(0, 3)))]
    argv += ["--format", draw(st.sampled_from(["human", "machine"]))]
    if draw(st.booleans()):
        argv.append("--points=" + draw(st.sampled_from(POINTS)))
    if draw(st.booleans()):
        ids = re.findall(r"^check (\S+)", text, re.M) + ["nosuch", ""]
        argv.append("--check=" + ",".join(draw(st.lists(st.sampled_from(ids), min_size=1,
                                                        max_size=3))))
    return text, argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_runs())
# a repeated chart variable used to escape parse_problem as a ValueError
@example(("chart x x\nbivector B {\n 1 2 = x\n}\n", ["check", "--grid-size", "1"]))
# a chart variable i used to turn the imaginary unit into a variable
@example(("chart i j\nbivector B {\n 1 2 = 1 + i\n}\ncheck c1 jacobi B\n", ["check"]))
def test_fuzzed_inputs_keep_the_exit_code_contract(tmp_path, capsys, run_case):
    text, argv = run_case
    try:
        parse_problem(text)
    except ProblemParseError:
        pass
    f = tmp_path / "fuzz.prob"
    f.write_text(text)
    try:
        code = main(argv[:1] + [str(f)] + argv[1:])
    except SystemExit as exc:  # argparse's own refusals
        code = exc.code
    capsys.readouterr()
    assert code in (0, 1, 2)
