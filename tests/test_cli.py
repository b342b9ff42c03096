"""Command-line interface: exit codes, filters, output formats."""

import json
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cxpoisson.cli import main
from cxpoisson.problem import ProblemParseError, parse_problem

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
    assert by_id["bad"]["witness"]["pde_residuals"]


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


def test_dirac_refuses_unknown_op(tmp_path, capsys):
    f = tmp_path / "bad.prob"
    f.write_text(
        "chart x y\nbivector B {\n 1 2 = 1\n}\ncheck c dirac B : frobnicate\n"
    )
    code, out, _ = run(capsys, ["dirac", str(f)])
    assert code == 2
    assert "REFUSED" in out.upper()


def test_dirac_complexifies_real_steps(nb_file, capsys):
    with open(nb_file, "a") as fh:
        fh.write("check hc dirac NB : hat | conjugate | indices\n")
    code, out, _ = run(
        capsys, ["dirac", nb_file, "--format", "machine", "--check", "hc"]
    )
    assert code == 0
    steps = json.loads(out.strip())["witness"][0]["steps"]
    assert [s["op"] for s in steps] == ["hat", "conjugate", "indices"]


@pytest.mark.parametrize("command,kind", [("check", "jacobi"), ("invariants", "invariants")])
def test_check_without_bivector_is_refusal(tmp_path, capsys, command, kind):
    f = tmp_path / "noname.prob"
    f.write_text(f"chart x y\nbivector B {{\n 1 2 = 1\n}}\ncheck c1 {kind}\n")
    code, out, _ = run(capsys, [command, str(f)])
    assert code == 2
    assert "REFUSED" in out.upper()


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
    [("invariants", "1,2"), ("invariants", "1/0,1,1"), ("dirac", "1/0,1,1")],
)
def test_bad_points_flag_is_refusal(nb_file, capsys, command, points):
    code, out, err = run(capsys, [command, nb_file, "--points", points])
    assert code == 2 and "error" in err and not out


@pytest.mark.parametrize("command", ["check", "invariants", "dirac", "normal-form"])
def test_unknown_check_id_is_refusal(nb_file, capsys, command):
    code, out, err = run(capsys, [command, nb_file, "--check", "good,nosuch"])
    assert code == 2
    assert "nosuch" in err and "good" not in err and not out


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
    code, out, _ = run(capsys, ["normal-form", str(f)])
    assert code == 2
    assert "REFUSED" in out.upper()


def test_normal_form_refuses_without_bundle(tmp_path, capsys):
    f = tmp_path / "nobundle.prob"
    f.write_text(
        "chart u v\nbivector B {\n 1 2 = u\n}\nvector X {\n 1 = u\n}\n"
        "oneform a {\n 1 = u\n}\ncheck c normal_form B X a a\n"
    )
    code, out, _ = run(capsys, ["normal-form", str(f)])
    assert code == 2
    assert "no bundle" in out.lower()


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
RATIONALS, BAD_RATIONALS = ["0", "1", "-2", "1/2", "3"], ["1/0", "a", ""]
BLOCKS = [("bivector", "B", 2), ("bivector", "C", 2), ("vector", "X", 1),
          ("oneform", "a", 1), ("oneform", "b", 1), ("form", "w", 2)]
CHECKS = ["c1 jacobi B", "c2 invariants B", "c3 dirac B : tilde | indices",
          "c4 dirac B : theorem_7_18", "c5 normal_form B X a b",
          "c6 dirac C : hat | conjugate | check_cot", "c7 frob B", "c8 jacobi", "c9 dirac",
          "c10 dirac C : tilde_cot | hat_cot", "c11 invariants", "c12 normal_form B X a",
          "c13 dirac B : frobnicate"]
BAD_LINES = ["garbage line", "{", "}", "= =", "check", "point", "bivector B", "bundle nonsense",
             "point = 1", "1 2 = 1", "chart x y", "check c1 jacobi C", "# comment", ""]


@st.composite
def problem_texts(draw):
    """Problem texts from chart, bundle, point, block, entry and check
    fragments.  Some are drawn malformed: bad fragments and junk lines may
    turn up anywhere.  The rest are well formed, so most runs get past
    parsing."""
    bad = draw(st.integers(0, 2)) == 2

    def pick(good, worse):
        return draw(st.sampled_from(good + worse if bad else good))

    names = pick(CHARTS, BAD_CHARTS).split()
    n = len(names)
    var = st.sampled_from(names or ["x"])
    lines = ["chart " + " ".join(names)]
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        lines.append(f"bundle base: {' '.join(names[:k])} ; fiber: {' '.join(names[k:])}")
    for p in range(draw(st.integers(0, 2))):
        size = n + draw(st.integers(-1, 1)) if bad else n
        vals = [pick(RATIONALS, BAD_RATIONALS) for _ in range(size)]
        lines.append(f"point p{p} = {', '.join(vals)}")
    blocks = draw(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=4, unique=True))
    for kw, name, arity in blocks:
        lines.append(f"{kw} {name} {{")
        for _ in range(draw(st.integers(0, 4))):
            if bad:
                idx = draw(st.lists(st.integers(0, n + 1), min_size=arity, max_size=arity))
            elif arity <= n:
                idx = sorted(draw(st.lists(st.integers(1, n), min_size=arity,
                                           max_size=arity, unique=True)))
            else:
                continue
            coeff = pick(COEFFS, BAD_COEFFS).format(v=draw(var), w=draw(var))
            lines.append(" ".join(map(str, idx)) + " = " + coeff)
        if not bad or draw(st.booleans()):
            lines.append("}")
    known = {name for _, name, _ in blocks}
    for c in draw(st.lists(st.sampled_from(CHECKS), max_size=4, unique=True)):
        _, kind, *args = c.split()
        if bad or kind not in ("jacobi", "invariants", "normal_form") or set(args) <= known:
            lines.append("check " + c)
    if bad:
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    return "\n".join(lines) + "\n"


POINTS = ["1,2", "1/2,1,0", "3,5,7", "1,1,1,1", "1/0,1", "a", "", ";", "1,2;3,4", "0,0"]


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
