"""The verdict corpus: every subcommand, in both formats, under the default
grid and --grid-size 3, on the problem files in tests/corpus, against the
outcomes committed in tests/corpus/expected.json.

A run is compared on its exit code, its stderr, and its stdout: for
--format machine, each record's check, kind, verdict and witness; for the
human format, the text with each record's time masked.  Fields a record
gains later do not change the projection; a changed verdict or witness
does.  An expectation changes only by a deliberate edit of expected.json,
with its reason recorded in CHANGES.md.
"""

import contextlib
import io
import json
import re
from pathlib import Path

from cxpoisson.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus"
COMMANDS = ("check", "invariants", "dirac", "normal-form")
FORMATS = ("human", "machine")
GRIDS = ((), ("--grid-size", "3"))
_TIME = re.compile(r"  \d+(?:\.\d+)?ms$", re.M)


def _projection(fmt, text):
    if fmt == "human":
        return _TIME.sub("  <time>ms", text)
    fields = ("check", "kind", "verdict", "witness")
    return [{k: rec[k] for k in fields} for rec in map(json.loads, text.splitlines())]


def run_corpus():
    """{"file command format grid": {"exit", "out", "err"}} for every run."""
    runs = {}
    for path in sorted(CORPUS.glob("*.prob")):
        for cmd in COMMANDS:
            for fmt in FORMATS:
                for grid in GRIDS:
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main([cmd, str(path), "--format", fmt, *grid])
                    key = f"{path.name} {cmd} {fmt} {'grid-3' if grid else 'grid-default'}"
                    runs[key] = {"exit": code, "out": _projection(fmt, out.getvalue()),
                                 "err": err.getvalue()}
    return runs


def test_corpus_runs_match_the_committed_outcomes():
    expected = json.loads((CORPUS / "expected.json").read_text(encoding="utf-8"))
    got = run_corpus()
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key
