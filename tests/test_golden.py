"""Pin the exact stdout and exit status of the commands across commits.

``golden_outputs.json`` lists, for each command line, the sha256 of its
stdout and its exit status.  A refactor that changes any printed byte fails
here.  When a change of output is intended, regenerate the file with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from origami_covers.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_outputs.json")

COMMANDS = (
    [["generate", "--genus", str(g)] for g in (1, 2, 3, 5, 8, 12, 32, 64)]
    + [["generate", "--genus", str(g), "--format", "text"]
       for g in (1, 2, 3, 5, 8, 12)]
    + [["degenerate", "--genus", str(g)] for g in (2, 3, 5, 8, 16, 32, 64)]
    + [["degenerate", "--genus", "128", "--max-genus", "128"]]
    + [["degenerate", "--genus", "256", "--max-genus", "256"]]
    + [["origami", "--genus", str(g)] for g in (1, 3, 7)]
    + [["selftest", "--max-genus", str(g)] for g in (4, 8, 12)]
)


def run(argv):
    """(exit status, sha256 of stdout) of one in-process command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_lists_every_command():
    assert [case["argv"] for case in load()] == COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_golden(argv):
    case, = (case for case in load() if case["argv"] == argv)
    assert run(argv) == (case["exit"], case["sha256"])


if __name__ == "__main__":
    cases = []
    for argv in COMMANDS:
        code, digest = run(argv)
        cases.append({"argv": argv, "exit": code, "sha256": digest})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(map(json.dumps, cases)) + "\n]\n")
