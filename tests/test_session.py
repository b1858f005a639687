"""The command line as a shell runs it: the README's session and a reader that stops early."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import onepoint
import onepoint as op

SRC = Path(onepoint.__file__).resolve().parent.parent
README = Path(__file__).resolve().parent.parent / "README.md"


def session_steps():
    """The README's session block as (command, the lines shown under it) pairs."""
    block = README.read_text(encoding="utf-8").split("A session:\n\n```\n", 1)[1]
    steps = []
    for line in block.split("\n```", 1)[0].splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        elif line:
            steps[-1][1].append(line)
    return steps


def test_readme_session_runs_as_written(tmp_path):
    steps = session_steps()
    assert [command.split()[0] for command, _ in steps] == ["onepoint", "cat"] + ["onepoint"] * 3
    program = f"{shlex.quote(sys.executable)} -m onepoint.cli"
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    for command, shown in steps:
        if command == "cat wide.json":
            (tmp_path / "wide.json").write_text("\n".join(shown) + "\n", encoding="utf-8")
            continue
        # verify exits 1 on wide.json, a non-member, so the exit code is not checked
        done = subprocess.run(["bash", "-c", command.replace("onepoint ", program + " ", 1)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert (done.stdout.splitlines(), done.stderr) == (shown, ""), command


# a fresh interpreter runs structured verify on one file from SRC and exits with its code
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from onepoint.cli import main
raise SystemExit(main(["--format", "structured", "verify", sys.argv[2]]))
"""


def test_a_reader_that_stops_early_gets_no_traceback(tmp_path):
    # conv{0, 60e1, 60e2, 60e3} is no member, and its document lists all 32,509 interior
    # points, far more than a pipe buffer holds, so the child is still writing at the close
    path = tmp_path / "tet60.json"
    tet60 = op.LatticeSimplex(((0, 0, 0), (60, 0, 0), (0, 60, 0), (0, 0, 60)))
    path.write_text(op.simplex_to_text(tet60), encoding="utf-8")
    child = subprocess.Popen([sys.executable, "-I", "-c", CHILD, str(SRC), str(path)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (1, b"")
