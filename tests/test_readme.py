"""The README's examples, run as written: the quick tour against its
commented values, and the byte-exact CLI examples against their output; and
the private names of its module map, against the modules."""

import ast
import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bisiegel

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(heading: str, fence: str) -> str:
    """The first ``fence`` code block after the line ``heading``."""
    text = README.read_text()
    start = text.index(f"\n```{fence}\n", text.index(heading)) + len(fence) + 5
    return text[start:text.index("\n```", start) + 1]


def test_quick_tour_gives_its_commented_values():
    # Each expression line's value, keyed by its source text.
    block = fenced_block("## Library quick tour", "python")
    names, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(block, node)] = eval(code, names)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), names)
    log3 = math.log(3.0)
    assert values["distance(z1, z2)"] == pytest.approx(log3, abs=1e-12)
    red = names["red"]
    assert red.lambda1 == pytest.approx(2.0, abs=1e-12)
    assert red.lambda2 == pytest.approx(1.0, abs=1e-12)
    moved = values["apply(red.mover, z2)"]
    assert abs(moved.tau - 2j) <= 1e-12 and abs(moved.z - 1j) <= 1e-12
    mid = values["connect(z1, z2).point(distance(z1, z2) / 2)"]
    for end in (names["z1"], names["z2"]):
        assert bisiegel.distance(mid, end) == pytest.approx(log3 / 2.0, abs=1e-12)
    assert values["distance(apply(m, z1), apply(m, z2))"] == pytest.approx(log3, abs=1e-12)


def cli_examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for each ``$`` line of the byte-exact examples."""
    examples = []
    lines = iter(fenced_block("Worked examples (byte-exact):", "sh").splitlines())
    for line in lines:
        if line.startswith("$ "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines).strip()
            examples.append([command, ""])
        elif line:
            examples[-1][1] += line + "\n"
    return [tuple(e) for e in examples]


def test_byte_exact_cli_examples(tmp_path):
    # Run in order in one directory (an example writes a file a later one
    # reads), with `bisiegel` as this interpreter on this source tree.
    src = str(Path(bisiegel.__file__).resolve().parents[1])
    env = dict(os.environ, PY=sys.executable)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    examples = cli_examples()
    assert sum(bool(out) for _, out in examples) == 3
    for command, expected in examples:
        script = 'bisiegel() { "$PY" -m bisiegel "$@"; }\n' + command
        done = subprocess.run(
            ["bash", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, ""), command


def test_module_map_private_names_resolve():
    # Each backticked private name in a module map row (a leading underscore,
    # optionally Class.-qualified, a trailing "()" dropped) is an attribute of
    # that row's module, so the map cannot keep naming a helper that is gone.
    text = README.read_text()
    rows = re.findall(r"^\| `(\w+)` +\| (.*) \|$", text[text.index("Module map:"):], re.M)
    assert len(rows) == 7
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(f"bisiegel.{module_name}")
        for name in re.findall(r"`((?:[A-Z]\w*\.)?_\w+)(?:\(\))?`", contents):
            owner, _, attr = name.rpartition(".")
            if not hasattr(getattr(module, owner, None) if owner else module, attr):
                missing.append(f"{module_name}: {name}")
    assert missing == []
