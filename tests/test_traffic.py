"""Traffic audit: which lines of qscd the pinned commands and the benchmark run.

Two subprocesses record the executed lines of ``src/qscd/*.py`` with
``sys.settrace``. Part ``commands`` runs every command of
``tests/test_command_bytes.py``'s PINS on its INPUTS, then ``cli.main`` on
``selftest --seed 20260810``. Part ``workloads`` runs round 0 of each
benchmark workload at smoke size, with every operation's check. The parts
run apart because the workloads import perfbench's ``oracles`` by bare
name, the name of tests/oracles.py too.

The test prints each module's statement lines (lines that hold bytecode)
that never ran, and asserts which functions ran no line at all. A function
that no traffic reaches is dead or untested code, and a simplification
that moves traffic shows up here.

Slow (about 12 s on 2 CPUs): ``pytest -m slow -s tests/test_traffic.py``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qscd"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

# Functions that no traffic reaches, each with its reason.
UNREACHED = {
    # ROADMAP item 13's names: the package no longer calls them, and the
    # benchmark's tracer still lists them, so they stay until it drops them.
    "permgroup.perm_pow": "item 13: kept only for the tracer",
    "qstate.SparseState.fourier_control": "item 13: kept only for the tracer",
    "qstate.SparseState.controlled_power": "item 13: kept only for the tracer",
    "graphauto.automorphisms": "item 13: kept only for the tracer",
    "graphauto.iter_automorphisms": "called only by graphauto.automorphisms",
}

SCRIPT = """
import contextlib
import io
import json
import sys
from collections import defaultdict
from pathlib import Path

src, part, out, *names = sys.argv[1:]
executed = defaultdict(set)


def local(frame, event, arg):
    if event == "line":
        executed[frame.f_code.co_filename].add(frame.f_lineno)
    return local


def trace(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(src) else None


sys.settrace(trace)
errors = []
with contextlib.redirect_stdout(io.StringIO()):
    import qscd
    from qscd import cli

    if part == "commands":
        import test_command_bytes as pins

        for name, text in pins.INPUTS.items():
            Path(name).write_text(text)
        for command in pins.PINS:
            if cli.run(command.split()) != 0:
                errors.append(command)
        sys.argv = ["qscd", "selftest", "--seed", "20260810"]
        try:
            cli.main()
        except SystemExit as exc:
            if exc.code != 0:
                errors.append(f"selftest exit {exc.code}")
    else:
        import tracing
        import workloads

        for name in names:
            workload = workloads.build(name, qscd, 1, "smoke", lambda: tracing.OFF)
            for op in workload.round(0):
                problem = op.check(op.run())
                if problem:
                    errors.append(f"{name} {op.kind}: {problem}")
sys.settrace(None)
Path(out).write_text(json.dumps({"errors": errors, "lines": {k: sorted(v) for k, v in executed.items()}}))
"""


def run_part(part: str, path: list[Path], cwd: Path, out: Path) -> dict[str, set[int]]:
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [*map(str, path), os.environ.get("PYTHONPATH", "")])),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC), part, str(out), *WORKLOADS],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(out.read_text())
    assert result["errors"] == []
    return {Path(name).stem: set(lines) for name, lines in result["lines"].items()}


def code_lines(code) -> set[int]:
    """Lines that hold bytecode in code and in every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}  # None or 0: no source line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def functions(tree: ast.Module, module: str):
    """(qualified name, first body line, last line) of each non-dunder
    module-level function and method."""
    for node in tree.body:
        scoped = [(f"{module}.{node.name}", item) for item in node.body] if isinstance(node, ast.ClassDef) else []
        for prefix, item in [(module, node), *scoped]:
            if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                yield f"{prefix}.{item.name}", item.body[0].lineno, item.end_lineno


@pytest.mark.slow
def test_traffic_reaches_every_function_but_the_named_ones(tmp_path):
    commands = run_part("commands", [ROOT / "tests", ROOT / "src"], tmp_path, tmp_path / "commands.json")
    bench = run_part("workloads", [ROOT / "perfbench", ROOT / "src"], ROOT, tmp_path / "workloads.json")
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        module, text = path.stem, path.read_text()
        ran = commands.get(module, set()) | bench.get(module, set())
        missed = sorted(code_lines(compile(text, str(path), "exec")) - ran)
        print(f"{module}: {len(missed)} statement lines never ran")
        source = text.splitlines()
        for line in missed:
            print(f"  {path.name}:{line}: {source[line - 1].strip()}")
        unreached += [
            name
            for name, first, last in functions(ast.parse(text), module)
            if not any(first <= line <= last for line in ran)
        ]
    assert sorted(unreached) == sorted(UNREACHED)
