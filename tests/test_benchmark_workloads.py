"""The benchmark's workloads call qscd by name; every call must still work.

``perfbench/workloads.py`` is read, never changed. A qscd function it calls
that is renamed or changes its signature would fail every benchmark run
while the rest of the suite passes. So each workload runs here at smoke
size: round 0 with every operation's check and the workload's ``finish()``,
then one more round with the tracer installed. The run is a subprocess with
perfbench/ and src/ on the path, because the workloads import perfbench's
``oracles`` by bare name, the name of tests/oracles.py too. It writes no
bytecode, so nothing is left in perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

SCRIPT = """
import importlib.util
import sys

import qscd
import tracing
import workloads

state = {"tracer": tracing.OFF}
workload = workloads.build(sys.argv[1], qscd, 1, "smoke", lambda: state["tracer"])
errors = []


def run_round(r):
    for op in workload.round(r):
        problem = op.check(op.run())
        if problem:
            errors.append(f"round {r} {op.kind}: {problem}")


run_round(0)
if importlib.util.find_spec("networkx") is not None:
    errors.extend(workload.finish())
tracer = tracing.Tracer()
state["tracer"] = tracer
tracer.install()
try:
    run_round(1)
finally:
    tracer.uninstall()
    state["tracer"] = tracing.OFF
if not tracer.calls:
    errors.append("the traced round recorded no call")
print("\\n".join(errors))
sys.exit(1 if errors else 0)
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_checked_and_traced(workload):
    path = [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, workload], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
