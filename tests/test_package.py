"""The package's surface: `import qscd` loads its modules and re-exports none
of their names, and the README's quick start runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["graphauto", "permgroup", "pkc", "qscdcyc", "qscdff", "qstate", "reductions", "seeding", "selftest"]


def test_import_qscd_holds_the_modules_and_the_version_only():
    # A fresh interpreter, so that no module another test imported shows up.
    probe = (
        "import types, qscd\n"
        "for name, value in sorted(vars(qscd).items()):\n"
        "    if not name.startswith('_'):\n"
        "        print(name, isinstance(value, types.ModuleType))\n"
        "print(qscd.__version__)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.stdout.splitlines() == [f"{name} True" for name in MODULES] + ["0.1.0"]
    assert len((ROOT / "src" / "qscd" / "__init__.py").read_text().splitlines()) <= 15


def test_readme_quick_start_runs_as_written():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quick start", "exec"), {})
