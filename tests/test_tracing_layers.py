"""The benchmark's tracer wraps qscd functions by name; every name must resolve.

``perfbench/tracing.py`` is loaded from its path and read, never changed. A
name it lists that qscd no longer has would crash every traced run.
"""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attrs in tracing.LAYERS.items():
        namespace = importlib.import_module(f"qscd.{module}")
        for attr in attrs:
            try:
                target = reduce(getattr, attr.split("."), namespace)
            except AttributeError:
                missing.append(f"{module}.{attr}")
                continue
            assert callable(target), f"{module}.{attr}"
    assert missing == []
