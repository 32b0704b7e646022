"""The names the benchmark hooks into carnot must keep resolving.

``perfbench/spans.py`` wraps carnot functions and ClosedFormPath methods by
name for the traced run, and ``perfbench/test_perfbench.py`` monkeypatches
``groups._nilpotent_apply``. A rename breaks those at install time, so this
test loads ``spans.py`` (without changing it) and resolves every name.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_hooks_resolve():
    spans = load_spans()
    missing = [
        f"{modname}.{attr}"
        for _, modname, attr, _ in spans.FUNCTIONS
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]
    cls = importlib.import_module("carnot.expmap").ClosedFormPath
    missing += [
        f"ClosedFormPath.{attr}"
        for _, attr, _ in spans.METHODS
        if attr not in cls.__dict__
    ]
    groups = importlib.import_module("carnot.groups")
    if not callable(getattr(groups, "_nilpotent_apply", None)):
        missing.append("carnot.groups._nilpotent_apply")
    assert missing == []
