"""The benchmark's traced call sites still name callables in the package.

perfbench/child.py wraps package functions by (module, attribute), so a
rename in the package would otherwise only show as a failed traced run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import charterseg.cli as cli

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_every_wrapped_name_is_a_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    # main() also wraps the CLI's config loader to time the setup.
    sites = [(cli, "_load_run_config", "setup")]
    sites += [(module, attr, span) for module, attr, span, _ in child._traced_names()]
    for module, attr, span in sites:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"
