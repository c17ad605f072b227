"""The benchmark tracer wraps caliber functions by name, so every name it
lists must exist; a deleted or renamed one would fail only a traced run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{group}: {attr}" for group, owner, attr, _ in tracer._targets() if not hasattr(owner, attr)]
    assert not missing
