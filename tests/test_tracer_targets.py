"""The benchmark names caliber functions (the tracer) and check ids (the
worker), so every name it lists must exist; a deleted or renamed one would
otherwise fail only a benchmark run."""

import importlib.util
from pathlib import Path

from caliber import suites

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = _load("tracer")
    missing = [f"{group}: {attr}" for group, owner, attr, _ in tracer._targets() if not hasattr(owner, attr)]
    assert not missing


def test_benchmark_expects_the_ids_each_suite_builds():
    worker = _load("worker")
    for (suite, n), expected in worker.EXPECTED_IDS.items():
        build, defaults = suites._SUITES[suite]
        built = [check_id for check_id, _ in build(n, 0, **dict.fromkeys(defaults, 1))]  # built, not run
        assert sorted(built) == sorted(expected), (suite, n)
