#!/usr/bin/env python3
"""List the statements of `src/caliber` that no run of the project reaches.

Usage: python scripts/census.py

A stdlib `sys.settrace` tracer, restricted to the files of `src/caliber`
(no `coverage` package is needed), records every line executed while this
script runs, in one process:
- the tier-1 tests, through `pytest.main`;
- every CLI subcommand at n = 1, 2, 3 with small counts, through
  `caliber.cli.run`: `forms list` and `forms dump`, `comass` on a named form
  of each space and on a form file, `classify` of a random plane of each
  space at several degrees, `normalform` of a rotated W_theta plane,
  `verify` of each suite (timed and `--no-timing`) and `phase-scan`, and
  `--help` and `--pretty`;
- one pass of each part of each `perfbench/worker.py` workload, after its
  set-up (the worker is imported from its file, not edited);
- `scripts/run_comass_catalog.py` at n = 1 with few restarts.

It then prints each statement (by the `ast` of its module) that has no
executed line of its own, as `path:line: source`, followed by the number of
statements listed.  `raise` statements, docstrings and `global`/`nonlocal`
declarations are skipped: the first are input-error paths, and the others
run no code.  A traced run of `scripts/bench_calib.py` reached no statement
that these runs missed, so it is not part of the census; it takes far
longer.  Nothing in `src/` imports this script.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "caliber"


class LineTracer:
    """The executed lines, {filename: set of line numbers}, of the files
    under one directory."""

    def __init__(self, directory: Path):
        self.prefix = str(directory) + os.sep
        self.lines: dict[str, set] = {}

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        seen = self.lines.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    def start(self) -> None:
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(None)


def _statements(tree: ast.Module):
    """(statement, its own lines) for each statement of a module, docstrings,
    `raise` and `global`/`nonlocal` left out.  A statement's own lines are its
    lines without those of the statements nested in it (a compound
    statement's header), and start at its first decorator."""
    scopes = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Raise, ast.Global, ast.Nonlocal)) \
                or id(node) in docstrings:
            continue
        start = min([d.lineno for d in getattr(node, "decorator_list", ())] + [node.lineno])
        own = set(range(start, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, (ast.stmt, ast.ExceptHandler)):
                own -= set(range(child.lineno, child.end_lineno + 1))
        yield node, own or {node.lineno}


def unreached(lines: dict) -> list:
    """(path, line, source) of every statement of `src/caliber` without an
    executed line of its own."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        seen = lines.get(str(path), set())
        text = source.splitlines()
        for node, own in _statements(ast.parse(source)):
            if not own & seen:
                out.append((path.relative_to(ROOT), node.lineno, text[node.lineno - 1].strip()))
    return sorted(out, key=lambda row: (str(row[0]), row[1]))


def _cli(*argv) -> None:
    from caliber import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.run([str(a) for a in argv])


def _cli_runs(tmp: Path) -> None:
    import numpy as np

    from caliber import planes, registry
    from caliber.calib import Plane
    from caliber.exterior import form_to_json

    _cli("--help")
    _cli("verify", "--help")
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        for space in registry.SPACES:
            _cli("forms", "list", "--space", space, "--n", n, *(["--pretty"] if n == 1 else []))
            name = sorted(registry.catalog(space, n))[0]
            _cli("forms", "dump", "--name", name, "--space", space, "--n", n)
            dim = registry.model(space, n).dim
            for k in sorted({2, 3, 4, 2 * n + 1, 2 * n + 2} & set(range(1, dim + 1))):
                plane = tmp / f"{space}-{n}-{k}.json"
                frame = planes.batch_random_planes(dim, k, 1, rng)[0]
                plane.write_text(json.dumps(Plane.from_vectors(frame).to_json()))
                _cli("classify", "--plane", plane, "--space", space, "--n", n)
        for name, space in (("theta_I4", "cone"), ("re_gamma1", "link"), ("re_gamma0", "twistor")):
            extra = ["--explore-envelope"] if space == "cone" else []
            _cli("comass", "--form", name, "--space", space, "--n", n, "--restarts", 4, *extra)
        form_file = tmp / f"form-{n}.json"
        form_file.write_text(json.dumps(form_to_json(registry.resolve("omega1", n, "cone")[0])))
        _cli("comass", "--form", form_file, "--n", n, "--restarts", 4)
        plane = tmp / f"w-theta-{n}.json"
        plane.write_text(json.dumps(planes.rotated_w_theta(n, 0.3, rng).to_json()))
        _cli("normalform", "--plane", plane, "--n", n)
        for suite, counts in (("identities", []), ("cones", []), ("calibrations", ["--restarts", 4]),
                              ("propositions", ["--samples", 20, "--restarts", 20]),
                              ("normalform", ["--samples", 3])):
            _cli("verify", "--suite", suite, "--n", n, *counts)
            _cli("verify", "--suite", suite, "--n", n, "--no-timing", "--pretty", *counts)
        _cli("verify", "--suite", "phase-scan", "--n", n, "--restarts", 5)


def _perfbench_passes() -> None:
    spec = importlib.util.spec_from_file_location("perfbench_worker", ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    for setup, parts in worker.WORKLOADS.values():
        setup()
        for _, part in parts:
            part(0, worker.Outcome())


def _catalog_script() -> None:
    argv = sys.argv
    sys.argv = ["run_comass_catalog.py", "--n", "1", "--restarts", "5"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(ROOT / "scripts" / "run_comass_catalog.py"), run_name="__main__")
    finally:
        sys.argv = argv


def main() -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    tracer = LineTracer(PACKAGE)
    tracer.start()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        with tempfile.TemporaryDirectory() as tmp:
            _cli_runs(Path(tmp))
        _perfbench_passes()
        _catalog_script()
    finally:
        tracer.stop()
    rows = unreached(tracer.lines)
    for path, line, text in rows:
        print(f"{path}:{line}: {text}")
    print(f"{len(rows)} unreached statements (tier-1 exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
