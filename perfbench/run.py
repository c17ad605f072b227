"""caliber benchmark: `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1`.

Run from the repository root.  Each run starts fresh interpreters on the
checkout's `src/`: a few that only set the workload up (for a median
set-up time) and one that sets up and then repeats the workload's pass for
T seconds (see worker.py).  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json;
with `--trace 1` they are its per-layer metrics.  The line before it holds
the full report: environment, per-pass times, output digests and notes.
Metrics, workloads and what is left unmeasured are described in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# Set-ups per run, the measuring worker's included.  Half of the set-up-only
# interpreters run before the worker and half after it, so the samples span
# the run rather than one moment of it.
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0  # the whole run, every child included

# comass_digits is -log10 of the worst gap between a search value and its
# known comass.  The suites accept gaps up to 1e-6; fewer digits than the
# floor fail the run, so a speed-up that loosens the search cannot pass.
COMASS_DIGITS_CAP = 12.0
COMASS_DIGITS_FLOOR = 10.0

# Per-layer metrics: (metric, tracer group, field).  Fields "calls",
# "self_s" and "frames" are per-pass means over the traced passes; "incl_s"
# of a set-up group is the inclusive build time during set-up.
GROUP_METRICS = (
    [("symforms.catalog_s", "symforms.catalog", "setup_incl_s"),
     ("model.build_s", "model.build", "setup_incl_s"),
     ("registry.catalog_s", "registry.catalog", "setup_incl_s")]
    + [(f"symforms.{op}.{f}", f"symforms.{op}", f)
       for op in ("ext_d", "wedge", "add", "zero_test") for f in ("calls", "self_s")]
    + [(f"symforms.{op}.self_s", f"symforms.{op}", "self_s")
       for op in ("power", "interior", "cone_split", "potential", "lie_derivative")]
    + [("calib.comass_search.calls", "calib.comass_search", "calls"),
       ("calib.comass_search.self_s", "calib.comass_search", "self_s")]
    + [(f"calib.{op}.{f}", f"calib.{op}", f) for op in ("values", "grads") for f in ("calls", "frames", "self_s")]
    + [("calib.canonical_frame.calls", "calib.canonical_frame", "calls"),
       ("calib.canonical_frame.self_s", "calib.canonical_frame", "self_s")]
    + [(f"calib.{op}.self_s", f"calib.{op}", "self_s") for op in ("comass_2form_exact", "batch_evaluate", "isotropy")]
    + [(f"exterior.{op}.{f}", f"exterior.{op}", f)
       for op in ("wedge", "interior", "hodge", "pullback") for f in ("calls", "self_s")]
    + [("planes.samplers.self_s", "planes.samplers", "self_s"),
       ("planes.samplers.frames", "planes.samplers", "frames")]
    + [(f"planes.{op}.{f}", f"planes.{op}", f)
       for op in ("normal_form_theta", "quaternionic_envelope", "classify_plane") for f in ("calls", "self_s")]
)
DEGREES = (2, 3, 4, 6)
COUNT_METRICS = (("symforms.poly_mul.calls", "symforms.poly_mul"),
                 ("symforms.rcoef_mul.calls", "symforms.rcoef_mul"),
                 ("symforms.rcoef_add.calls", "symforms.rcoef_add"),
                 ("calib.restarts", "calib.restarts"))
PART_METRICS = ("suite.identities_s", "suite.cones_s", "calibrations.anchors_s", "calibrations.oracle_s",
                "suite.propositions_s", "suite.normalform_s", "classify_s")


def _declared_metrics(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _child_env() -> dict:
    """The child's environment: the checkout's src first on the path, one
    suite worker (CALIBER_THREADS unset) and the BLAS library's own default
    thread count."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("CALIBER_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = SRC
    return env


def _run_child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("run budget exhausted")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    """sha256 over the caliber sources and the benchmark's own code."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "caliber"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def _commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


def _check_digest_record(key: str, source: str, digests: dict) -> list[str]:
    """Compare output digests with earlier runs of the same sources, workload
    and seed (kept in out/digests.json); return the parts that differ."""
    path = os.path.join(OUT_DIR, "digests.json")
    record = {}
    if os.path.isfile(path):
        try:
            with open(path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = {}
    seen = record.setdefault(source, {}).setdefault(key, {})
    changed = sorted(part for part, d in digests.items() if part in seen and seen[part] != d)
    for part, d in digests.items():
        seen.setdefault(part, d)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return changed


def _best_times(passes: list[dict], per_probe: bool = False) -> dict:
    """Per part, the sum over its operations of each operation's smallest
    time among the given passes: in seconds, or with `per_probe` in units of
    the reference kernel timed around that part in that pass."""
    best: dict[str, dict[str, float]] = {}
    for p in passes:
        for part, ops in p["ops"].items():
            unit = p["probe_s"][part] if per_probe else 1.0
            slot = best.setdefault(part, {})
            for op, seconds in ops.items():
                slot[op] = min(seconds / unit, slot.get(op, math.inf))
    return {part: sum(ops.values()) for part, ops in best.items()}


def _comass_digits(gap) -> float:
    if gap is None:
        return 0.0
    if gap <= 0.0:
        return COMASS_DIGITS_CAP
    return min(COMASS_DIGITS_CAP, -math.log10(gap))


def _layer_metrics(result: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the layer-split self-check failures."""
    layers = result["layers"]
    passes = layers["passes"]

    def group_field(group: str, field: str) -> float:
        if field == "setup_incl_s":
            return layers["setup"].get(group, {}).get("incl_s", 0.0)
        return statistics.fmean(p["groups"].get(group, {}).get(field, 0) for p in passes)

    def by_degree(group: str, k: int) -> float:
        return statistics.fmean(p["groups"].get(group, {}).get("by_degree", {}).get(str(k), 0.0) for p in passes)

    def count(name: str) -> float:
        return statistics.fmean(p["counts"].get(name, 0) for p in passes)

    m = {name: group_field(group, field) for name, group, field in GROUP_METRICS}
    for op in ("values", "grads"):
        for k in DEGREES:
            m[f"calib.{op}.k{k}.s"] = by_degree(f"calib.{op}", k)
    for name, counter in COUNT_METRICS:
        m[name] = count(counter)
    m["calib.values_per_grad"] = m["calib.values.frames"] / m["calib.grads.frames"] if m["calib.grads.frames"] else 0.0
    restarts = count("calib.restarts")
    m["calib.converged_share"] = count("calib.converged_restarts") / restarts if restarts else 0.0

    untraced = _best_times([p for p in result["passes"] if not p["traced"]])
    traced = _best_times([p for p in result["passes"] if p["traced"]])
    for name in PART_METRICS:
        m[name] = untraced.get(name, 0.0)
    m["trace.overhead_s"] = sum(traced.values()) - sum(untraced.values())

    # Work counts repeat exactly from pass to pass (same seed, same inputs).
    problems = []
    shapes = [({g: (v["calls"], v["frames"]) for g, v in p["groups"].items()},
               {c: v for c, v in p["counts"].items() if c != "calib.converged_restarts"}) for p in passes]
    if any(s != shapes[0] for s in shapes[1:]):
        problems.append("layer counts differ between traced passes of one run")
    checks = {
        "exact-n1": [("symforms.poly_mul.calls", ">0"), ("calib.values.calls", "==0")],
        "calibrations-n2": [("symforms.ext_d.calls", "==0"), ("calib.grads.k6.s", ">0")],
        "scans-n1": [("symforms.ext_d.calls", "==0"), ("planes.classify_plane.calls", ">0")],
    }[result["workload"]]
    for name, want in checks:
        ok = m[name] > 0 if want == ">0" else m[name] == 0
        if not ok:
            problems.append(f"layer self-check failed: {name} = {m[name]!r}, expected {want}")
    return m, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="caliber benchmark (see README.md beside this file)")
    ap.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "caliber", "__init__.py")):
        print(f"run.py: no caliber sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [_run_child(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
        result = _run_child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        setups += [_run_child(common + ["--setup-only"], deadline)["setup_s"]
                   for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    notes = list(result["notes"])
    env = dict(result["env"])
    source = _source_digest()
    env.update(nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)), commit=_commit(),
               code_sha256=source, seed=args.seed, workload=args.workload, seconds=args.seconds)
    if not env["caliber_threads_unset"]:
        notes.append("CALIBER_THREADS was set in the worker")
    if not os.path.abspath(env["caliber_file"]).startswith(SRC + os.sep):
        notes.append(f"caliber imported from {env['caliber_file']}, not from {SRC}")
    digits = _comass_digits(result["worst_comass_gap"])
    if result["worst_comass_gap"] is not None and digits < COMASS_DIGITS_FLOOR:
        notes.append(f"comass gap {result['worst_comass_gap']!r} below {COMASS_DIGITS_FLOOR} digits")
    changed = _check_digest_record(f"{args.workload}/seed{args.seed}", source, result["digests"])
    notes.extend(f"{part}: output digest differs from an earlier run of the same sources" for part in changed)

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics, problems = _layer_metrics(result)
        notes.extend(problems)
        metrics["failed_share"] = failed / attempted
        metrics["comass_digits"] = digits
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "verdict_ref": sum(_best_times(result["passes"], per_probe=True).values()),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    correct = failed == 0 and len(notes) == 0
    declared = _declared_metrics(args.trace)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"run.py: metrics declared but not measured: {missing}", file=sys.stderr)
        return 1

    report = {
        "env": env,
        "setup_samples_s": setups,
        "verdict_s": sum(_best_times(result["passes"]).values()),
        "pass_times_s": [{part: sum(ops.values()) for part, ops in p["ops"].items()} for p in result["passes"]],
        "probe_s": [p["probe_s"] for p in result["passes"]],
        "digests": result["digests"],
        "comass_digits": digits,
        "notes": notes,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
