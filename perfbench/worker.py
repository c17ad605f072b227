"""One measured process of the caliber benchmark.

run.py starts this file in a fresh interpreter, so every run pays the
imports and the lru_cached model and catalog builds, as each `caliber` CLI
call does.  The worker sets up one workload, then repeats the workload's
pass (a fixed, seeded list of library calls) until `--seconds` have passed,
and prints one JSON object as its last stdout line.

With `--setup-only` it stops after the set-up and reports only its time.
With `--trace 1` the set-up is traced and the passes alternate between
untraced (the baseline for the tracing overhead) and traced.

Every pass checks its own outputs: suite verdicts, pinned check ids, comass
gaps against their known values, classification flags, and that the output
digests repeat from pass to pass.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time includes the numpy and caliber imports

import argparse
import hashlib
import json
import os
import resource
import sys

import numpy as np

# Check ids each suite must report, per (suite, n).  `suites.coverage_table()`
# lists n=1 ids only, and the identities suite at n=2 drops the nk_* checks,
# so the benchmark pins its own lists.
EXPECTED_IDS = {
    ("identities", 1): (
        "d_Omega1_zero", "d_Omega2_zero", "d_Omega3_zero", "d_alpha1_eq_2Omega1", "d_alpha2_eq_2Omega2",
        "d_alpha3_eq_2Omega3", "d_im_gamma1_zero", "d_kappa1_cyclic", "d_kappa2_cyclic", "d_kappa3_cyclic",
        "d_psi1_transverse_volume", "d_psi2_transverse_volume", "d_psi3_transverse_volume",
        "d_re_gamma1_structure", "d_xi1_structure", "dd_zero_random", "exact_four_form_witness",
        "nk_d_omega_tilde", "nk_d_re_2gamma", "semibasic_fails_kappa2_alpha1_psi1", "semibasic_gamma1",
    ),
    ("cones", 1): (
        "cone_split_Lambda", "cone_split_Phi1", "cone_split_omega1", "cone_split_omega1_sq_half",
        "cone_split_theta_I4", "cone_split_upsilon1", "dilation_homogeneity", "potential_Lambda",
        "potential_Phi1", "potential_constant_form_euler", "potential_omega1", "potential_upsilon1",
    ),
    ("propositions", 1): (
        "argmax_complex_omega1_power2", "associative_from_cr", "associative_from_cr_isotropic",
        "cayley_from_complex_isotropic", "cayley_from_complex_planes", "complex_w2iso_implies_w3iso",
        "cr_legendrian_special_phases", "double_lagrangian_complex_and_volume",
        "double_lagrangian_hv_dimensions", "hv_compatible_iso_ke_iff_nk", "maximizers_horizontal_re_gamma1",
        "maximizers_horizontal_theta_I3", "maximizers_isotropic_re_gamma0", "maximizers_isotropic_re_upsilon1",
        "special_isotropic3_assoc_horizontal",
    ),
    ("normalform", 3): (
        "envelope_recovery_under_rotation", "theta_recovery_and_four_way_equivalence",
        "theta_stabilizer_invariance",
    ),
}

# The comass-one anchors of the calibrations suite at n=2, searched with the
# CLI default of 200 restarts; acceptance as in the suite (|value - 1| <= 1e-6).
ANCHORS_N2 = (
    ("theta_I4", "cone"),
    ("theta_I6", "cone"),
    ("theta_I3", "link"),
    ("re_gamma1", "link"),
    ("re_gamma0", "twistor"),
)
ANCHOR_RESTARTS = 200
ANCHOR_TOL = 1e-6

# The suite's oracle_2form_agreement check on fewer forms: random 2-forms in
# R^6, R^8 and R^12, each searched with 40 restarts and compared with the
# spectral norm (acceptance gap <= 1e-7, as in the suite).  The forms and
# their search seed are drawn from a fixed seed, not from --seed: a search
# lasts until its slowest restart stops, so the time of 15 searches varies by
# about 25% from one draw of forms and starting frames to the next, which
# would swamp any code change.  --seed still moves the anchors' starting frames.
ORACLE_SEED = 0
ORACLE_DIMS = (6, 8, 12)
ORACLE_FORMS_PER_DIM = 5
ORACLE_RESTARTS = 40
ORACLE_TOL = 1e-7

# Untraced runs make at least this many passes: each operation's time is its
# fastest over the passes (see run.py), which needs a few repetitions.
MIN_PASSES = 3

SCAN_SAMPLES = 500  # samples and restarts of the propositions suite
NORMALFORM_SAMPLES = 100
CLASSIFY_PLANES = 50  # random planes per (space, n, k)


def _digest(obj) -> str:
    """sha256 of the compact, key-sorted JSON that `caliber --no-timing` prints."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Outcome:
    """Operations attempted and failed, comass gaps and failure notes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gaps: list[float] = []
        self.notes: list[str] = []

    def op(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(note)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


# ---------------------------------------------------------------------------
# workload parts: each returns ({operation: seconds in library calls}, output digest)


def _suite_part(suite: str, n: int, **kwargs):
    def part(seed: int, out: Outcome):
        from caliber import suites

        report = suites.run_suite(suite, n, seed, **kwargs)
        expected = set(EXPECTED_IDS[(suite, n)])
        got = [c.check_id for c in report.checks]
        for cid in sorted(expected - set(got)):
            out.fail(f"{suite}: missing check {cid}")
        for cid in sorted(set(got) - expected) + sorted(c for c in set(got) if got.count(c) > 1):
            out.fail(f"{suite}: unexpected or repeated check {cid}")
        out.attempted += len(expected)
        for c in report.checks:
            if c.status != "pass":
                out.fail(f"{suite}: {c.check_id} {c.status}: {json.dumps(c.witness, default=str)[:200]}")
            if suite == "propositions" and isinstance(c.witness, dict) and "value" in c.witness:
                out.gaps.append(abs(c.witness["value"] - 1.0))
        if report.overall != "pass":
            out.notes.append(f"{suite}: overall {report.overall}")
        ops = {c.check_id: c.elapsed_ms / 1000.0 for c in report.checks}
        return ops, _digest(report.to_json(include_timing=False))

    return part


def _anchors(seed: int, out: Outcome):
    from caliber import calib, registry

    params = calib.SearchParams(restarts=ANCHOR_RESTARTS, seed=seed)
    ops, results = {}, []
    for name, space in ANCHORS_N2:
        t0 = time.perf_counter()
        form, _ = registry.resolve(name, 2, space)
        if hasattr(form, "re"):
            form = form.re
        results.append(calib.comass_search(form.to_float(), params=params))
        ops[f"{space}/{name}"] = time.perf_counter() - t0
    rows = []
    for (name, space), res in zip(ANCHORS_N2, results):
        gap = abs(res.value - 1.0)
        out.gaps.append(gap)
        out.op(gap <= ANCHOR_TOL, f"anchor {space}/{name}: value {res.value!r}")
        rows.append(res.to_json())
    return ops, _digest(rows)


def _oracle(seed: int, out: Outcome):
    from caliber import calib
    from caliber.exterior import AltForm

    rng = np.random.default_rng(ORACLE_SEED)
    params = calib.SearchParams(restarts=ORACLE_RESTARTS, seed=ORACLE_SEED + 1)
    forms = []
    for N in ORACLE_DIMS:
        for _ in range(ORACLE_FORMS_PER_DIM):
            A = rng.standard_normal((N, N))
            S = A - A.T
            forms.append(AltForm(N, 2, {(i, j): S[i, j] for i in range(N) for j in range(i + 1, N)}))
    ops, pairs = {}, []
    for i, f in enumerate(forms):
        t0 = time.perf_counter()
        pairs.append((calib.comass_2form_exact(f), calib.comass_search(f, params=params)))
        ops[f"R{f.dim}/{i}"] = time.perf_counter() - t0
    rows = []
    for exact, res in pairs:
        gap = abs(exact - res.value)
        out.gaps.append(gap)
        out.op(gap <= ORACLE_TOL, f"oracle: spectral {exact!r} vs search {res.value!r}")
        rows.append([exact, res.to_json()])
    return ops, _digest(rows)


def _classify(seed: int, out: Outcome):
    from caliber import calib, model, planes

    builders = (("cone", "build_hyperkahler_cone"), ("link", "default_link_frame"),
                ("twistor", "build_twistor_model"))
    rng = np.random.default_rng(seed)
    ops, reports = {}, []
    for space, builder in builders:
        for n in (1, 2, 3):
            m = getattr(model, builder)(n)
            for k in (2, 3, 4):
                t0 = time.perf_counter()
                for frame in planes.batch_random_planes(m.dim, k, CLASSIFY_PLANES, rng):
                    try:
                        reports.append(planes.classify_plane(calib.Plane.from_vectors(frame), m))
                    except Exception as exc:  # a raising call is a failed operation
                        reports.append(exc)
                ops[f"{space}/n{n}/k{k}"] = time.perf_counter() - t0
    rows = []
    for rep in reports:
        if isinstance(rep, Exception):
            out.op(False, f"classify raised {type(rep).__name__}: {rep}")
            rows.append(repr(rep))
            continue
        doc = rep.to_json()
        # A Haar-random plane lies in none of the special classes (each is a
        # measure-zero set), so a true flag is a misclassification.
        true_flags = [name for name, v in doc["flags"].items() if v["flag"] is True]
        out.op(not true_flags, f"classify {doc['space']} n={doc['n']} k={doc['degree']}: {true_flags}")
        rows.append(doc)
    return ops, _digest(rows)


def _setup_exact():
    from caliber import symforms

    symforms.link_extension_catalog(1)
    symforms.cone_constant_catalog(1)


def _setup_calibrations():
    from caliber import registry

    for space in registry.SPACES:
        registry.catalog(space, 2)


def _setup_scans():
    from caliber import model

    for n in (1, 2, 3):
        model.build_hyperkahler_cone(n)
        model.default_link_frame(n)
        model.build_twistor_model(n)


WORKLOADS = {
    "exact-n1": (_setup_exact, (
        ("suite.identities_s", _suite_part("identities", 1)),
        ("suite.cones_s", _suite_part("cones", 1)),
    )),
    "calibrations-n2": (_setup_calibrations, (
        ("calibrations.anchors_s", _anchors),
        ("calibrations.oracle_s", _oracle),
    )),
    "scans-n1": (_setup_scans, (
        ("suite.propositions_s", _suite_part("propositions", 1, samples=SCAN_SAMPLES, restarts=SCAN_SAMPLES)),
        ("suite.normalform_s", _suite_part("normalform", 3, samples=NORMALFORM_SAMPLES)),
        ("classify_s", _classify),
    )),
}


# ---------------------------------------------------------------------------


class Probe:
    """A fixed reference kernel that shares no code with caliber: Python dict
    and integer arithmetic plus small batched numpy linear algebra, the two
    kinds of work the workloads do.  It is timed around every part of a pass,
    so run.py can express operation times in units of it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._frames = rng.standard_normal((256, 8, 3))
        self._metric = rng.standard_normal((8, 8))

    def _once(self) -> float:
        t0 = time.perf_counter()
        acc: dict[int, int] = {}
        for i in range(8000):
            key = (i * 2654435761) & 511
            acc[key] = acc.get(key, 0) + i * i
        for _ in range(8):
            Q, _ = np.linalg.qr(self._frames)
            np.einsum("bnk,nm,bml->bkl", Q, self._metric, Q)
        return time.perf_counter() - t0

    def __call__(self) -> float:
        """Fastest of three timings, in seconds."""
        return min(self._once() for _ in range(3))


def _run_pass(parts, seed: int, out: Outcome, probe: Probe) -> dict:
    ops, probes, digests = {}, {}, {}
    for name, part in parts:
        before = probe()
        ops[name], digests[name] = part(seed, out)
        probes[name] = (before + probe()) / 2
    return {"ops": ops, "probe_s": probes, "digests": digests}


def _blas_info() -> dict:
    """BLAS library numpy was built with, and its thread count when the
    library can be asked (OpenBLAS as shipped in numpy wheels)."""
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    import ctypes
    import glob

    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _layers(tracer, setup_span, pass_marks) -> dict:
    """Set-up summary plus per-pass means of the traced passes."""
    setup = tracer.summarize(*setup_span)
    per_pass = []
    for (s0, c0), (s1, c1) in pass_marks:
        summary = tracer.summarize(s0, s1)
        counts = {k: c1.get(k, 0) - c0.get(k, 0) for k in set(c0) | set(c1)}
        per_pass.append({"groups": summary, "counts": counts})
    return {"setup": setup, "passes": per_pass}


def _write_spans(tracer, setup_span, pass_marks, name: str) -> None:
    """Write every recorded span to perfbench/out/ once the passes are over."""
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "fields": ["group", "parent", "start", "end", "degree", "frames"],
        "setup": list(setup_span),
        "passes": [[m0[0], m1[0]] for m0, m1 in pass_marks],
        "spans": tracer.spans,
    }
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    setup, parts = WORKLOADS[args.workload]
    import caliber
    import caliber.suites  # noqa: F401  (what `caliber verify` imports)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        setup_start = tracer.mark()[0]
    setup()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_span = None
    if tracer is not None:
        setup_span = (setup_start, tracer.mark()[0])
        tracer.uninstall()

    out = Outcome()
    probe = Probe()
    passes = []
    pass_marks = []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            m0 = tracer.mark()
        record = _run_pass(parts, args.seed, out, probe)
        if traced:
            pass_marks.append((m0, tracer.mark()))
            tracer.uninstall()
        record["traced"] = traced
        passes.append(record)
        if time.perf_counter() - t0 >= args.seconds and len(passes) >= (2 if tracer else MIN_PASSES):
            break

    digest_changes = sorted({name for p in passes[1:] for name, d in p["digests"].items()
                             if d != passes[0]["digests"][name]})
    for name in digest_changes:
        out.fail(f"{name}: output digest changed between passes of one run")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "passes": [{k: p[k] for k in ("ops", "probe_s", "traced")} for p in passes],
        "digests": passes[0]["digests"],
        "attempted": out.attempted,
        "failed": out.failed,
        "notes": out.notes,
        "worst_comass_gap": max(out.gaps) if out.gaps else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "caliber_file": caliber.__file__,
            "caliber_threads_unset": "CALIBER_THREADS" not in os.environ,
            "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "blas": _blas_info(),
        },
    }
    if tracer is not None:
        result["layers"] = _layers(tracer, setup_span, pass_marks)
        _write_spans(tracer, setup_span, pass_marks, f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
