#!/usr/bin/env python3
"""Time the hot kernels of the comass search, of plane classification and of
the exact cone calculus on fixed seeded inputs.

Usage: PYTHONPATH=src python scripts/bench_calib.py --out BENCH.json [--label NAME]

Measures, each as the best of REPEAT timed rounds in seconds per call:
- `FormEvaluator.values` and `FormEvaluator.grads` of one catalog form per
  degree k, on 1000 frames and on 40 frames (the size of a line-search batch);
- the Stiefel retraction `calib._qf` on tangent steps of three batch shapes;
- the canonicalization of 200 tied restarts and the pick of the smallest
  rounded key, as `comass_search` does it;
- single-frame evaluation of four catalog forms at n = 3: the exact
  contraction `exterior.evaluate` on the catalog form, and the value plane
  classification takes (`model.value`, through the model's cached
  `FormEvaluator`);
- `classify_plane` on one plane per model space and degree k = 2, 3, 4 at
  n = 1 and n = 2, and on one plane per model space at n = 3;
- one plane, all its values: the catalog values `classify_plane` reads on
  one plane per model space at n = 3 (PLANE_VALUES), once as one tuple read
  of `model.value` (one evaluator, one minor table) and once as one read per
  name (a checkout whose `model.value` takes one name only has no tuple row);
- the six propositions checks that run `planes.check_equivalences`
  (IMPLICATION_CHECKS), together, at the suite's default 10^4 samples, for
  n = 1, 2, 3;
- `normal_form_theta` on NORMAL_FORM_PLANES `rotated_w_theta` planes at
  n = 3, one call per plane and one call on their stacked frames;
- `exterior.pullback`: the float path on cone `theta_I6` (n = 2) by a
  seeded random Sp isometry, the integer path on the three `omega{p}` of the
  cone by the rounded default link frame at n = 3, and a full
  `build_link_frame(3)` (the cone model stays cached);
- `comass_search` on the five n = 2 comass-one anchors at ANCHOR_RESTARTS
  restarts and on the benchmark's 15 oracle 2-forms at ORACLE_RESTARTS
  (ORACLE_FORMS_PER_DIM random forms in each of R^6, R^8 and R^12, grouped
  by dimension), and on the propositions suite's six searches at n = 1 at
  PROPOSITION_RESTARTS restarts (seed offsets 0, 7, 8, 9, 9, 10), each
  with the frames its `FormEvaluator.grads` and `values` calls evaluate
  (counted once, outside the timed rounds);
- the number of random generators `calib` constructs in one calibrations-n2
  pass (the anchors and oracle searches above) and in one propositions run
  at n = 1 with PROPOSITION_RESTARTS samples and restarts, each counted
  once from a cleared starting-draw cache (exact counts, under
  "generators", with the run's seconds);
- the exact layer: cold builds of `symforms.link_extension_catalog(n)` for
  n = 1, 2, 3 (the catalog cache cleared before each, best of EXACT_REPEAT;
  the model builds stay cached); sigma_1^{n+1} at n = 1, 2, as the generic
  wedge power and as `symforms.transverse_power(n, 1)` (a checkout without
  that helper takes the top entry of the older `transverse_powers(n, 1)`,
  or of `transverse_powers(n, 1, sigma_t1, n + 1)`, and one with neither has
  no binomial row); every product by r^m of the
  cones suite at n = 1, 2 (`symforms.times_r_power`, or the product by
  `RCoef.r_power` where that shift is missing); `ext_d` of `psi1` at n = 1;
  `ext_d` twice on the 100 forms of the identities suite's `dd_zero_random`
  check; `try_div_sumsq` of S^4 on R^16; and the number of
  `Poly.try_div_sumsq`, `Poly.__mul__` and `RCoef.__add__` calls in one `identities` plus `cones` pass at n = 1 made
  after a first pass has built the catalogs (exact counts, stored under
  "exact_counts" with the pass's seconds).  Each exact row also holds the
  cyclic-GC collections [gen0, gen1, gen2] that one untimed call of its
  kernel starts after a full collection (`gc.callbacks`), under "gc";
- the wall time of `verify --suite identities|cones --no-timing` in a fresh
  process of the same checkout at n = 1, 2, and at n = 3 where the checkout
  accepts it (one run each, with its exit code);
- the plain-ring sums of the form algebra: uncached builds of the n = 3 cone
  catalog (`model._cone_catalog`) and twistor model (int and Fraction
  wedges), and a float `wedge` of a dense seeded 3-form and 2-form on R^12
  and a float `interior` of a seeded vector with a dense seeded 4-form on
  R^12.
Every input is drawn from a fixed seed with numpy alone, so two checkouts
time the same work.  The run is stored in the JSON file under `--label`,
next to the labels already there, so one file holds a before/after pair.
Every run of a label is kept (`runs`, one result set each); a run whose
digest of `src/caliber` and of this script differs from the label's stored
one starts the label afresh, so all runs of a label time the same kernels
of the same code.  The label's `results` hold, for each kernel, the median over
its runs, so labels with different numbers of runs compare fairly, and
alternating before/after runs spread the load of a shared host over both.
"""

import argparse
import gc
import hashlib
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import numpy as np

from caliber import calib, exterior, model, planes, suites, symforms
from caliber.registry import resolve
from caliber.suites import run_suite

# (name, n, space): real catalog forms of degree 2, 3, 4, 6 and 8
FORMS = (
    ("omega1", 2, "cone"),
    ("re_gamma0", 2, "twistor"),
    ("theta_I4", 2, "cone"),
    ("theta_I6", 2, "cone"),
    ("re_upsilon1", 3, "cone"),
)
FRAME_COUNTS = (1000, 40)
# (name, space) of catalog forms evaluated on one frame at n = 3, and the
# plane degree classify_plane is timed at per space
SINGLE_FRAME_FORMS = (
    ("theta_I8", "cone"),
    ("re_upsilon1", "cone"),
    ("re_gamma1", "link"),
    ("re_gamma0", "twistor"),
)
MODELS = {"cone": model.build_hyperkahler_cone, "link": model.default_link_frame,
          "twistor": model.build_twistor_model}
CLASSIFY_DEGREES = {"cone": 4, "link": 3, "twistor": 3}
# the plane degrees classify_plane is timed at, per space, at n = 1 and 2
CLASSIFY_SMALL_DEGREES = (2, 3, 4)
# the catalog values classify_plane reads on a plane of CLASSIFY_DEGREES at n = 3
PLANE_VALUES = {"cone": ("theta_I4", "theta_J4", "theta_K4", "Phi1", "Phi2", "Phi3", "Lambda"),
                "link": ("theta_I3", "theta_J3", "theta_K3", "phi1", "phi2", "phi3", "gamma1"),
                "twistor": ("gamma0",)}
IMPLICATION_CHECKS = ("complex_w2iso_implies_w3iso", "double_lagrangian_complex_and_volume", "associative_from_cr",
                      "hv_compatible_iso_ke_iff_nk", "double_lagrangian_hv_dimensions", "cr_legendrian_special_phases")
IMPLICATION_SAMPLES = 10000
RETRACTION_SHAPES = ((40, 12, 2), (200, 12, 6), (10000, 8, 3))
TIED = (200, 12, 4)  # restarts, N, k
NORMAL_FORM_PLANES = 100  # rotated W_theta planes at n = 3, theta = NORMAL_FORM_THETA
NORMAL_FORM_THETA = 0.3
PULLBACK_SEED = 12
# comass searches as the calibrations-n2 benchmark workload runs them
ANCHORS = (("theta_I4", "cone"), ("theta_I6", "cone"), ("theta_I3", "link"),
           ("re_gamma1", "link"), ("re_gamma0", "twistor"))
ANCHOR_RESTARTS = 200
ORACLE_DIMS = (6, 8, 12)
ORACLE_FORMS_PER_DIM = 5
ORACLE_RESTARTS = 40
ORACLE_SEED = 0
# (space, name, sign, seed offset) of the propositions suite's searches at
# n = 1, run at the scans-n1 workload's restart count
PROPOSITION_SEARCHES = (("link", "theta_I3", -1.0, 0), ("cone", "re_upsilon1", 1.0, 7),
                        ("twistor", "re_gamma0", 1.0, 8), ("link", "re_gamma1", 1.0, 9),
                        ("link", "theta_I3", 1.0, 9), ("cone", "omega1_power2", 1.0, 10))
PROPOSITION_RESTARTS = 500
PLAIN_SEED = 15
PLAIN_DIM = 12
REPEAT = 7
EXACT_REPEAT = 3
DIV_DIM = 16  # S^4 on R^16 is the r^8 of cone_split_upsilon1 at n = 3
# (class, method) whose calls the exact pass counts
EXACT_COUNTED = ((symforms.Poly, "try_div_sumsq"), (symforms.Poly, "__mul__"), (symforms.RCoef, "__add__"))


def _orthonormal(rng, shape):
    Q, R = np.linalg.qr(rng.standard_normal(shape))
    return Q * np.sign(np.einsum("...ii->...i", R))[..., None, :]


def _tangent_steps(rng, shape, t=0.1):
    V = _orthonormal(rng, shape)
    G = rng.standard_normal(shape)
    VtG = np.swapaxes(V, -1, -2) @ G
    return V + t * (G - V @ (0.5 * (VtG + np.swapaxes(VtG, -1, -2))))


def _best(fn, min_round_s=0.05):
    """Best seconds per call over REPEAT rounds of enough calls to last min_round_s."""
    fn()
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= min_round_s or number >= 1 << 12:
            break
        number *= 2
    rounds = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        rounds.append((time.perf_counter() - t0) / number)
    return min(rounds)


def _best_cold(build, clear):
    """Best seconds of EXACT_REPEAT calls of build, each after clear()."""
    rounds = []
    for _ in range(EXACT_REPEAT):
        clear()
        t0 = time.perf_counter()
        build()
        rounds.append(time.perf_counter() - t0)
    return min(rounds)


def _gc_collections(fn) -> list:
    """[gen0, gen1, gen2]: the cyclic-GC collections one call of fn starts,
    counted from a full collection."""
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        fn()
    finally:
        gc.callbacks.remove(count)
    return counts


def _exact_row(fn, **row) -> dict:
    """A timed exact kernel, with the GC collections of one more call."""
    return dict(row, s=_best(fn), gc=_gc_collections(fn))


def _exact_pass():
    for suite in ("identities", "cones"):
        run_suite(suite, 1)


def _counted_exact_pass() -> dict:
    """Calls of each EXACT_COUNTED method in one exact pass with warm catalogs."""
    _exact_pass()
    counts = {}
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in EXACT_COUNTED]

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    for owner, attr, fn in originals:
        key = f"{owner.__name__}.{attr}"
        counts[key] = 0
        setattr(owner, attr, counting(key, fn))
    try:
        t0 = time.perf_counter()
        _exact_pass()
        seconds = time.perf_counter() - t0
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    return {"identities+cones/n1": dict(counts, s=seconds)}


def _dd_zero_forms() -> list:
    """The forms the identities suite's dd_zero_random check (n=1, seed 0)
    takes d of twice, recorded from one run of the check."""
    check = dict(suites._identities_checks(1, 0))["dd_zero_random"]
    seen, ext_d = [], symforms.ext_d

    def recording(f):
        seen.append(f)
        return ext_d(f)

    symforms.ext_d = recording
    try:
        check()
    finally:
        symforms.ext_d = ext_d
    return seen[::2]  # d(d(f)) calls d on f first


def _rp_products(n: int) -> list:
    """(form, m) of each product by r^m in the cones suite at n."""
    cat, half = symforms.link_extension_catalog(n), Fraction(1, 2)
    sq = {p: cat[f"Omega{p}"].wedge(cat[f"Omega{p}"]) for p in (1, 2, 3)}
    s_aO = cat["phi1"] + cat["phi2"] + cat["phi3"]
    rhs = cat["sigma_t1"].power(n + 1) * Fraction(1, factorial(n + 1))
    psi = cat["psi1"]
    return [(cat["alpha1"], 1), (cat["Omega1"], 2), ((cat["phi2"] + cat["phi3"]) * half, 3), (sq[1] * half, 4),
            ((sq[2] - sq[3]) * half, 4), (cat["theta_I3"], 3), ((sq[2] + sq[3] - sq[1]) * half, 4),
            (cat["phi1"], 3), ((sq[1] + sq[2] + sq[3]) * Fraction(1, 6), 4), (s_aO * Fraction(1, 3), 3),
            (psi.re, 2 * n + 1), (psi.im, 2 * n + 1), (rhs.re, 2 * n + 2), (rhs.im, 2 * n + 2),
            (cat["alpha1"], 2), (s_aO * Fraction(1, 12), 4)]


def _exact_kernels() -> dict:
    cat = symforms.link_extension_catalog

    def cold(n):
        cat.cache_clear()
        cat(n)

    out = {f"link_extension_catalog/n{n}": {"s": _best_cold(lambda: cat(n), cat.cache_clear),
                                             "gc": _gc_collections(lambda: cold(n))} for n in (1, 2, 3)}
    # a checkout without the binomial helper or the r-power shift times only
    # the generic power, and multiplies by r^m as a product
    binomial = getattr(symforms, "transverse_power", None)
    powers = getattr(symforms, "transverse_powers", None)  # older helpers: the list of powers
    if binomial is None and powers is not None:
        if len(inspect.signature(powers).parameters) == 4:  # (n, p, sigma, top)
            binomial = lambda n, p: powers(n, p, cat(n)[f"sigma_t{p}"], n + 1)[n + 1]  # noqa: E731
        else:
            binomial = lambda n, p: powers(n, p)[n + 1]  # noqa: E731
    times_r_power = getattr(symforms, "times_r_power", None) or (lambda f, m: f * symforms.RCoef.r_power(f.dim, m))
    for n in (1, 2):
        sigma = cat(n)["sigma_t1"]
        out[f"sigma_t1.power{n + 1}/n{n}/generic"] = _exact_row(lambda: sigma.power(n + 1))
        if binomial is not None:
            out[f"sigma_t1.power{n + 1}/n{n}/binomial"] = _exact_row(lambda: binomial(n, 1))
        products = _rp_products(n)
        out[f"rp_products/n{n}"] = _exact_row(lambda: [times_r_power(f, m) for f, m in products],
                                              products=len(products))
    psi = cat(1)["psi1"]
    out["ext_d.psi1/n1"] = _exact_row(lambda: symforms.ext_d(psi))
    forms = _dd_zero_forms()
    out["ext_d.ext_d/dd_zero_random"] = _exact_row(lambda: [symforms.ext_d(symforms.ext_d(f)) for f in forms],
                                                   forms=len(forms))
    S4 = symforms._sumsq(DIV_DIM, 4)
    out[f"try_div_sumsq/S^4/R{DIV_DIM}"] = _exact_row(S4.try_div_sumsq, terms=len(S4.terms))
    return out


def _exact_cli() -> dict:
    """Wall seconds of `verify --suite S --n n --no-timing` in a fresh
    process of this checkout, for the exact suites at each n it accepts."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(calib.__file__)))
    out = {}
    for suite in ("identities", "cones"):
        for n in (1, 2, 3):
            argv = [sys.executable, "-m", "caliber", "verify", "--suite", suite, "--n", str(n), "--no-timing"]
            t0 = time.perf_counter()
            code = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
            if code != 2:  # 2: this checkout rejects the n
                out[f"{suite}/n{n}"] = {"exit": code, "s": time.perf_counter() - t0}
    return out


def _dense_float_form(rng, dim, k):
    return exterior.AltForm(dim, k, {J: float(c) for J, c in
                                     zip(combinations(range(dim), k), rng.standard_normal(comb(dim, k)))})


def _plain_ring_kernels() -> dict:
    rng = np.random.default_rng(PLAIN_SEED)
    a, b, c = (_dense_float_form(rng, PLAIN_DIM, k) for k in (3, 2, 4))
    v = rng.standard_normal(PLAIN_DIM)
    return {
        "cone_catalog/n3": {"s": _best(lambda: model._cone_catalog(3))},
        "build_twistor_model/n3": {"s": _best(lambda: model.build_twistor_model.__wrapped__(3))},
        f"float_wedge/k3^k2/R{PLAIN_DIM}": {"s": _best(lambda: exterior.wedge(a, b))},
        f"float_interior/k4/R{PLAIN_DIM}": {"s": _best(lambda: exterior.interior(v, c))},
    }


def _normal_form_kernels() -> dict:
    tm = model.build_twistor_model(3)
    rng = np.random.default_rng(NORMAL_FORM_PLANES)
    plist = [planes.rotated_w_theta(3, NORMAL_FORM_THETA, rng) for _ in range(NORMAL_FORM_PLANES)]
    frames = np.array([P.frame for P in plist])

    key = f"n3x{NORMAL_FORM_PLANES}"
    return {f"{key}/per_plane": {"s": _best(lambda: [planes.normal_form_theta(P, tm) for P in plist])},
            f"{key}/batch": {"s": _best(lambda: planes.normal_form_theta(frames, tm))}}


def _plane_value_kernels() -> dict:
    out = {}
    for space, k in CLASSIFY_DEGREES.items():
        m, names = MODELS[space](3), PLANE_VALUES[space]
        F = _orthonormal(np.random.default_rng(k), (m.dim, k)).T
        key = f"{space}/n3/k{k}"
        out[f"{key}/per_name"] = {"forms": len(names), "s": _best(lambda: [m.value(name, F) for name in names])}
        try:
            m.value(names, F)
        except KeyError:  # model.value reads one name only
            continue
        out[f"{key}/tuple"] = {"forms": len(names), "s": _best(lambda: m.value(names, F))}
    return out


def _implication_kernels() -> dict:
    out = {}
    for n in (1, 2, 3):
        checks = dict(suites._propositions_checks(n, 0, IMPLICATION_SAMPLES, IMPLICATION_SAMPLES))
        six = [checks[check_id] for check_id in IMPLICATION_CHECKS]
        out[f"n{n}/samples{IMPLICATION_SAMPLES}"] = {"s": _best(lambda: [check() for check in six])}
    return out


def _pullback_kernels() -> dict:
    cone2, cone3 = model.build_hyperkahler_cone(2), model.build_hyperkahler_cone(3)
    theta = cone2.form("theta_I6")
    g = model.random_sp_cone_isometry(2, np.random.default_rng(PULLBACK_SEED))
    frame = np.rint(model.default_link_frame(3).frame).astype(int)
    omegas = [cone3.form(f"omega{p}") for p in (1, 2, 3)]
    return {
        "float/theta_I6/n2": {"s": _best(lambda: exterior.pullback(theta, g))},
        "exact/omega123/link_n3": {"s": _best(lambda: [exterior.pullback(w, frame) for w in omegas])},
        "build_link_frame/n3": {"s": _best(lambda: model.build_link_frame(3))},
    }


def _counted_frames(search) -> dict:
    """Frames that FormEvaluator.grads and .values evaluate in one call of search()."""
    frames = {"grad_frames": 0, "value_frames": 0}
    ops = {"grads": "grad_frames", "values": "value_frames"}
    originals = {op: getattr(calib.FormEvaluator, op) for op in ops}

    def counting(key, fn):
        def wrapper(self, V):
            frames[key] += int(np.prod(V.shape[:-2]))
            return fn(self, V)
        return wrapper

    for op, fn in originals.items():
        setattr(calib.FormEvaluator, op, counting(ops[op], fn))
    try:
        search()
    finally:
        for op, fn in originals.items():
            setattr(calib.FormEvaluator, op, fn)
    return frames


def _oracle_forms() -> dict:
    """The benchmark's random 2-forms, ORACLE_FORMS_PER_DIM per dimension."""
    rng, out = np.random.default_rng(ORACLE_SEED), {}
    for N in ORACLE_DIMS:
        forms = out[N] = []
        for _ in range(ORACLE_FORMS_PER_DIM):
            A = rng.standard_normal((N, N))
            S = A - A.T
            forms.append(exterior.AltForm(N, 2, {(i, j): S[i, j] for i in range(N) for j in range(i + 1, N)}))
    return out


def _proposition_searches() -> list:
    """(form, seed offset) of the propositions suite's searches at n = 1."""
    return [(MODELS[space](1).form(name) * sign, offset) for space, name, sign, offset in PROPOSITION_SEARCHES]


def _counted_generators(run) -> dict:
    """Generators that calib constructs in one call of run(), with its
    starting-draw cache (where the checkout has one) cleared first."""
    getattr(calib, "_DRAWS", {}).clear()
    count, make = 0, np.random.default_rng

    def counting(*args, **kwargs):
        nonlocal count
        count += sys._getframe(1).f_globals.get("__name__") == calib.__name__
        return make(*args, **kwargs)

    np.random.default_rng = counting
    try:
        t0 = time.perf_counter()
        run()
        seconds = time.perf_counter() - t0
    finally:
        np.random.default_rng = make
    return {"generators": count, "s": seconds}


def _comass_search_kernels() -> dict:
    out = {}
    params = calib.SearchParams(restarts=ANCHOR_RESTARTS, seed=0)
    anchors = [resolve(name, 2, space)[0] for name, space in ANCHORS]
    for (name, space), form in zip(ANCHORS, anchors):
        search = lambda: calib.comass_search(form, params=params)  # noqa: E731
        out[f"{space}/{name}/n2/r{ANCHOR_RESTARTS}"] = dict(_counted_frames(search), s=_best(search))
    oracle = _oracle_forms()
    oracle_params = calib.SearchParams(restarts=ORACLE_RESTARTS, seed=ORACLE_SEED + 1)
    for N, forms in oracle.items():
        search = lambda: [calib.comass_search(f, params=oracle_params) for f in forms]  # noqa: E731
        out[f"oracle/R{N}x{ORACLE_FORMS_PER_DIM}/r{ORACLE_RESTARTS}"] = dict(_counted_frames(search), s=_best(search))
    searches = _proposition_searches()

    def six():
        return [calib.comass_search(f, params=calib.SearchParams(restarts=PROPOSITION_RESTARTS, seed=offset))
                for f, offset in searches]

    out[f"propositions/n1/r{PROPOSITION_RESTARTS}"] = dict(_counted_frames(six), s=_best(six))
    return out


def _generator_counts() -> dict:
    """Generators constructed in one calibrations-n2 pass (its anchors and
    oracle searches) and in one propositions run at n = 1 (the scans-n1
    workload's 500 samples and restarts), each from a cleared draw cache."""
    anchors = [resolve(name, 2, space)[0] for name, space in ANCHORS]
    oracle = [f for forms in _oracle_forms().values() for f in forms]

    def calibrations_pass():
        for form in anchors:
            calib.comass_search(form, params=calib.SearchParams(restarts=ANCHOR_RESTARTS, seed=0))
        for f in oracle:
            calib.comass_search(f, params=calib.SearchParams(restarts=ORACLE_RESTARTS, seed=ORACLE_SEED + 1))

    return {"calibrations-n2/pass": _counted_generators(calibrations_pass),
            f"propositions/n1/r{PROPOSITION_RESTARTS}": _counted_generators(
                lambda: run_suite("propositions", 1, 0, samples=PROPOSITION_RESTARTS, restarts=PROPOSITION_RESTARTS))}


def _median_results(runs: list) -> dict:
    """The first run's rows, each with "s" the median over every run."""
    return {group: {key: dict(row, s=statistics.median(run[group][key]["s"] for run in runs))
                    for key, row in rows.items()}
            for group, rows in runs[0].items()}


def _canonicalize(frames):
    W = calib.canonical_frames(frames)
    keys = [w.tobytes() for w in np.round(W, 12)]
    return W[keys.index(min(keys))]


def run() -> dict:
    # glibc serves blocks above its mmap threshold with fresh pages and raises
    # the threshold when such a block is freed, so a kernel's time would depend
    # on the largest array some earlier kernel freed (grads of theta_I4 on 1000
    # frames: 6 ms or 3 ms).  Freeing one 24 MB block first sets the same
    # threshold for every kernel and every checkout.
    block = np.empty(3 << 20)
    del block
    out = {"values": {}, "grads": {}, "retraction": {}, "canonicalize_tied": {}}
    for name, n, space in FORMS:
        form, _ = resolve(name, n, space)
        ev = calib.FormEvaluator(form)
        k = form.degree
        rng = np.random.default_rng(k)
        for B in FRAME_COUNTS:
            V = _orthonormal(rng, (B, form.dim, k))
            for op in ("values", "grads"):
                method = getattr(ev, op)
                out[op][f"k{k}_B{B}"] = {"form": f"{space}/{name}", "n": n, "terms": len(ev.coeffs),
                                         "s": _best(lambda: method(V))}
    for shape in RETRACTION_SHAPES:
        X = _tangent_steps(np.random.default_rng(sum(shape)), shape)
        out["retraction"]["x".join(map(str, shape))] = {"s": _best(lambda: calib._qf(X))}
    R, N, k = TIED
    frames = np.swapaxes(_orthonormal(np.random.default_rng(R), (R, N, k)), -1, -2)
    out["canonicalize_tied"]["x".join(map(str, TIED))] = {"s": _best(lambda: _canonicalize(frames))}
    out["single_frame_evaluate"], out["single_frame_value"], out["classify_plane"] = {}, {}, {}
    for name, space in SINGLE_FRAME_FORMS:
        m = MODELS[space](3)
        form = m.form(name)
        F = _orthonormal(np.random.default_rng(form.degree), (m.dim, form.degree)).T
        row = {"form": f"{space}/{name}", "n": 3, "terms": form.num_terms()}

        def contract():
            return exterior.evaluate(form, list(F))

        out["single_frame_evaluate"][row["form"]] = dict(row, s=_best(contract))
        out["single_frame_value"][row["form"]] = dict(row, s=_best(lambda: m.value(name, F)))
    cases = [(space, n, k) for space in MODELS for n in (1, 2) for k in CLASSIFY_SMALL_DEGREES]
    for space, n, k in cases + [(space, 3, k) for space, k in CLASSIFY_DEGREES.items()]:
        m = MODELS[space](n)
        plane = calib.Plane.from_vectors(_orthonormal(np.random.default_rng(k), (m.dim, k)).T)
        out["classify_plane"][f"{space}/n{n}/k{k}"] = {"s": _best(lambda: planes.classify_plane(plane, m))}
    out["plane_values"] = _plane_value_kernels()
    out["implication_checks"] = _implication_kernels()
    out["normal_form"] = _normal_form_kernels()
    out["pullback"] = _pullback_kernels()
    out["comass_search"] = _comass_search_kernels()
    out["generators"] = _generator_counts()
    out["exact"] = _exact_kernels()
    out["exact_counts"] = _counted_exact_pass()
    out["exact_cli"] = _exact_cli()
    out["plain_ring"] = _plain_ring_kernels()
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file; an existing file keeps its other runs")
    ap.add_argument("--label", default="run", help="name of this run in the file")
    args = ap.parse_args()

    digest = hashlib.sha256()
    src = os.path.dirname(calib.__file__)
    for path in [os.path.join(src, f) for f in sorted(os.listdir(src)) if f.endswith(".py")] + [__file__]:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    source_digest = digest.hexdigest()[:16]
    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    old = data.get(args.label, {})
    runs = old.get("runs", []) if old.get("src_sha256") == source_digest else []
    runs.append(run())
    record = {
        "src_sha256": source_digest,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine(), "nproc": os.cpu_count()},
        "repeat": REPEAT,
        "results": _median_results(runs),
        "runs": runs,
    }
    data[args.label] = record
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for group, rows in record["results"].items():
        for key, row in rows.items():
            counts = "".join(f"  {k} {v}" for k, v in row.items() if k.endswith(("sumsq", "__", "frames", "gc", "generators")))
            print(f"{args.label:8s} {group:21s} {key:30s} {row['s'] * 1e3:10.3f} ms"
                  f" (median of {len(runs)}){counts}")


if __name__ == "__main__":
    main()
