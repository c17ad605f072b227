"""JSON-first command line front end.

Subcommands: forms, comass, classify, normalform, verify; forms, comass and
classify take --space.
Exit codes: 0 success / all checks pass, 1 suite failures, 2 usage or input
errors.  Output is compact JSON on stdout; --pretty indents it, --no-timing
removes elapsed-time fields so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from caliber import registry
from caliber.calib import Plane, SearchParams, comass_search
from caliber.exterior import ComplexAltForm, form_from_json, form_to_json
from caliber.planes import classify_plane, normal_form_theta, phase_rigidity_scan
from caliber.suites import SUITES, coverage_table, run_suite, suite_counts


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line on stderr and exit 2, as every usage error
        raise UsageError(message)


def _emit(data, pretty: bool) -> None:
    if pretty:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))


def _read_json(path: str, what: str, parse):
    """`parse` of the JSON in the file at `path`, a usage error naming the
    `what` file if it cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"could not load {what} file {path!r}: {exc}") from exc


def _resolve(name: str, args) -> tuple[object, str]:
    """The registry form `name` at --n and --space, and its space."""
    try:
        return registry.resolve(name, args.n, args.space)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from exc


def _envelope_report(result, n: int) -> dict:
    """Exploratory: how many maximizer planes (within 1e-6 of the best value,
    relative to it) have each dimension of quaternionic span
    dim(P + I1 P + I2 P + I3 P) in the cone.

    Reported only, never asserted: it probes whether special-isotropic
    maximizers stay inside quaternionic subspaces of the expected dimension.
    """
    hk = registry.model("cone", n)
    frames = result.maximizer_frames(1e-6)
    stacked = np.concatenate([frames] + [frames @ Ip.T for Ip in hk.complex_structures], axis=1)
    ranks, counts = np.unique(np.sum(np.linalg.svd(stacked, compute_uv=False) > 1e-8, axis=-1), return_counts=True)
    return {"quaternionic_span_dim_counts": {str(int(r)): int(c) for r, c in zip(ranks, counts)}}


def _cmd_forms(args) -> int:
    if args.action == "list":
        _emit({"space": args.space, "n": args.n, "forms": registry.list_entries(args.space, args.n)}, args.pretty)
        return 0
    form, space = _resolve(args.name, args)
    payload = form_to_json(form)
    payload["name"] = args.name
    payload["space"] = space
    _emit(payload, args.pretty)
    return 0


def _cmd_comass(args) -> int:
    if args.form.endswith(".json"):
        f, space = _read_json(args.form, "form", form_from_json), None
    else:
        f, space = _resolve(args.form, args)
    if isinstance(f, ComplexAltForm):
        raise UsageError("form is complex valued; use its re_*/im_* registry entry instead")
    if args.k is not None and args.k != f.degree:
        raise UsageError(f"requested k={args.k} but the form has degree {f.degree}")
    if args.restarts < 1:
        raise UsageError(f"--restarts must be at least 1, got {args.restarts}")
    params = SearchParams(restarts=args.restarts, seed=args.seed, tol=args.tol)
    try:
        result = comass_search(f, params=params)
    except ValueError as exc:  # a form the search cannot take, e.g. degree above dimension
        raise UsageError(str(exc)) from exc
    payload = result.to_json()
    payload["form"] = args.form
    if args.explore_envelope:
        if space != "cone":
            raise UsageError("--explore-envelope applies to cone-space forms")
        payload["envelope_report"] = _envelope_report(result, args.n)
    _emit(payload, args.pretty)
    return 0


def _cmd_plane(args) -> int:
    """classify and normalform: `args.measure` of the plane in the --plane
    file against the model of `args.space`."""
    model = registry.model(args.space, args.n)
    plane = _read_json(args.plane, "plane", Plane.from_json)
    try:
        result = args.measure(plane, model, tol=args.tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit(result.to_json(), args.pretty)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "phase-scan":
        try:
            counts = suite_counts("phase-scan", {"restarts": 400}, args.samples, args.restarts)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        model = registry.model("twistor", args.n)
        report = phase_rigidity_scan(model, params=SearchParams(restarts=counts["restarts"], seed=args.seed))
        _emit(report.to_json(), args.pretty)
        return 0
    try:
        report = run_suite(args.suite, args.n, seed=args.seed, samples=args.samples, restarts=args.restarts)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = report.to_json(include_timing=not args.no_timing)
    payload["coverage"] = coverage_table(args.suite)
    _emit(payload, args.pretty)
    return 0 if report.overall == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="caliber", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, **space):  # --space, with these keywords, where the command reads it
        p.add_argument("--n", type=int, default=1, help="quaternionic dimension parameter (1..3)")
        p.add_argument("--pretty", action="store_true")
        if space:
            p.add_argument("--space", choices=registry.SPACES, **space)

    p_forms = sub.add_parser("forms", help="list the form catalog or dump one form as JSON")
    forms_sub = p_forms.add_subparsers(dest="action", required=True)
    p_list = forms_sub.add_parser("list")
    common(p_list, default="cone")
    p_list.set_defaults(func=_cmd_forms)
    p_dump = forms_sub.add_parser("dump")
    p_dump.add_argument("--name", required=True)
    common(p_dump, default=None)
    p_dump.set_defaults(func=_cmd_forms)

    p_comass = sub.add_parser("comass", help="multi-start comass search for a named form or JSON file")
    p_comass.add_argument("--form", required=True, help="registry name or path to a form .json file")
    p_comass.add_argument("--k", type=int, default=None)
    p_comass.add_argument("--restarts", type=int, default=200)
    p_comass.add_argument("--seed", type=int, default=0)
    p_comass.add_argument("--tol", type=float, default=1e-10,
                          help="Riemannian gradient norm at which a restart has converged, measured on the form "
                               "scaled by the power of two that brings its largest coefficient into [1, 2); a "
                               "restart also stops once its next Armijo gain falls to the float floor eps*max(|f|,1)")
    p_comass.add_argument("--explore-envelope", action="store_true")
    common(p_comass, default=None)
    p_comass.set_defaults(func=_cmd_comass)

    p_classify = sub.add_parser("classify", help="classify a plane from a JSON file against a model space")
    p_classify.add_argument("--plane", required=True)
    p_classify.add_argument("--tol", type=float, default=1e-8)
    common(p_classify, required=True)
    p_classify.set_defaults(func=_cmd_plane, measure=classify_plane)

    p_nf = sub.add_parser("normalform", help="normal-form angle of a calibrated 3-plane (twistor model)")
    p_nf.add_argument("--plane", required=True)
    p_nf.add_argument("--tol", type=float, default=1e-8)
    common(p_nf)
    p_nf.set_defaults(func=_cmd_plane, measure=normal_form_theta, space="twistor")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITES + ("phase-scan",), required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--restarts", type=int, default=None)
    p_verify.add_argument("--no-timing", action="store_true")
    common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.n not in (1, 2, 3):
            raise UsageError(f"--n must be in 1..3, got {args.n}")
        tol = getattr(args, "tol", None)
        if tol is not None and not 0 < tol < math.inf:
            raise UsageError(f"--tol must be finite and positive, got {tol}")
        seed = getattr(args, "seed", None)
        if seed is not None and seed < 0:
            raise UsageError(f"--seed must be non-negative, got {seed}")
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
