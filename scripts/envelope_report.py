#!/usr/bin/env python3
"""Exploratory scan: do special-isotropic maximizers stay inside quaternionic
subspaces of the minimal possible dimension?

For a calibrated 2k-plane P of the degree-2k special-isotropic form, the scan
measures dim(P + I1 P + I2 P + I3 P).  Containment in a quaternionic k-plane
would give 4k.  Reported only; nothing here is asserted by the test suite.

Usage: python scripts/envelope_report.py [--n N] [--k K] [--restarts R]
"""

import argparse

from caliber.calib import SearchParams, comass_search
from caliber.cli import quaternionic_span_counts
from caliber.model import build_hyperkahler_cone


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--k", type=int, default=2, help="half the plane dimension (form theta_{I,2k})")
    ap.add_argument("--restarts", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    hk = build_hyperkahler_cone(args.n)
    name = f"theta_I{2 * args.k}"
    form = hk.form(name).to_float()
    res = comass_search(form, params=SearchParams(restarts=args.restarts, seed=args.seed))
    print(f"form {name} on R^{hk.dim}: best value {res.value:.12f}")

    counts = quaternionic_span_counts(res, args.n, tol=1e-9)
    total = sum(counts.values())
    print(f"{total} maximizer planes; quaternionic span dimensions:")
    for rank, count in counts.items():
        tag = " (minimal quaternionic envelope)" if rank == 4 * args.k else ""
        print(f"  dim {rank}: {count}{tag}")


if __name__ == "__main__":
    main()
