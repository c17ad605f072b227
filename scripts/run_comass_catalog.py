#!/usr/bin/env python3
"""Compute the comass of every real form in the catalogs and print a table.

Usage: python scripts/run_comass_catalog.py [--n N] [--restarts R] [--seed S]
"""

import argparse
import time

from caliber.calib import SearchParams, comass_search
from caliber.registry import SPACES, catalog


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--restarts", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-degree", type=int, default=6)
    args = ap.parse_args()

    params = SearchParams(restarts=args.restarts, seed=args.seed)
    print(f"{'space':8s} {'form':22s} {'deg':>3s} {'comass':>14s} {'conv':>6s} {'floor':>6s} {'sec':>6s}")
    for space in SPACES:
        for name, form in sorted(catalog(space, args.n).items()):
            if form.scalar_kind != "real" or form.degree == 0 or form.degree > args.max_degree:
                continue
            t0 = time.perf_counter()
            res = comass_search(form, params=params)
            dt = time.perf_counter() - t0
            print(f"{space:8s} {name:22s} {form.degree:3d} {res.value:14.10f} "
                  f"{res.converged_fraction:6.2f} {res.terminations['float_floor']:6d} {dt:6.2f}")


if __name__ == "__main__":
    main()
