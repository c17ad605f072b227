"""Named form registry, resolved per model space and quaternionic dimension n."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from caliber.exterior import power
from caliber.model import build_hyperkahler_cone, build_twistor_model, default_link_frame

SPACES = ("cone", "link", "twistor")

__all__ = ["SPACES", "catalog", "resolve", "list_entries"]


@lru_cache(maxsize=None)
def catalog(space: str, n: int) -> dict:
    """All named forms of a model space, keyed by registry name."""
    if space == "cone":
        hk = build_hyperkahler_cone(n)
        cat = dict(hk.catalog)
        for p in (1, 2, 3):
            for k in range(2, n + 2):
                cat[f"omega{p}_power{k}"] = power(hk.form(f"omega{p}"), k) * Fraction(1, math.factorial(k))
        return cat
    if space == "link":
        return dict(default_link_frame(n).catalog)
    if space == "twistor":
        return dict(build_twistor_model(n).catalog)
    raise ValueError(f"unknown space {space!r}; expected one of {SPACES}")


def resolve(name: str, n: int, space: str | None = None):
    """Look up a form by name; returns (form, space).

    Without an explicit space the lookup tries cone, then link, then twistor.
    """
    spaces = (space,) if space else SPACES
    for sp in spaces:
        cat = catalog(sp, n)
        if name in cat:
            return cat[name], sp
    where = f"space {space!r}" if space else "any space"
    raise KeyError(f"no form named {name!r} for n={n} in {where}")


def list_entries(space: str, n: int) -> list[dict]:
    out = []
    for name, f in sorted(catalog(space, n).items()):
        out.append(
            {
                "name": name,
                "degree": f.degree,
                "dim": f.dim,
                "terms": f.num_terms(),
                "scalar_kind": f.scalar_kind,
            }
        )
    return out
