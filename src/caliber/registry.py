"""Named form registry: the model of each space and lookups in its catalog."""

from __future__ import annotations

from caliber.model import build_hyperkahler_cone, build_twistor_model, default_link_frame

SPACES = ("cone", "link", "twistor")

__all__ = ["SPACES", "model", "catalog", "resolve", "list_entries"]


def model(space: str, n: int):
    """The cached model of a space: the cone, the default link frame or the
    twistor model."""
    if space == "cone":
        return build_hyperkahler_cone(n)
    if space == "link":
        return default_link_frame(n)
    if space == "twistor":
        return build_twistor_model(n)
    raise ValueError(f"unknown space {space!r}; expected one of {SPACES}")


def catalog(space: str, n: int) -> dict:
    """All named forms of a model space, keyed by registry name (a copy of
    the model's catalog)."""
    return dict(model(space, n).catalog)


def resolve(name: str, n: int, space: str | None = None):
    """Look up a form by name; returns (form, space).

    Without an explicit space the lookup tries cone, then link, then twistor.
    """
    spaces = (space,) if space else SPACES
    for sp in spaces:
        cat = model(sp, n).catalog
        if name in cat:
            return cat[name], sp
    where = f"space {space!r}" if space else "any space"
    raise KeyError(f"no form named {name!r} for n={n} in {where}")


def list_entries(space: str, n: int) -> list[dict]:
    out = []
    for name, f in sorted(model(space, n).catalog.items()):
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
