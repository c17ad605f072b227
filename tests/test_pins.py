"""Byte pins: every registry form and the exact suites' --no-timing output.

The digests were recorded from the code before the form algebra was unified,
so a refactor of `exterior`, `symforms`, `model` or `registry` that changes
one coefficient, one catalog entry or one suite witness fails here.
"""

import contextlib
import hashlib
import io
import json

from caliber import registry
from caliber.cli import run
from caliber.exterior import form_to_json

CATALOG_SHA256 = {
    ("cone", 1): "228ea506cfa66771ae3ed30cc0c3495191f4a34a1507b1c6d10d21c14bd8463f",
    ("cone", 2): "3ee1a812ad49e1f4c905aea1a38bd3bde113bf7ff6ed3194b5ab4e01cfd9c1a3",
    ("cone", 3): "636c763b409f580f5cf5a806b04b996dcf8045e6f230977efc1e74862dabd85e",
    ("link", 1): "887dc1bd28a1baea26d25ae40e89256e57e731dfae262f68ab6a801d9886d9b9",
    ("link", 2): "a8365cb72d0ec3ae9db4f8ab722cd6e1dd42f0bf1cdfaa2cae77f911df532129",
    ("link", 3): "b9aa90f43e5594ad78e4a0672c8baf80bab9c06d6049f4c823aedf6fff7556d7",
    ("twistor", 1): "f72d0db1cfb16749dbc2133cfa287ecdb07e1d770c709a46e0a8a3a0bf7a5718",
    ("twistor", 2): "df5f32ef046fe03ba3884f414999b5d2df679e6ba2fee6b102ed3158d0c284c7",
    ("twistor", 3): "d7d14f4b12a1b2f02f150bf5e25922478ecb75474227b253888bba49922336ec",
}

VERIFY_N1_SHA256 = {
    "identities": "09d468d5fe790b1c615e23a11b734bbffae55252d6b59d57bfd874db81448e43",
    "cones": "415aa429ec5d12cb8c565f0d5276afbd97f20e3b9698c120a1dfd47dfb03d7b6",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def catalog_digest(space: str, n: int) -> str:
    forms = {name: form_to_json(f) for name, f in sorted(registry.catalog(space, n).items())}
    return _sha256(json.dumps({"entries": registry.list_entries(space, n), "forms": forms}, sort_keys=True))


def test_registry_forms_and_exact_suites_are_byte_pinned():
    for (space, n), digest in CATALOG_SHA256.items():
        assert catalog_digest(space, n) == digest, (space, n)
    for suite, digest in VERIFY_N1_SHA256.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["verify", "--suite", suite, "--n", "1", "--no-timing"])
        assert code == 0, suite
        assert _sha256(out.getvalue()) == digest, suite
