"""Byte pins: every registry form, the exact suites' --no-timing output at
n = 1 and 2, the normal-form suite's --no-timing output, the `classify`
output on every special and some random planes, and every exact coefficient
of the link extension catalog at n = 1, 2 and 3.

The digests were recorded from the code before the form algebra was unified,
so a refactor of `exterior`, `symforms`, `model` or `registry` that changes
one coefficient, one catalog entry or one suite witness fails here.  The
coefficient digest was recorded before the reduction by sum(x_i^2) learned
to skip divisions that cannot succeed; it hashes the canonical (p, q, s) of
each coefficient, which the float JSON of the registry forms does not show,
so a coefficient left unreduced fails here.  The n=2 exact pins were
recorded while the catalog still built its sigma_p powers with the generic
wedge power and `RCoef.diff` still took its derivative through `Poly`
products.  The n=3 coefficient digest was recorded while every product of
an exact wedge and every derivative of `ext_d` was still made as an `RCoef`
of its own before its blade's sum.  The normal-form digests were recorded
while that suite still sampled and normal-formed one plane at a time, so
batching it may not change one theta, witness or byte.

The calibrations and propositions digests pin float outputs: comass
searches, maximizer counts and float witnesses.  They were recorded on a
2-core x86-64 Xeon with numpy 2.4 on OpenBLAS 0.3.31 (Python 3.11), before
the maximizers of a search became one frame batch.  A change of BLAS or CPU
may move their last bits; a change of the code must not.  The propositions
digests at n = 2, 3 and the `classify` digests were recorded while the
propositions suite still computed the plane-level implications itself,
apart from `planes.check_equivalences`.

Every `verify` digest was re-recorded once, when a report's "coverage" came
to list only its own suite's check ids; `FULL_COVERAGE_SHA256` ties each to
the digest pinned before, so no other byte of a report moved then.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
from test_planes import _special_planes

from caliber import registry, symforms
from caliber.calib import Plane
from caliber.cli import _emit, run
from caliber.exterior import ComplexAltForm, form_to_json
from caliber.planes import batch_random_planes
from caliber.suites import coverage_table

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
    "identities": "6358b4752347524abc1e79e97d3e0be55bd2022c1027ce23ffdca247fc819609",
    "cones": "a414c6d05814cd173dfdc5e86638f7aba2ed4b54d1c302f944611ec6589bb559",
}

# (suite, --seed) -> sha256 of `verify --suite S --n 2 --no-timing`.  The
# identities digest is at the seed of `test_c1_identity_suite_exact`, which
# checks it on the n=2 report it builds anyway; the seed reaches the output
# only through the report's "seed" field and `dd_zero_random`.
VERIFY_N2_SHA256 = {
    ("identities", 20260808): "358d628b70b6c603aa6df24cd5bd741dc85d4dc92068c29dd5a3e202382420ff",
    ("cones", 0): "abb5ef3a85d2fc8bc460e2c97cd2c5e68b9934bf1e9cd58d04c3a4b59787cf51",
}

# (n, --samples or None for the default) -> sha256 of `verify --suite normalform`
NORMALFORM_SHA256 = {
    (1, None): "55a24949f0c941efa6bb98b029336a2fc6e25e8c0686dbe7281d1014f19fc6b0",
    (2, None): "c2ae6e15251bdc2e52f387d859fa8d6a30214da933ff7b5a5e80bccf576db404",
    (3, None): "acd36766055395755a2d516708ffa8392796046ebc2e1ba746072fb8b3abe63b",
    (2, 37): "bdca7d4256c47f4f9fb8a219c29bd893bd0fcc06b1a6d32fdd9749be169a8245",
}

# sha256 of `verify --no-timing` on the float suites, at the settings of
# `test_c8_suite_determinism` (seed 0)
FLOAT_SUITES_SHA256 = {
    ("calibrations", "--restarts", "40"): "85a26fc1b186c27eab1082d4bef69e0b36fc955aa695ecf02b4a8da8a7c38f7b",
    ("propositions", "--samples", "300", "--restarts", "300"):
        "bf4e79449631cf158f9ee1287d91ba9a77b5c75ce81fc0c1b5fb45bffbd70a1e",
}

# (n, --samples, --restarts) -> sha256 of `verify --suite propositions`
# where k = 2n+2 and k = 2n+1 differ from the sampled degrees 3 and 4
PROPOSITIONS_SHA256 = {
    (2, 300, 300): "3bff61f4cf60d93b8ff224bf0a4af6d267e590497f9caef9540b74db43a8170c",
    (3, 300, 40): "0f4ed9d72fd240b40ef975c4d91401b9e76d51b8bb94f84c7df5a54c7bf93c77",
}

# sha256 of each verify output pinned above -> sha256 of that output with the
# whole `coverage_table()` as its "coverage", the bytes `verify` printed while
# every report carried every suite's ids: the digests pinned then.  So each
# report changed only under "coverage" when it came to list its own suite only.
FULL_COVERAGE_SHA256 = {
    "6358b4752347524abc1e79e97d3e0be55bd2022c1027ce23ffdca247fc819609":
        "09d468d5fe790b1c615e23a11b734bbffae55252d6b59d57bfd874db81448e43",
    "a414c6d05814cd173dfdc5e86638f7aba2ed4b54d1c302f944611ec6589bb559":
        "415aa429ec5d12cb8c565f0d5276afbd97f20e3b9698c120a1dfd47dfb03d7b6",
    "358d628b70b6c603aa6df24cd5bd741dc85d4dc92068c29dd5a3e202382420ff":
        "48295e165e0113415afc4b5d22eb8ef32b25fa0280217537801e0b281f73d3a5",
    "abb5ef3a85d2fc8bc460e2c97cd2c5e68b9934bf1e9cd58d04c3a4b59787cf51":
        "c6f799fd71cca450b3aef659add2f239d9bb1849207e5224825844a9e6bc72ea",
    "55a24949f0c941efa6bb98b029336a2fc6e25e8c0686dbe7281d1014f19fc6b0":
        "5fc1a0cfd1887528a322816b7d2b4908d8837aa175fa873beed88b2d7a2c67d0",
    "c2ae6e15251bdc2e52f387d859fa8d6a30214da933ff7b5a5e80bccf576db404":
        "48c009181e344448276ea7e6f504475f2895b720ef7d213c90c7519f5610c8a7",
    "acd36766055395755a2d516708ffa8392796046ebc2e1ba746072fb8b3abe63b":
        "2b2e69066ff651e9653a8f518aff373d9413675aaaa04a4816e19060661a90e1",
    "bdca7d4256c47f4f9fb8a219c29bd893bd0fcc06b1a6d32fdd9749be169a8245":
        "9ccf1533ac7630b9bfb4b508c4b7fcb073f02a81098da45eb854bec637ca6659",
    "85a26fc1b186c27eab1082d4bef69e0b36fc955aa695ecf02b4a8da8a7c38f7b":
        "4f85377e2e2d7b3fdddef3d63f7c9580b60f65d95bba02a5e4cbb1a3af36ea8e",
    "bf4e79449631cf158f9ee1287d91ba9a77b5c75ce81fc0c1b5fb45bffbd70a1e":
        "6130d437aaa87896b4d448ef7a966420b72764f9e7c663d68923ea346d096136",
    "3bff61f4cf60d93b8ff224bf0a4af6d267e590497f9caef9540b74db43a8170c":
        "91a1346cff90688a1e9ca58e2ac7d237784afaaee08c9a099a17bc21c6a60f99",
    "0f4ed9d72fd240b40ef975c4d91401b9e76d51b8bb94f84c7df5a54c7bf93c77":
        "8263144195742c18521b387b86b1feefa3ee95be35394c59861f883891d02cc1",
}

# (space, n) -> sha256 of `classify --space S --n n` on every `_special_planes(n)`
# frame of that space, then on two seeded Haar-random planes of each degree 2..4
CLASSIFY_SHA256 = {
    ("cone", 1): "f35c86ff5c56715b93a8b37cb37f240ed388712bbcfcbd021f220d2e94ef240e",
    ("link", 1): "f5c09a7a002f108a7df90c227bda82bb4b7221ad6fd4ff2f04fb27c02a4af888",
    ("twistor", 1): "99240e87e936b593768839bdcbb8b6db8bd0ed5045e9daf3397b3d91b7d6e50e",
    ("cone", 2): "1e1bcfe2b9e5365839fc7b529999627e8f59d1a18b3ac94e30c2d6e1379d59d4",
    ("link", 2): "5fa7b0bc149e2cf57fb329c7ea9a4f74817adaadca48afb88ae6abd4f900e3db",
    ("twistor", 2): "5618d6841c7a667dcd673ad0d164addccce77c96a0ab6a10071d6c02a3042c05",
    ("cone", 3): "e656aa9428fee995d7891376ac9b75ea40dcbf8be0329a0caf18386fb7f4f38d",
    ("link", 3): "cd83e13f8b20f50136bce05ad7d0e875b9744d0b22363e0aa796a681b2f4984a",
    ("twistor", 3): "35f0ad00f1f52e7b397b25842e9be46683a2481a4e26924d7f0a2d52450dbafa",
}

# n -> coefficient digest of `symforms.link_extension_catalog(n)`
LINK_EXTENSION_COEFFICIENTS_SHA256 = {
    1: "1f2195c0d237cb36b81bfc6f6d9259ec6eaa1f4ce3722e51597c9c1e13487dc3",
    2: "3a92899ea1e60428b5a082b018fd84650e641befa55824121a7992f0d6c0eaf8",
    3: "ce787498805e3f5ffe9a325c08e8b1d601f0a45c34655e3d58e82f18a21d5820",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def catalog_digest(space: str, n: int) -> str:
    forms = {name: form_to_json(f) for name, f in sorted(registry.catalog(space, n).items())}
    return _sha256(json.dumps({"entries": registry.list_entries(space, n), "forms": forms}, sort_keys=True))


def _emitted(payload: dict) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload, pretty=False)
    return out.getvalue()


def verify_bytes(report) -> str:
    """What `verify --no-timing` prints for a suite report."""
    return _emitted(dict(report.to_json(include_timing=False), coverage=coverage_table(report.suite)))


def pinned_digest(text: str) -> str:
    """The sha256 of a `verify` output, checked to differ from the output
    pinned before only under "coverage" (`FULL_COVERAGE_SHA256`)."""
    digest = _sha256(text)
    full = _emitted(dict(json.loads(text), coverage=coverage_table()))
    assert FULL_COVERAGE_SHA256.get(digest) == _sha256(full), digest
    return digest


def verify_digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["verify", *argv, "--no-timing"])
    assert code == 0, argv
    return pinned_digest(out.getvalue())


def test_registry_forms_and_exact_suites_are_byte_pinned():
    for (space, n), digest in CATALOG_SHA256.items():
        assert catalog_digest(space, n) == digest, (space, n)
    for suite, digest in VERIFY_N1_SHA256.items():
        assert verify_digest(["--suite", suite, "--n", "1"]) == digest, suite


def test_cones_suite_is_byte_pinned_at_n2():
    (seed,) = [seed for suite, seed in VERIFY_N2_SHA256 if suite == "cones"]
    assert verify_digest(["--suite", "cones", "--n", "2", "--seed", str(seed)]) == VERIFY_N2_SHA256["cones", seed]


def test_normalform_suite_is_byte_pinned():
    for (n, samples), digest in NORMALFORM_SHA256.items():
        argv = ["--suite", "normalform", "--n", str(n)]
        if samples is not None:
            argv += ["--samples", str(samples)]
        assert verify_digest(argv) == digest, (n, samples)


def test_float_suites_are_byte_pinned():
    for (suite, *options), digest in FLOAT_SUITES_SHA256.items():
        assert verify_digest(["--suite", suite, "--n", "1", *options]) == digest, suite


def test_propositions_suite_is_byte_pinned_at_n2_n3():
    for (n, samples, restarts), digest in PROPOSITIONS_SHA256.items():
        argv = ["--suite", "propositions", "--n", str(n), "--samples", str(samples), "--restarts", str(restarts)]
        assert verify_digest(argv) == digest, (n, samples, restarts)


def classify_digests(n: int, tmp_path) -> dict:
    models = {space: registry.model(space, n) for space in registry.SPACES}
    space_of = {id(m): space for space, m in models.items()}
    rng = np.random.default_rng(40 + n)
    frames = {space: [] for space in models}
    for m, F in _special_planes(n, rng):
        frames[space_of[id(m)]].append(F)
    for space, m in models.items():
        for k in (2, 3, 4):
            frames[space].extend(batch_random_planes(m.dim, k, 2, rng))
    digests = {}
    for space, planes in frames.items():
        out = io.StringIO()
        for i, F in enumerate(planes):
            path = tmp_path / f"{space}_{n}_{i}.json"
            path.write_text(json.dumps(Plane.from_vectors(F).to_json()))
            with contextlib.redirect_stdout(out):
                assert run(["classify", "--space", space, "--n", str(n), "--plane", str(path)]) == 0
        digests[(space, n)] = _sha256(out.getvalue())
    return digests


def test_classify_is_byte_pinned(tmp_path):
    digests = {}
    for n in (1, 2, 3):
        digests.update(classify_digests(n, tmp_path))
    assert digests == CLASSIFY_SHA256


def coefficient_digest(n: int) -> str:
    """sha256 over (entry, part, blade, sorted p terms, sorted q terms, s) of
    every coefficient of `link_extension_catalog(n)`; a vector field's
    component index stands in for the blade."""

    def terms(poly):
        return sorted((k, str(c)) for k, c in poly.terms.items())

    rows = []
    for name, entry in sorted(symforms.link_extension_catalog(n).items()):
        if isinstance(entry, tuple):
            parts = [("field", dict(enumerate(entry)))]
        elif isinstance(entry, ComplexAltForm):
            parts = [("re", entry.re._raw_terms()), ("im", entry.im._raw_terms())]
        else:
            parts = [("re", entry._raw_terms())]
        for part, coeffs in parts:
            rows.extend([name, part, blade, terms(c.p), terms(c.q), c.s] for blade, c in sorted(coeffs.items()))
    return _sha256(json.dumps(rows))


def test_link_extension_coefficients_are_pinned():
    for n, digest in LINK_EXTENSION_COEFFICIENTS_SHA256.items():
        assert coefficient_digest(n) == digest, n
