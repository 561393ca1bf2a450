import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from entwine.instances import fixture_path, load_instance

# Property sweeps draw the same examples on every run and write no example
# database, so a failure reproduces from the test name alone.
settings.register_profile(
    "entwine", derandomize=True, database=None, max_examples=60, deadline=None
)
settings.load_profile("entwine")

BIMONOID_FIXTURES = ("kz2_f3", "kz3_f2", "m2_f2", "sweedler_f5", "trivial_fp")
HOPF_FIXTURES = ("kz2_f3", "kz3_f2", "sweedler_f5", "trivial_fp")
ALL_FIXTURES = BIMONOID_FIXTURES + ("regular_comodule_f3", "trivial_coaction_f3")

_cache = {}


def corpus_instance(name):
    if name not in _cache:
        _cache[name] = load_instance(fixture_path(name))
    return _cache[name]


def corpus_bimonoid(name):
    (_, a), = corpus_instance(name).roles_of("bimonoid")
    return a


def monoid_algebra(p, elements, op):
    """Instance dict of F_p[M] for the finite monoid M on ``elements`` under
    ``op``, with the group-like basis (delta g = g (x) g, eps g = 1) and
    ``elements[0]`` as the unit."""
    n = len(elements)
    m = [0] * (n * n * n)
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            m[elements.index(op(x, y)) * n * n + i * n + j] = 1
    delta = [0] * (n * n * n)
    for i in range(n):
        delta[(i * n + i) * n + i] = 1
    return {
        "field_p": p,
        "objects": {"A": n},
        "maps": {
            "m": {"rows": n, "cols": n * n, "entries": m},
            "e": {"rows": n, "cols": 1, "entries": [1] + [0] * (n - 1)},
            "delta": {"rows": n * n, "cols": n, "entries": delta},
            "eps": {"rows": 1, "cols": n, "entries": [1] * n},
        },
        "roles": {"A": {"kind": "bimonoid", "object": "A", "m": "m", "e": "e", "delta": "delta", "eps": "eps"}},
    }


def chain_algebra(p, n):
    """F_p[{0 < 1 < ... < n-1}] under max: a bimonoid, not Hopf for n > 1."""
    return monoid_algebra(p, list(range(n)), max)


@pytest.fixture(params=BIMONOID_FIXTURES)
def bimonoid_fixture(request):
    return request.param, corpus_bimonoid(request.param)


@pytest.fixture(params=HOPF_FIXTURES)
def hopf_fixture(request):
    return request.param, corpus_bimonoid(request.param)
