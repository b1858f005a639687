import random

import pytest

import onepoint as op


@pytest.fixture(scope="session")
def zpw_family():
    return {d: op.zpw_simplex(d) for d in range(1, 6)}


@pytest.fixture(scope="session")
def canonical_family():
    return {d: (op.dilated_simplex(d), op.reflected_simplex(d)) for d in range(1, 6)}


@pytest.fixture(scope="session")
def atlas30():
    return op.onepoint_triangle_atlas(30)


@pytest.fixture(scope="session")
def corpus(zpw_family, canonical_family, atlas30):
    """Every verified one-point simplex the suite reasons about."""
    members = list(zpw_family.values())
    for pair in canonical_family.values():
        members.extend(pair)
    members.extend(op.LatticeSimplex(c.vertices) for c in atlas30.classes)
    return members


def random_unimodular(dim, rng):
    """A unimodular matrix from a short word of elementary operations."""
    m = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(("shear", "swap", "flip"))
        if dim > 1:
            i, j = rng.sample(range(dim), 2)
        else:
            kind, i, j = "flip", 0, 0
        if kind == "shear":
            factor = rng.choice((-1, 1))
            for c in range(dim):
                m[i][c] += factor * m[j][c]
        elif kind == "swap":
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return tuple(tuple(row) for row in m)


@pytest.fixture
def unimodular():
    return random_unimodular


@pytest.fixture
def rng():
    return random.Random(20260816)
