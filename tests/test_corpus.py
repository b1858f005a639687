"""One-point simplices the package did not build, written out as vertex lists.

The AKN extremes conv{0, t_1 e_1, ..., t_(d-1) e_(d-1), 2(t_d - 1) e_d},
t_k the Sylvester terms 2, 3, 7, 43, ..., have |det| = 2(t_d - 1)^2.  For
d >= 4 they are the one-point d-simplices of largest volume (Averkov,
Kruempelmann & Nill, "Largest integral simplices with one interior integral
point", J. Combin. Theory Ser. A 2015); for d = 3, volume 12 is the largest
among the canonical Fano tetrahedra (Kasprzyk, "Canonical toric Fano
threefolds", Canad. J. Math. 2010).  Each one's volume is above zpw(d)'s.
"""

import json
from fractions import Fraction

import pytest

import onepoint as op
from onepoint.cli import main
from oracles import det_int, sylvester

AKN = {
    2: ((0, 0), (2, 0), (0, 4)),
    3: ((0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 12)),
    4: ((0, 0, 0, 0), (2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 84)),
    5: ((0, 0, 0, 0, 0), (2, 0, 0, 0, 0), (0, 3, 0, 0, 0), (0, 0, 7, 0, 0),
        (0, 0, 0, 43, 0), (0, 0, 0, 0, 3612)),
}
# |det| = 2(t_d - 1)^2 and the normalized volume |det| / d!
DETERMINANTS = {2: 8, 3: 72, 4: 3528, 5: 6523272}
VOLUMES = {2: Fraction(4), 3: Fraction(12), 4: Fraction(147), 5: Fraction(271803, 5)}


@pytest.mark.parametrize("dim", sorted(AKN))
def test_akn_extremes_are_members_that_pass_every_bound(dim):
    simplex, point = op.LatticeSimplex(AKN[dim]), (1,) * dim
    assert op.enumerate_interior(simplex).points == (point,)
    base, *rest = AKN[dim]
    edges = [[v[c] - b for v in rest] for c, b in enumerate(base)]
    assert abs(det_int(edges)) == DETERMINANTS[dim] == 2 * (sylvester(dim).terms[-1] - 1) ** 2
    assert op.normalized_volume(simplex) == VOLUMES[dim] > op.normalized_volume(op.zpw_simplex(dim))
    assert op.bounds_report(simplex, point).passed
    assert op.chain_decompose(simplex, point).passed


def test_report_ranks_akn_above_zpw(tmp_path, capsys):
    paths = []
    for dim in sorted(AKN):
        for name, simplex in (("akn", op.LatticeSimplex(AKN[dim])), ("zpw", op.zpw_simplex(dim))):
            path = tmp_path / f"{name}{dim}.json"
            path.write_text(op.simplex_to_text(simplex), encoding="utf-8")
            paths.append(str(path))
    assert main(["--format", "structured", "report", *paths]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"]
    assert {e["dim"]: (e["members"], Fraction(e["max_volume"])) for e in doc["dimensions"]} == {
        dim: (2, volume) for dim, volume in VOLUMES.items()
    }
