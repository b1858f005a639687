"""Inequality systems and volume bounds around a single interior point.

The heart of the package: for a full-dimensional lattice simplex whose
interior holds exactly one lattice point, the barycentric coordinates of
that point obey, for every split of the vertex indexes into two nonempty
sides, the inequality

    sum of coordinates on one side  >=  product of coordinates on the other.

Everything else here builds on that: the reduced system on sorted
coordinates, the equivalent determinant form, lower bounds on the sorted
coordinates, bounds along the chain of faces spanned by the heaviest
vertices, face volume bounds from coordinate products, the exact volume law
for parallel sections, and corpus-level extremal summaries.  The public
checks that take the interior lattice point refuse one that is not all ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import factorial, lcm, prod
from operator import mul
from typing import Sequence

from .exact import int_matrix
from .points import DEFAULT_CAP, _census, _face_count, count_face_points
from .simplex import (
    LatticeSimplex,
    _digit_limit,
    _face_index,
    _interior_values,
    _walk,
    check_barycentric,
)

Vector = tuple[int, ...]


class BoundSizeError(ArithmeticError):
    """A bound would have more digits than :data:`MAX_DIGITS` or the interpreter's own limit."""


def _power(base: int, exponent: int) -> int:
    """``base ** exponent`` for ``base >= 2``, refused before it is built past what str() prints.

    Its digits are counted on a lower bound lead * 10**shift, squared with each product
    cut to 10 digits more than the exponent has: exact unless 10^-8 above a power of ten.
    """
    limit = _digit_limit()
    # fewer than limit digits, as log10(2) < 0.302: no digit to count
    if exponent * base.bit_length() * 302 < (limit - 1) * 1000:
        return base**exponent
    keep, lead, shift = len(str(exponent)) + 10, 1, 0
    for bit in bin(exponent)[2:]:
        lead = lead * lead * (base if bit == "1" else 1)
        cut = max(len(str(lead)) - keep, 0)
        lead, shift = lead // 10**cut, 2 * shift + cut
    if len(str(lead)) + shift > limit:
        raise BoundSizeError(f"the bound {base}^{exponent} has {len(str(lead)) + shift} "
                             f"digits, more than the {limit} that can be printed")
    return base**exponent


# ---------------------------------------------------------------------------
# partitions of the vertex index set


@dataclass(frozen=True)
class PartitionRecord:
    """One partition check: sum side, product side, values, slack."""

    sum_side: tuple[int, ...]
    product_side: tuple[int, ...]
    sum: Fraction
    product: Fraction
    slack: Fraction


@dataclass(frozen=True)
class InequalityReport:
    records: tuple[PartitionRecord, ...]
    passed: bool
    min_slack: Fraction
    worst: PartitionRecord


def _integer_rows(rows: Sequence[Fraction | int]) -> Vector:
    """Positive rational rows cleared to integer rows n over their sum D: b_i = n_i / D."""
    scale = lcm(*(c.denominator for c in rows))
    return tuple(c.numerator * (scale // c.denominator) for c in rows)


def _subsets(count: int) -> list[tuple[int, ...]]:
    """The ascending index tuple of every bitmask below 2**count, at its mask."""
    table: list[tuple[int, ...]] = [()]
    for i in range(count):
        table += [side + (i,) for side in table]
    return table


def _partition(values: Sequence[int], mask: int,
               sides: list[tuple[int, ...]] | None = None) -> PartitionRecord:
    """The one evaluation of a partition: ``mask`` marks the sum side of rows n over D = sum n.

    Sum S and product P of the r product-side rows are integers, and each
    field is one fraction: S/D, P/D^r and the slack (S*D^(r-1) - P)/D^r.
    The sides are read from ``sides``, a table of :func:`_subsets`, if given.
    """
    left, right = (sides[mask], sides[(len(sides) - 1) ^ mask]) if sides else (
        tuple(i for i in range(len(values)) if mask >> i & 1),
        tuple(i for i in range(len(values)) if not mask >> i & 1))
    total, product = sum(values[i] for i in left), prod(values[j] for j in right)
    denominator = sum(values)
    power = denominator ** len(right)
    return PartitionRecord(left, right, Fraction(total, denominator), Fraction(product, power),
                           Fraction(total * (power // denominator) - product, power))


def _first_mask(values: Vector, bound: Fraction, strict: bool) -> int | None:
    """The first mask in bitmask order whose slack is below ``bound`` (or at it), or None.

    Bits go from the top down, 0 (product side) first, kept when some completion of the
    lower bits qualifies: for t lower rows on the product side, the t largest do best.
    """
    # (slack - bound) * D^r * q for bound = p / q is an integer, at most `most` to qualify
    denominator = sum(values)
    p, q, most = bound.numerator * denominator, bound.denominator, -1 if strict else 0

    def completes(bit: int, total: int, product: int, right: int) -> bool:
        free = sorted(values[:bit], reverse=True)  # the rows of the lower bits
        total += sum(free)
        for t in range(bit + 1):
            scale = denominator ** max(right + t - 1, 0)
            if 0 < right + t < len(values) and (total * scale - product) * q - p * scale <= most:
                return True
            if t < bit:
                total, product = total - free[t], product * free[t]
        return False

    if not completes(len(values), 0, 1, 0):
        return None
    mask, total, product, right = 0, 0, 1, 0
    for bit in reversed(range(len(values))):
        if completes(bit, total, product * values[bit], right + 1):
            product, right = product * values[bit], right + 1
        else:
            mask, total = mask | 1 << bit, total + values[bit]
    return mask


def check_all_partitions(coords: Sequence[Fraction | int]) -> InequalityReport:
    """Evaluate every proper two-sided partition, in sum-side bitmask order."""
    values = _integer_rows(check_barycentric(coords))
    return _inequalities(values, min(_reduced(values)), listed=True)


def _inequalities(values: Vector, least: Fraction, listed: bool = False) -> InequalityReport:
    """:func:`check_all_partitions` on rows n: ``worst`` found at ``least``, records if listed."""
    records = ()
    if listed:
        sides = _subsets(len(values))
        records = tuple(_partition(values, mask, sides) for mask in range(1, len(sides) - 1))
    worst = _partition(values, _first_mask(values, least, False))
    return InequalityReport(records, least >= 0, least, worst)


def _descending(values: Vector) -> tuple[Vector, tuple[int, ...]]:
    """Rows n sorted descending, and the original index of each; ties keep index order."""
    order = tuple(sorted(range(len(values)), key=values.__getitem__, reverse=True))
    return tuple(values[i] for i in order), order


def reduced_system(coords: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """Slacks of the surviving inequalities, on the coordinates sorted descending.

    On descending coordinates only the splits into a leading block and its
    tail matter; entry j is the slack of tail-sum minus leading-product for
    the block ending at j.  All entries nonnegative is equivalent to the
    full partition system passing.  ``coords`` may come in any order.
    """
    return _reduced(_integer_rows(check_barycentric(coords)))


def _reduced(values: Vector) -> tuple[Fraction, ...]:
    """:func:`reduced_system` on rows n in any order; it reads them sorted descending."""
    # entry j, the block 0..j of sum H_j and product P_j: ((D - H_j) D^j - P_j) / D^(j+1)
    ranked, denominator = sorted(values, reverse=True)[:-1], sum(values)
    heads, products = accumulate(ranked), accumulate(ranked, mul)
    return tuple(Fraction((denominator - head) * denominator**j - product, denominator ** (j + 1))
                 for j, (head, product) in enumerate(zip(heads, products)))


# ---------------------------------------------------------------------------
# lower bounds on sorted coordinates


@dataclass(frozen=True)
class LowerBoundEntry:
    position: int
    value: Fraction
    bound: Fraction
    tight: bool
    ok: bool


@dataclass(frozen=True)
class LowerBoundReport:
    entries: tuple[LowerBoundEntry, ...]
    recursion_slacks: tuple[Fraction, ...]
    order: tuple[int, ...]
    passed: bool


def coordinate_lower_bounds(coords: Sequence[Fraction | int]) -> LowerBoundReport:
    """Doubly exponential lower bounds on the sorted coordinates.

    ``coords`` are the barycentric coordinates of the interior point of a
    one-point simplex of dimension d = len(coords) - 1; the k-th largest
    is at least (d+1)^(-2^k).  Also checks the relaxed recursion
    (d+1) * coords[k+1] >= prod(coords[:k+1]) that drives the bound.
    """
    return _lower_bounds(_integer_rows(check_barycentric(coords)))


def _lower_checks(values: Vector) -> tuple:
    """:func:`_lower_bounds` on integers: sorted rows, order, powers, flags, tops, verdict."""
    # n_k (d+1)^(2^k) >= D for each k, and each recursion top (d+1) n_(k+1) D^k - n_0...n_k >= 0
    (rows, order), denominator, d = _descending(values), sum(values), len(values) - 1
    powers = [_power(d + 1, 2**k) for k in range(d + 1)]
    oks = [n * p >= denominator for n, p in zip(rows, powers)]
    tops = [(d + 1) * rows[k + 1] * denominator**k - product
            for k, product in enumerate(accumulate(rows[:-1], mul))]
    return rows, order, powers, oks, tops, all(oks) and all(top >= 0 for top in tops)


def _lower_bounds(values: Vector) -> LowerBoundReport:
    """:func:`coordinate_lower_bounds` on rows n, built from :func:`_lower_checks`' integers."""
    (rows, order, powers, oks, tops, passed), denominator = _lower_checks(values), sum(values)
    entries = [LowerBoundEntry(k, Fraction(n, denominator), Fraction(1, p), n * p == denominator,
                               ok) for k, (n, p, ok) in enumerate(zip(rows, powers, oks))]
    slacks = [Fraction(top, denominator ** (k + 1)) for k, top in enumerate(tops)]
    return LowerBoundReport(tuple(entries), tuple(slacks), order, passed)


# ---------------------------------------------------------------------------
# the chain of heaviest faces


@dataclass(frozen=True)
class ChainLevel:
    level: int
    omitted: tuple[int, ...]
    volume: Fraction
    volume_bound: Fraction
    count: int
    count_bound: int
    ok: bool


@dataclass(frozen=True)
class ChainReport:
    levels: tuple[ChainLevel, ...]
    order: tuple[int, ...]
    passed: bool


def chain_decompose(
    simplex: LatticeSimplex, point: Sequence[int], cap: int = DEFAULT_CAP
) -> ChainReport:
    """Bound the faces spanned by the vertices with the largest coordinates.

    ``point`` is the simplex's interior lattice point.  Level i keeps the
    i+1 heaviest vertices (by its barycentric coordinates, descending).
    On a one-point d-simplex its face's index N, i! times its volume, is
    at most P = (d+1)^(2^i - 1), which decides the level: N bounds the
    face's count by i + N (Blichfeldt; or Stanley's h*_0 = 1, sum h* = N),
    so it is at most i + P, and a level with N = 1 counts i + 1, unscanned.
    The top level's count is the closure count.
    """
    return _chain(simplex, _interior_values(simplex, int_matrix([point])[0]), cap)


def _chain_levels(simplex: LatticeSimplex, values: Vector, cap: int) -> tuple:
    """:func:`_chain` on integers: per level (omitted, N, P, count, N <= P), order, verdict."""
    order, d, levels = _descending(values)[1], simplex.dim, []
    for i in range(1, d + 1):
        kept, omitted = tuple(sorted(order[: i + 1])), tuple(sorted(order[i + 1 :]))
        power, index = _power(d + 1, 2**i - 1), _face_index(simplex, kept)
        count = _face_count(simplex, omitted, kept, index, cap)
        levels.append((omitted, index, power, count, index <= power))
    return levels, order, all(level[-1] for level in levels)


def _chain(simplex: LatticeSimplex, values: Vector, cap: int) -> ChainReport:
    """:func:`chain_decompose` on rows n; only each level's N/i! and P/i! are fractions."""
    levels, order, passed = _chain_levels(simplex, values, cap)
    return ChainReport(tuple(
        ChainLevel(i, omitted, Fraction(index, factorial(i)), Fraction(power, factorial(i)),
                   count, i + power, ok)
        for i, (omitted, index, power, count, ok) in enumerate(levels, 1)), order, passed)


# ---------------------------------------------------------------------------
# face volume bounds and the section law


@dataclass(frozen=True)
class FaceVolumeBound:
    omitted: tuple[int, ...]
    weight_set: tuple[int, ...]
    bound: Fraction
    face_volume: Fraction
    slack: Fraction
    passed: bool


@dataclass(frozen=True)
class SectionVolumeCheck:
    """A section's volume by the law, which holds by construction: ``predicted`` repeats it."""

    omitted: tuple[int, ...]
    section_volume: Fraction
    face_volume: Fraction
    predicted: Fraction
    passed: bool


@dataclass(frozen=True)
class BoundsReport:
    coordinate_bounds: LowerBoundReport
    face_volume_bounds: tuple[FaceVolumeBound, ...]
    parallelotope: ParallelotopeCheck
    sections: tuple[SectionVolumeCheck, ...]
    passed: bool


def bounds_report(
    simplex: LatticeSimplex, point: Sequence[int], cap: int = DEFAULT_CAP
) -> BoundsReport:
    """Every bound the single interior point forces, measuring every face in one walk.

    ``point`` is the simplex's interior lattice point, with coordinates c;
    all but the sorted coordinate bounds run on the integer row values
    n = D * c, D = |det|.  Face volumes: drop one vertex and split the rest
    into a weight set W and the omitted vertices; the face's normalized
    volume is at most 1 / (|W|! * prod(c over W)), one bound per W.  The
    (d+1) * 2^d records run over the dropped vertex, then over W as a
    bitmask of the rest.  The 2^(d+1) - 1 sections, in omitted-set bitmask
    order: the slice pinning the omitted coordinates at c is the parallel
    face scaled by K / D, K = D - sum of omitted n, so its volume is
    K^k * (face volume) / D^k for the face dimension k; none is built.
    Also the parallelotope around the point.  No listing cap is needed:
    the coordinate bound (d+1)^(2^d) passes the digits that can be printed
    from d = 12 on (from d = 10 under a 640-digit int-to-str limit), so the
    report raises :class:`BoundSizeError` (exit 3) before any face.
    """
    values = _interior_values(simplex, int_matrix([point])[0])
    denominator, n = sum(values), len(values)
    # first, as its bounds refuse when too large to print
    lower = _lower_bounds(values)
    sides, powers, full = _subsets(n), [denominator**k for k in range(n)], 2**n - 1
    # each face's index N and k! by omitted-set bitmask m, kept side full ^ m: sides reversed
    _walk(simplex)
    parts = [(_face_index(simplex, side), factorial(len(side) - 1)) for side in sides[:0:-1]]
    volumes = [Fraction(*part) for part in parts]
    # by mask, each from the mask without its top bit: |W|! * prod n_W and sum n_W
    bottoms, sums = [1], [0]
    for value in values:
        bottoms += [bottom * value * (len(side) + 1) for side, bottom in zip(sides, bottoms)]
        sums += [total + value for total in sums]
    # each weight set's bound D^|W| / (|W|! * prod n_W), in integers and as one fraction
    tops = [powers[len(side)] for side in sides[:full]]
    bounds = [Fraction(top, bottom) for top, bottom in zip(tops, bottoms)]
    faces = []
    for excluded in range(n):
        low, rest = (1 << excluded) - 1, full ^ 1 << excluded
        for mask in range(2 ** (n - 1)):
            weights = (mask & low) | (mask >> excluded << excluded + 1)
            omitted, bottom = rest ^ weights, bottoms[weights]
            numerator, below = parts[omitted]
            excess = tops[weights] * below - numerator * bottom
            faces.append(FaceVolumeBound(sides[omitted], sides[weights], bounds[weights],
                                         volumes[omitted], Fraction(excess, bottom * below),
                                         excess >= 0))
    sections = []
    for omitted, (numerator, below) in enumerate(parts):
        k, kept = n - 1 - len(sides[omitted]), denominator - sums[omitted]
        volume = Fraction(kept**k * numerator, powers[k] * below)
        sections.append(SectionVolumeCheck(sides[omitted], volume, volumes[omitted], volume, True))
    box = _parallelotope(simplex, point, values, cap)
    passed = lower.passed and box.passed and all(r.passed for r in (*faces, *sections))
    return BoundsReport(lower, tuple(faces), box, tuple(sections), passed)


# ---------------------------------------------------------------------------
# the symmetric parallelotope around the interior point


@dataclass(frozen=True)
class ParallelotopeCheck:
    center: Vector
    omitted_index: int
    volume: Fraction
    interior_count: int
    passed: bool


def _parallelotope(simplex: LatticeSimplex, point: Sequence[int], values: Vector,
                   cap: int) -> ParallelotopeCheck:
    """The box spanned by doubled coordinates around the interior point, rows n at the point.

    ``point`` is the simplex's interior lattice point.  In the frame where
    vertex 0 is the origin and the edges to the other vertices are the
    axes, the box is the product of [0, 2c_n] over the point's coordinates
    c_n.  It is centrally symmetric about the point, so with exactly one
    interior lattice point its normalized volume cannot exceed 2^d.  The
    lattice points strictly inside it are counted.
    """
    denominator, d = sum(values), simplex.dim
    axes = range(1, d + 1)
    # d! times the simplex's volume is |det| = D
    volume = Fraction(2**d * prod(values[n] for n in axes), denominator ** (d - 1))
    # a corner is base plus a subset of the edges scaled by 2 n / D, so D times a
    # coordinate is least on the subset of its negative terms and greatest on its positive
    base = simplex.vertices[0]
    steps = [[2 * values[n] * (x - b) for x, b in zip(simplex.vertices[n], base)] for n in axes]
    low = [denominator * b + sum(min(0, step[i]) for step in steps) for i, b in enumerate(base)]
    high = [denominator * b + sum(max(0, step[i]) for step in steps) for i, b in enumerate(base)]
    box = tuple((-(-lo // denominator), hi // denominator) for lo, hi in zip(low, high))
    # 0 < row(x) < 2 n_i in the integer functional forms, per kept axis
    count = _census(simplex, {n: (1, 2 * values[n] - 1) for n in axes}, box, cap, 0)[0]
    passed = count == 1 and volume <= 2**d
    return ParallelotopeCheck(tuple(point), 0, volume, count, passed)


# ---------------------------------------------------------------------------
# corpus extremes


@dataclass(frozen=True)
class DimensionExtremes:
    dim: int
    members: int
    max_volume: Fraction
    max_point_count: int
    min_coordinate: Fraction
    volume_bound: Fraction
    coordinate_bound: Fraction
    comparison_coordinate_bound: Fraction
    passed: bool


def corpus_extremes(
    members: Sequence[tuple[LatticeSimplex, Sequence[int]]],
    cap: int = DEFAULT_CAP,
) -> tuple[DimensionExtremes, ...]:
    """Extremal volume and coordinate statistics of verified one-point simplices.

    ``members`` are (simplex, point) pairs, point being the simplex's
    interior lattice point.  Groups them by dimension.  Reports the largest
    normalized volume and lattice point count, the smallest coordinate,
    and the doubly exponential bounds they must respect.  The much smaller
    comparison bound 14^(-2^(d+1)) known from dimension-uniform arguments
    is included for context only.
    """
    by_dim: dict[int, list[tuple[LatticeSimplex, Fraction]]] = {}
    for member, point in members:
        values = _interior_values(member, int_matrix([point])[0])
        by_dim.setdefault(member.dim, []).append((member, Fraction(min(values), sum(values))))
    summaries = []
    for d, group in sorted(by_dim.items()):
        power, scale = _power(d + 1, 2**d - 1), factorial(d)
        coordinate_bound = Fraction(1, _power(d + 1, 2**d))
        comparison = Fraction(1, _power(14, 2 ** (d + 1)))
        top = max(_face_index(member, tuple(range(d + 1))) for member, _ in group)  # largest N
        max_count = max(count_face_points(member, (), cap) for member, _ in group)
        min_coord = min(least for _, least in group)
        passed = top <= power and min_coord >= coordinate_bound
        summaries.append(DimensionExtremes(d, len(group), Fraction(top, scale), max_count,
                                           min_coord, Fraction(power, scale), coordinate_bound,
                                           comparison, passed))
    return tuple(summaries)
