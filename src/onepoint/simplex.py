"""Lattice simplices, barycentric coordinates, and exact volumes.

The central object is :class:`LatticeSimplex`: an ordered tuple of
affinely independent integer vertices.  A simplex may be full-dimensional
(d+1 vertices in Z^d) or embedded (fewer vertices, e.g. a face of a larger
simplex).  Full-dimensional simplices carry exact barycentric machinery:
the affine functionals that evaluate to 1 on one vertex and 0 on the
others.

Normalized volume is measured against the lattice induced on the simplex's
own affine hull, so segments, faces, and full bodies all get exact rational
volumes that are invariant under unimodular affine maps.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd
from operator import mul
from typing import Iterable, Sequence

from .exact import SingularMatrixError, _column_step, adjugate_above, eliminate_below, int_matrix

Vector = tuple[int, ...]
RatVector = tuple[Fraction, ...]

# str() refuses an int past 4,300 digits by default: no point coordinate or bound may have more
MAX_DIGITS = 4300


def _digit_limit() -> int:
    """The most digits a number may have: MAX_DIGITS, or the interpreter's own lower limit."""
    return min(MAX_DIGITS, sys.get_int_max_str_digits() or MAX_DIGITS)  # 0: no limit


class SimplexParseError(ValueError):
    """A simplex text document failed to parse or validate."""


def _set_shape(simplex: LatticeSimplex, vertices: tuple[Vector, ...]) -> LatticeSimplex:
    """Check integer vertices span a simplex; give ``simplex`` them and its face table."""
    if not vertices:
        raise ValueError("a simplex needs at least one vertex")
    ambient = len(vertices[0])
    if ambient < 1:
        raise ValueError("ambient dimension must be at least 1")
    if len(vertices) > ambient + 1:
        raise ValueError("too many vertices for the ambient dimension")
    if len(set(vertices)) != len(vertices):
        raise ValueError("vertices are not distinct")
    object.__setattr__(simplex, "vertices", vertices)
    # face indexes by ascending kept vertex indexes: a full-dimensional simplex's |det|, kept with
    # its edge matrix's elimination for the rows, else every leading run from the walk along it
    keys = tuple(range(len(vertices)))
    try:
        if len(vertices) <= ambient:
            object.__setattr__(simplex, "_faces", {})
            _walk(simplex, keys)
            return simplex
        det, pending = eliminate_below([[v[c] - b for v in vertices[1:]]
                                        for c, b in enumerate(vertices[0])])
    except SingularMatrixError:
        raise ValueError("vertices are affinely dependent") from None
    object.__setattr__(simplex, "_faces", {keys: det})
    object.__setattr__(simplex, "_elimination", (det, pending))
    return simplex


def _face_volume(simplex: LatticeSimplex, kept: tuple[int, ...]) -> Fraction:
    """The face table's door for one face: the volume on ascending vertex indexes ``kept``."""
    if kept not in simplex._faces:  # walked the first time it is asked for
        _walk(simplex, kept)
    return Fraction(simplex._faces[kept], factorial(len(kept) - 1))


def _walk(simplex: LatticeSimplex, kept: Sequence[int] | None = None) -> None:
    """Face indexes into the face table, one gcd column step of its parent face's rows per face.

    A k-face's index, k! times its volume, is |product of its pivots|: the gcd of the k x k
    minors of its edges from its first vertex.  With no ``kept`` every face, depth first;
    with ascending ``kept`` its leading runs kept[:1], kept[:2], ... up to ``kept`` itself.
    """
    faces, whole = simplex._faces, kept is None
    keys = range(len(simplex.vertices)) if whole else kept
    points, n = [simplex.vertices[j] for j in keys], len(keys)
    # root b's rows: one column per later point q, the edge from b, at column q - b - 1
    stack = [((keys[b],), [[v[c] - x for v in points[b + 1 :]] for c, x in enumerate(points[b])],
              1, b, b) for b in range(n if whole else 1)]
    while stack:
        face, rows, index, b, p = stack.pop()
        faces[face] = index
        for q in range(p + 1, n):
            col, r = q - b - 1, len(face) - 1
            if q == n - 1:  # no child, so no row operation: the pivot is its column's gcd
                pivot, stepped = gcd(*[row[col] for row in rows[r:]]), rows
            else:  # rows are replaced, never changed: a copy of the outer list keeps the parent's
                stepped = rows[:] if whole else rows
                pivot = abs(_column_step(stepped, r, col))
            if not pivot:
                raise SingularMatrixError("the face's edges are dependent")
            stack.append((face + (keys[q],), stepped, index * pivot, b, q))
            if not whole:  # a kept face's one child is its next vertex, so it takes the rows
                break


@dataclass(frozen=True)
class LatticeSimplex:
    """An ordered simplex with integer vertices, possibly embedded in Z^d."""

    vertices: tuple[Vector, ...]

    def __init__(self, vertices: Iterable[Sequence[int]]):
        _set_shape(self, int_matrix(vertices))

    @property
    def dim(self) -> int:
        """Intrinsic dimension: one less than the vertex count."""
        return len(self.vertices) - 1

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def is_full_dimensional(self) -> bool:
        return self.dim == self.ambient_dim

    @cached_property
    def functional_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Integer forms of the barycentric functionals.

        Row i is (coeffs, const) with coeffs . x + const == bary_i(x) * D for
        D = |det E|, E the edge matrix whose columns are v_j - v_0.  With A =
        D times E^-1, the row of v_j (j >= 1) is row j - 1 of A with constant
        -A v_0, and the row of v_0 is minus the column sums of A with the
        constant that makes the constants sum to D.  Sign tests on lattice
        points never touch Fractions.  A is the above half of the elimination
        whose below half the constructor ran and kept: it runs on first use,
        so a census refused on its box never runs it.
        """
        self._require_full()
        base = self.vertices[0]
        det, pending = self._elimination
        scaled = adjugate_above(pending)
        rows = [(tuple(row), -sum(map(mul, row, base))) for row in scaled]
        head = tuple(-sum(column) for column in zip(*scaled))
        return ((head, det - sum(const for _, const in rows)), *rows)

    def _require_full(self) -> None:
        if not self.is_full_dimensional:
            raise ValueError(
                f"operation needs a full-dimensional simplex, got a "
                f"{self.dim}-simplex in Z^{self.ambient_dim}"
            )


def _exact(values: Iterable) -> tuple:
    """The values frozen, refused unless each is an int or a Fraction."""
    frozen = tuple(values)
    for x in frozen:
        # a float or a string would be read inexactly; bool is an int subclass
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise ValueError(f"expected an int or a Fraction, got {x!r}")
    return frozen


def _row_values(simplex: LatticeSimplex, point: Sequence[Fraction | int]) -> tuple:
    """The functional rows at a point: |det| times its barycentric coordinates."""
    simplex._require_full()
    if len(point) != simplex.ambient_dim:
        raise ValueError("point dimension does not match the simplex")
    point = _exact(point)
    return tuple(
        sum(c * x for c, x in zip(coeffs, point)) + const
        for coeffs, const in simplex.functional_rows
    )


def _interior_values(simplex: LatticeSimplex, point: Sequence[int], refusal: str = "") -> Vector:
    """The rows at a point strictly inside: n_i = D * b_i > 0, summing to D = |det|.

    The one test of "strictly inside" around the interior point; ``refusal`` words its error.
    """
    values = _row_values(simplex, point)
    if any(value <= 0 for value in values):
        raise ValueError(refusal or "the point must lie strictly inside the simplex")
    return values


def barycentric_of(simplex: LatticeSimplex, point: Sequence[Fraction | int]) -> RatVector:
    """Exact barycentric coordinates of a rational point.

    The returned tuple pairs with the simplex's vertex order and sums to
    exactly 1.  Requires a full-dimensional simplex.
    """
    values = _row_values(simplex, point)
    absdet = sum(const for _, const in simplex.functional_rows)
    coords = tuple(Fraction(value, absdet) for value in values)
    if sum(coords) != 1:
        raise AssertionError("barycentric coordinates do not sum to 1")
    return coords


def check_barycentric(coords: Sequence[Fraction | int]) -> RatVector:
    """Validate a positive barycentric vector (ints and Fractions, sum 1, dimension >= 1)."""
    frozen = tuple(Fraction(x) for x in _exact(coords))
    if len(frozen) < 2:
        raise ValueError("need at least two barycentric coordinates")
    if sum(frozen) != 1:
        raise ValueError("barycentric coordinates must sum to exactly 1")
    if any(x <= 0 for x in frozen):
        raise ValueError("barycentric coordinates must all be positive")
    return frozen


def _complement(count: int, omitted: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    given = tuple(omitted)
    if any(isinstance(i, bool) or not isinstance(i, int) for i in given):
        raise ValueError(f"vertex indexes must be ints, got {given}")
    dropped = set(given)
    if any(i < 0 or i >= count for i in dropped):
        raise ValueError(f"vertex indexes must lie in [0, {count})")
    kept = tuple(i for i in range(count) if i not in dropped)
    if not kept:
        raise ValueError("at least one vertex must remain")
    return tuple(sorted(dropped)), kept


def normalized_volume(simplex: LatticeSimplex) -> Fraction:
    """Volume against the lattice induced on the simplex's affine hull.

    For a k-simplex this is the product of the gcd pivots of its face
    walk's column steps divided by k!: |det| / d! for a full-dimensional
    one.  A single vertex has volume 1 by convention.  The constructor
    puts it in the simplex's face table while checking affine
    independence, so this reads the table.
    """
    return _face_volume(simplex, tuple(range(len(simplex.vertices))))


class _Inexact:
    """Marker for any non-integer numeric literal met while parsing."""

    def __init__(self, literal: str):
        self.literal = literal


# json.loads with a keyword builds a decoder per call; this one is built once
_DECODER = json.JSONDecoder(parse_float=_Inexact)


def parse_simplex_text(text: str) -> LatticeSimplex:
    """Parse the simplex exchange format.

    The document is a JSON object with fields ``dim`` (an integer) and
    ``vertices`` (a list of dim+1 integer vectors of length dim, order
    preserved).  Any fractional coordinate is a parse error.  One
    module-level decoder reads every document, refusing a byte-order mark
    as ``json.loads`` does.
    """
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as err:
        raise SimplexParseError(
            f"invalid document at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except (RecursionError, ValueError) as err:
        # nesting past the recursion limit, or an integer past int()'s digit limit
        problem = "nested too deeply" if isinstance(err, RecursionError) else "too many digits"
        raise SimplexParseError(f"invalid document: {problem}") from err
    if not isinstance(doc, dict):
        raise SimplexParseError("top level must be an object with dim and vertices")
    for field in ("dim", "vertices"):
        if field not in doc:
            raise SimplexParseError(f"missing field {field!r}")
    unknown = sorted(set(doc) - {"dim", "vertices"})
    if unknown:
        raise SimplexParseError(f"unknown field {unknown[0]!r}")
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise SimplexParseError("field 'dim': expected an integer")
    if dim < 1:
        raise SimplexParseError("field 'dim': must be at least 1")
    vertices = doc["vertices"]
    if not isinstance(vertices, list):
        raise SimplexParseError("field 'vertices': expected a list")
    if len(vertices) != dim + 1:
        raise SimplexParseError(
            f"field 'vertices': expected {dim + 1} vertices, got {len(vertices)}"
        )
    for i, vertex in enumerate(vertices):
        if not isinstance(vertex, list) or len(vertex) != dim:
            raise SimplexParseError(
                f"field 'vertices[{i}]': expected a vector of length {dim}"
            )
        for j, x in enumerate(vertex):
            if isinstance(x, _Inexact):
                raise SimplexParseError(
                    f"field 'vertices[{i}][{j}]': fractional coordinate {x.literal}"
                )
            if isinstance(x, bool) or not isinstance(x, int):
                raise SimplexParseError(
                    f"field 'vertices[{i}][{j}]': expected an integer, got {x!r}"
                )
    return _set_shape(object.__new__(LatticeSimplex), tuple(map(tuple, vertices)))  # checked above


def simplex_to_text(simplex: LatticeSimplex) -> str:
    """Serialize to the exchange format (see :func:`parse_simplex_text`)."""
    simplex._require_full()
    doc = {"dim": simplex.dim, "vertices": [list(v) for v in simplex.vertices]}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
