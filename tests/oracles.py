"""Second computations kept as independent references for the tests.

The package runs every elimination on integers: the fraction-free
adjugate, and the Hermite normal form for rank and lattice volume.  The
routes here are the second computation the tests compare against.
Bareiss determinants and Smith normal form divisors give affine
independence and normalized volume by another elimination, also for
rational vertices scaled by the lcm of their denominators, which is how
sections through an interior point are measured here.  A section is
also built from its own vertices, as the integer simplex D times as
large, and the per-record loop over faces built one by one is the
reference for the bitmask tables of ``bounds_report``.  Textbook
routes over ``Fraction`` give brute-force Minkowski boxes, the partition
matrix whose determinant is the package's closed-form sum/product ratio,
the barycentric functionals as a scaled inverse, and affine independence
as a rank.  Chained ``Fraction`` sums and products evaluate a partition
for the package's integer-row evaluator, and the coordinate lower bounds
for its integer comparisons; a walk over every mask is the reference
for its bit-by-bit search of the first qualifying partition.  The
generic short-vector search over a whole Minkowski box is the reference
for the package's one-integer scan on partition matrices.  A walk over
every prefix of the box is the reference for the package's depth-first
census kernel, and the planar sweep over every orbit representative,
unpruned, is the reference for the atlas sweep's pruning.
``json.dumps`` with :func:`json_hook` is the reference for the
structured output writer.  Translations and integer linear images build
the moved inputs of the invariance checks and the sheared censuses.

Claims of the paper that no command needs are stated here, on the
package's public routes: the Sylvester identities behind the
Zaks-Perles-Wills simplices (:func:`sylvester`), the matching lower
bounds along their chain of faces (:func:`zpw_lower_chain`), the lattice
point count bound on a face (:func:`blichfeldt_check`, on faces built by
:func:`face_of`), and the planar normal form under unimodular affine
maps (:func:`normal_form_2d`, on the atlas's own canonical form).  The
package computes only the form; the unimodular map that reaches it, by
extended-gcd row pairs (:func:`hermite_with_transform`), and the checks
that the map is unimodular and reproduces the form, live here.
"""

import dataclasses
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod

from onepoint.bounds import FaceVolumeBound, LowerBoundEntry, LowerBoundReport
from onepoint.bounds import PartitionRecord, SectionVolumeCheck
from onepoint.exact import SingularMatrixError, adjugate_int, int_matrix, transpose
from onepoint.generators import _canonical_form, zpw_simplex
from onepoint.points import DEFAULT_CAP, count_face_points, enumerate_interior
from onepoint.simplex import (
    LatticeSimplex,
    _complement,
    _interior_values,
    _set_shape,
    check_barycentric,
    normalized_volume,
)


def det_int(matrix):
    """Determinant of a square integer matrix by Bareiss elimination.

    Fraction-free: every intermediate value is an integer, and the single
    division per step is exact.  Row swaps provide pivoting, flipping the
    sign.  An empty matrix has determinant 1.
    """
    m = int_matrix(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact by the Bareiss divisibility theorem
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def snf_divisors(matrix):
    """Smith normal form divisors of an integer matrix.

    Returns the positive diagonal entries (d_1, ..., d_r) of the Smith
    normal form, each dividing the next, with r the rank.  Computed by
    repeated gcd row/column reduction: shrink a minimal pivot until it
    clears its row and column, fix up divisibility of the remaining block,
    recurse on the block.
    """
    m = int_matrix(matrix)
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    divisors = []
    t = 0
    while t < min(nrows, ncols):
        # locate a minimal-magnitude nonzero entry to pivot on
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        reduced = True
        for i in range(t + 1, nrows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t] != 0:
                    reduced = False
        for j in range(t + 1, ncols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                for row in a:
                    row[j] -= q * row[t]
                if a[t][j] != 0:
                    reduced = False
        if not reduced:
            continue
        offender = next(
            (i for i in range(t + 1, nrows)
             if any(a[i][j] % a[t][t] for j in range(t + 1, ncols))),
            None,
        )
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        divisors.append(abs(a[t][t]))
        t += 1
    return tuple(divisors)


def _xgcd(a, b):
    # (g, s, t) with s * a + t * b = g = gcd(a, b) >= 0
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, s0, s1, t0, t1 = b, a - q * b, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def hermite_with_transform(matrix):
    """Row-style Hermite normal form with its map: (h, u) with h = u @ matrix, u unimodular.

    Another algorithm than the package's smallest-entry floor division:
    each column is cleared below its pivot by extended-gcd row pairs, the
    pair (r, i) replaced by (s r + t i, -(y/g) r + (x/g) i) with
    s x + t y = g, a move of determinant 1.  Then the pivot is made
    positive and the entries above it reduced into [0, pivot).
    """
    a = [list(row) for row in int_matrix(matrix)]
    nrows, ncols = len(a), len(a[0]) if a else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        for i in range(r + 1, nrows):
            x, y = a[r][col], a[i][col]
            if y:
                g, s, t = _xgcd(x, y)
                for m in (a, u):
                    m[r], m[i] = ([s * v + t * w for v, w in zip(m[r], m[i])],
                                  [(x // g) * w - (y // g) * v for v, w in zip(m[r], m[i])])
        if not a[r][col]:
            continue
        if a[r][col] < 0:
            a[r], u[r] = [-v for v in a[r]], [-v for v in u[r]]
        for i in range(r):
            q = a[i][col] // a[r][col]
            for m in (a, u):
                m[i] = [v - q * w for v, w in zip(m[i], m[r])]
        r += 1
    return tuple(map(tuple, a)), tuple(map(tuple, u))


def col_hermite_with_transform(matrix):
    """Column-style Hermite normal form with its map: (h, v) with h = matrix @ v, v unimodular."""
    h, u = hermite_with_transform(transpose(matrix))
    return transpose(h), transpose(u)


def rational_volume(vertices):
    """Normalized volume of rational vertices by Smith normal form divisors.

    The edges are scaled to integers by the lcm of their denominators and
    the scale divided back out.  Raises ValueError when the vertices are
    affinely dependent.
    """
    k = len(vertices) - 1
    edges = [[Fraction(x) - b for x, b in zip(v, vertices[0])] for v in vertices[1:]]
    scale = lcm(*(x.denominator for row in edges for x in row))
    divisors = snf_divisors([[int(x * scale) for x in row] for row in edges])
    if len(divisors) != k:
        raise ValueError("vertices are affinely dependent")
    return Fraction(prod(divisors), factorial(k)) / scale**k


def rational_section_volume(simplex, coords, omitted):
    """Volume of the section through the point with barycentric ``coords``.

    The section pins the omitted coordinates; its vertices are built in
    Fractions, one affine step from each kept vertex p_j:
    sum(coords[i] * p_i for omitted i) + (sum of kept coords) * p_j.
    """
    dropped = set(omitted)
    kept = [j for j in range(len(coords)) if j not in dropped]
    kept_weight = sum(Fraction(coords[j]) for j in kept)
    offset = [
        sum(Fraction(coords[i]) * simplex.vertices[i][c] for i in dropped)
        for c in range(simplex.ambient_dim)
    ]
    vertices = [
        tuple(off + kept_weight * x for off, x in zip(offset, simplex.vertices[j]))
        for j in kept
    ]
    return rational_volume(vertices)


def section_simplex(simplex, point, omitted):
    """Slice through an interior lattice point, parallel to the kept face.

    The section pins the omitted barycentric functionals at their values
    on ``point``.  With n_i the integer functional rows at the point and
    D = sum(n_i) = |det|, the section's vertex for a kept vertex p_j is
    one affine step from it, and D times that vertex is an integer:

        sum(n_i * p_i for omitted i) + (D - sum of omitted n_i) * p_j

    Returns the integer simplex on those scaled vertices, together with
    D; the section's normalized volume is that simplex's divided by D^k
    for its dimension k.  This is the second route for the volume law
    that ``bounds_report`` reports.
    """
    values = _interior_values(simplex, point)
    dropped, kept = _complement(len(simplex.vertices), omitted)
    offset = [sum(values[i] * simplex.vertices[i][c] for i in dropped)
              for c in range(simplex.ambient_dim)]
    kept_weight = sum(values[j] for j in kept)
    vertices = [
        tuple(off + kept_weight * x for off, x in zip(offset, simplex.vertices[j]))
        for j in kept
    ]
    return LatticeSimplex(vertices), sum(values)


def translate(simplex, shift):
    """The simplex moved by an integer vector."""
    if len(shift) != simplex.ambient_dim:
        raise ValueError("shift dimension does not match")
    return LatticeSimplex(
        tuple(tuple(x + s for x, s in zip(v, shift)) for v in simplex.vertices)
    )


def linear_image(simplex, matrix):
    """Apply an integer linear map (rows act on column vectors)."""
    m = int_matrix(matrix)
    return LatticeSimplex(
        tuple(tuple(sum(c * x for c, x in zip(row, v)) for row in m) for v in simplex.vertices)
    )


def face_of(simplex, omitted):
    """The face spanned by all vertices except the omitted ones, integers not checked again."""
    _, kept = _complement(len(simplex.vertices), omitted)
    return _set_shape(object.__new__(LatticeSimplex), tuple(simplex.vertices[j] for j in kept))


def face_bound_records(simplex, point):
    """``bounds_report``'s face table, face volume records and sections, face by face.

    Each proper face is built through ``face_of`` and measured on its own,
    keyed by its omitted index tuple in omitted-set bitmask order; each
    record scans the index tuples of its weight set and omitted set and
    builds its bound from them.  Returns (face volumes, records, sections).
    """
    values = _interior_values(simplex, point)
    denominator, n = sum(values), len(values)
    subsets = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(2**n - 1)]
    face_volumes = {omitted: normalized_volume(face_of(simplex, omitted)) for omitted in subsets}
    faces = []
    for excluded in range(n):
        rest = [i for i in range(n) if i != excluded]
        for mask in range(2 ** (n - 1)):
            weights = tuple(rest[k] for k in range(n - 1) if mask >> k & 1)
            omitted = tuple(i for i in rest if i not in weights)
            top = denominator ** len(weights)
            bottom = factorial(len(weights)) * prod(values[i] for i in weights)
            volume = face_volumes[omitted]
            excess = top * volume.denominator - volume.numerator * bottom
            faces.append(FaceVolumeBound(omitted, weights, Fraction(top, bottom), volume,
                                         Fraction(excess, bottom * volume.denominator),
                                         excess >= 0))
    sections = []
    for omitted, face in face_volumes.items():
        k, kept = n - 1 - len(omitted), denominator - sum(values[i] for i in omitted)
        volume = Fraction(kept**k * face.numerator, denominator**k * face.denominator)
        sections.append(SectionVolumeCheck(omitted, volume, face, volume, True))
    return list(face_volumes.values()), faces, sections


def rat_matrix(rows):
    """Validate and freeze a rectangular rational matrix."""
    frozen = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if frozen and any(len(row) != len(frozen[0]) for row in frozen):
        raise ValueError("matrix rows have unequal lengths")
    return frozen


def partition_matrix(coords, sum_side):
    """The system matrix attached to a partition.

    For a product side of size t this is (t+1) x (t+1): reciprocal
    coordinates on the diagonal, -1 down the last column and across the
    last row, and 1 in the corner.  Its determinant equals the sum/product
    ratio of the partition, which is the bridge between the inequality and
    the constructive second-point certificate.
    """
    bary = check_barycentric(coords)
    left = set(sum_side)
    right = [j for j in range(len(bary)) if j not in left]
    if not left or not right:
        raise ValueError("both partition sides must be nonempty")
    t = len(right)
    rows = []
    for k, j in enumerate(right):
        row = [Fraction(0)] * (t + 1)
        row[k] = 1 / bary[j]
        row[t] = Fraction(-1)
        rows.append(row)
    rows.append([Fraction(-1)] * t + [Fraction(1)])
    return rat_matrix(rows)


def fraction_partition(coords, mask):
    """A partition's record by chained ``Fraction`` sums and products of the coordinates.

    ``mask`` marks the sum side of a checked vector; the package evaluates
    the same record on integer rows over one denominator.
    """
    left = tuple(i for i in range(len(coords)) if mask >> i & 1)
    right = tuple(i for i in range(len(coords)) if not mask >> i & 1)
    total = sum(coords[i] for i in left)
    product = prod((coords[j] for j in right), start=Fraction(1))
    return PartitionRecord(left, right, total, product, total - product)


def fraction_lower_bounds(coords):
    """The coordinate lower bounds by ``Fraction`` sorting, comparisons and products.

    The k-th largest coordinate against (d+1)^(-2^k), and the recursion
    slacks (d+1) c_(k+1) - prod(c_0..c_k), on a checked vector; the package
    compares integer rows over one denominator instead.
    """
    d = len(coords) - 1
    order = tuple(sorted(range(d + 1), key=lambda i: (-coords[i], i)))
    ranked = tuple(coords[i] for i in order)
    bounds = [Fraction(1, (d + 1) ** (2**k)) for k in range(d + 1)]
    entries = tuple(LowerBoundEntry(k, c, b, c == b, c >= b)
                    for k, c, b in zip(range(d + 1), ranked, bounds))
    slacks = tuple((d + 1) * ranked[k + 1] - prod(ranked[: k + 1]) for k in range(d))
    passed = all(e.ok for e in entries) and all(s >= 0 for s in slacks)
    return LowerBoundReport(entries, slacks, order, passed)


def first_partition_walk(coords, bound, strict):
    """The first sum-side bitmask whose slack is below ``bound`` (or at it, unless strict).

    Walks every proper partition in bitmask order; None when none qualifies.
    This is the reference for the package's bit-by-bit search.
    """
    for mask in range(1, 2 ** len(coords) - 1):
        slack = fraction_partition(coords, mask).slack
        if slack < bound or (slack == bound and not strict):
            return mask
    return None


def identity_rat(n):
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    cols = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def det_rat(matrix):
    """Determinant of a square rational matrix: clear each row, then Bareiss."""
    m = rat_matrix(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    scale = Fraction(1)
    int_rows = []
    for row in m:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        scale *= mult
        int_rows.append([int(x * mult) for x in row])
    return Fraction(det_int(int_rows), 1) / scale


def invert_rat(matrix):
    """Exact inverse of a square rational matrix by Gauss-Jordan elimination."""
    m = rat_matrix(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inversion needs a square matrix")
    aug = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def rank_rat(matrix):
    """Rank of a rational matrix by Gaussian elimination."""
    rows = [list(row) for row in rat_matrix(matrix)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def minkowski_solve(matrix):
    """A nonzero integer vector x with ||A x||_inf < 1, for |det A| < 1.

    Minkowski's theorem guarantees one exists: the preimage of the open
    unit cube is a symmetric convex body of volume 2^n / |det A| > 2^n.
    The search space is the box spanned by the absolute row sums of the
    inverse, which contains every solution; the determinant and the
    inverse both come from one fraction-free adjugate of the integer rows.
    Among all solutions, signs are normalized to a positive leading nonzero
    entry and the vector minimizing (reversed absolute entries, entries) is
    returned, so the result is deterministic and the trailing entries are
    as small as the solution set allows.
    """
    a = rat_matrix(matrix)
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise ValueError("matrix must be square and nonempty")
    # clear denominators once: A = diag(scales)^-1 B with B an integer
    # matrix, so every row test below is pure integer work
    scales = [lcm(*(entry.denominator for entry in row)) for row in a]
    rows = [
        [entry.numerator * (scale // entry.denominator) for entry in row]
        for row, scale in zip(a, scales)
    ]
    det, adjugate = adjugate_int(rows)  # raises on a singular matrix
    denominator = prod(scales)  # det A = det B / denominator
    if abs(det) >= denominator:
        raise ValueError(f"|det| = {Fraction(abs(det), denominator)} is not below 1")
    # A^-1 = adj(B) diag(scales) / det B; box_i = ceil(row sum of |A^-1|) - 1
    box = [
        -(-sum(abs(x) * scale for x, scale in zip(adj, scales)) // abs(det)) - 1
        for adj in adjugate
    ]
    # depth-first over the box, last coordinate outermost; when picking
    # coordinate k, each row confines it to an interval once the free
    # coordinates below k are granted their maximal swing reach[i][k]
    reach = [
        [sum(abs(c) * b for c, b in zip(coeffs[:k], box)) for k in range(n + 1)]
        for coeffs in rows
    ]
    solutions = []
    stack = [(n, [0] * n)]
    while stack:
        k, values = stack.pop()
        if k == 0:
            if any(values):
                solutions.append(tuple(values))
            continue
        k -= 1
        lo, hi = -box[k], box[k]
        for coeffs, scale, spans in zip(rows, scales, reach):
            partial = sum(c * x for c, x in zip(coeffs[k + 1 :], values[k + 1 :]))
            margin = scale + spans[k] - 1  # |partial + c * v| <= margin
            c = coeffs[k]
            if c > 0:
                lo = max(lo, -((margin + partial) // c))
                hi = min(hi, (margin - partial) // c)
            elif c < 0:
                lo = max(lo, -((margin - partial) // -c))
                hi = min(hi, (margin + partial) // -c)
            elif abs(partial) > margin:
                lo = hi + 1
            if lo > hi:
                break
        for value in range(lo, hi + 1):
            values[k] = value
            stack.append((k, values.copy()))
        values[k] = 0
    if not solutions:
        raise AssertionError("no short integer vector found; the search box is wrong")

    def normalize(x):
        lead = next(v for v in x if v)
        return x if lead > 0 else tuple(-v for v in x)

    normalized = {normalize(x) for x in solutions}
    return min(normalized, key=lambda x: (tuple(abs(v) for v in reversed(x)), x))


def _ceil_div(a, b):
    return -((-a) // b)


def box_walk(halfspaces, box, collect):
    """Count or collect the lattice points of ``box`` in every half-space.

    Each half-space is an integer pair (coeffs, const) meaning
    coeffs . x + const >= 0.  Every prefix of the box off its longest axis
    is walked, and each half-space is summed from scratch on every one;
    the longest axis is solved as an integer interval.  Collected points
    come back sorted.
    """
    d = len(box)
    scan_axis = max(range(d), key=lambda a: box[a][1] - box[a][0])
    prefix_axes = [a for a in range(d) if a != scan_axis]
    # (scan coefficient, prefix coefficients, constant) per half-space
    prepared = [
        (coeffs[scan_axis], [coeffs[a] for a in prefix_axes], const)
        for coeffs, const in halfspaces
    ]
    scan_lo, scan_hi = box[scan_axis]
    found = []
    count = 0
    ranges = [range(box[a][0], box[a][1] + 1) for a in prefix_axes]
    for prefix in itertools.product(*ranges):
        lo, hi = scan_lo, scan_hi
        alive = True
        for c, pcoeffs, const in prepared:
            base = const + sum(p * x for p, x in zip(pcoeffs, prefix))
            if c > 0:
                lo = max(lo, _ceil_div(-base, c))
            elif c < 0:
                hi = min(hi, (-base) // c)
            elif base < 0:
                alive = False
                break
            if lo > hi:
                alive = False
                break
        if not alive:
            continue
        if collect:
            head, tail = prefix[:scan_axis], prefix[scan_axis:]
            found.extend(head + (t,) + tail for t in range(lo, hi + 1))
        else:
            count += hi - lo + 1
    if collect:
        found.sort()
        return found
    return count


def atlas_sweep():
    """The unpruned planar sweep's one-point triangles, before canonicalization.

    Every orbit representative of the first two vertices under SL2(Z),
    v0 = (g, 0) with g | d2 for every d2 and v1 = (a, d2 / g) for every
    0 <= a < d2 / g, meets every split (u, t) = (d0, d1) of what is left
    of the doubled-area budget 27, with d0 v0 + d1 v1 + d2 v2 = 0.  A
    triangle survives when its doubled area equals its boundary count,
    which by Pick's theorem means exactly one interior lattice point.  The
    survivors come back as counterclockwise vertex triples.
    """
    survivors = []
    for d2 in range(1, 26):
        budget = 27 - d2
        for g in (k for k in range(1, d2 + 1) if d2 % k == 0):
            b = d2 // g
            for a in range(b):
                edge01 = gcd(a - g, b)
                for u in range(1, budget):
                    # d2 v2 = -(u v0 + t v1) has y = -t b, so g | t
                    for t in range(g, budget - u + 1, g):
                        nx = -(u * g + t * a)
                        if nx % d2:
                            continue
                        cx, cy = nx // d2, -(t // g)
                        if u + t + d2 != edge01 + gcd(cx - a, cy - b) + gcd(g - cx, cy):
                            continue
                        survivors.append(((g, 0), (a, b), (cx, cy)))
    return survivors


@dataclass(frozen=True)
class SylvesterSequence:
    """Leading terms, 1-indexed in the classical numbering: terms[k] = t_{k+1}."""

    terms: tuple


def sylvester(count):
    """First ``count`` terms of t_1 = 2, t_{k+1} = t_k^2 - t_k + 1.

    Construction re-checks the identities the extremal family leans on:
    each term is one more than the product of all earlier terms, the terms
    are sandwiched as 2^(2^(k-2)) <= t_k <= 2^(2^(k-1)) (lower bound tested
    squared to stay in integers), and the reciprocals complete to a unit
    fraction via 1/(t_{count+1} - 1).
    """
    if count < 1:
        raise ValueError("at least one term is required")
    terms = [2]
    while len(terms) <= count:
        terms.append(terms[-1] * (terms[-1] - 1) + 1)
    product = 1
    for k, term in enumerate(terms, start=1):
        if term != product + 1:
            raise AssertionError(f"term {k} breaks the product identity")
        product *= term
        if term > 2 ** (2 ** (k - 1)) or term**2 < 2 ** (2 ** (k - 1)):
            raise AssertionError(f"term {k} escapes its doubly exponential bracket")
    if sum(Fraction(1, t) for t in terms[:count]) + Fraction(1, terms[count] - 1) != 1:
        raise AssertionError("reciprocals do not complete to a unit fraction")
    return SylvesterSequence(tuple(terms[:count]))


@dataclass(frozen=True)
class LowerChainLevel:
    level: int
    volume: Fraction
    volume_identity_ok: bool
    volume_bound: Fraction
    count: int
    count_ok: bool
    ok: bool


@dataclass(frozen=True)
class LowerChainReport:
    dim: int
    levels: tuple
    passed: bool


def zpw_lower_chain(dim, cap=DEFAULT_CAP):
    """Matching lower bounds along the Zaks-Perles-Wills chain.

    Level i of the chain keeps the origin and the first i axis vertices.
    Its normalized volume is exactly (t_{i+1} - 1)/i! in terms of the
    Sylvester sequence, hence at least (2^(2^(i-1)) - 1)/i!, and its
    lattice point count squared is at least 2^(2^(i-1)).
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    simplex = zpw_simplex(dim, cap)  # refuses above the cap before the terms grow huge
    terms = sylvester(dim + 1).terms
    levels = []
    for i in range(1, dim + 1):
        omitted = tuple(range(i + 1, dim + 1))
        volume = normalized_volume(face_of(simplex, omitted))
        identity_ok = volume == Fraction(terms[i] - 1, factorial(i))
        volume_bound = Fraction(2 ** (2 ** (i - 1)) - 1, factorial(i))
        count = count_face_points(simplex, omitted, cap)
        count_ok = count >= terms[i - 1] and count**2 >= 2 ** (2 ** (i - 1))
        ok = identity_ok and volume >= volume_bound and count_ok
        levels.append(
            LowerChainLevel(i, volume, identity_ok, volume_bound, count, count_ok, ok)
        )
    return LowerChainReport(dim, tuple(levels), all(l.ok for l in levels))


@dataclass(frozen=True)
class BlichfeldtCheck:
    dim: int
    volume: Fraction
    count: int
    slack: Fraction
    passed: bool


def blichfeldt_check(simplex, count):
    """Check the lattice point bound count <= dim + dim! * volume.

    ``count`` is the simplex's number of lattice points, supplied by the
    caller (see ``count_face_points``).  Uses the intrinsic dimension,
    so embedded faces are measured within their own affine hulls.  The
    slack is a nonnegative integer whenever the bound holds.
    """
    if count < simplex.dim + 1:
        raise ValueError("a simplex has at least dim + 1 lattice points")
    volume = normalized_volume(simplex)
    slack = simplex.dim + factorial(simplex.dim) * volume - count
    return BlichfeldtCheck(simplex.dim, volume, count, slack, slack >= 0)


@dataclass(frozen=True)
class CanonicalForm:
    """A canonical representative plus the map that reaches it.

    ``simplex`` is the representative; ``linear`` and ``offset`` describe
    the unimodular affine map x -> linear @ x + offset carrying the input
    onto it (up to vertex order).
    """

    simplex: LatticeSimplex
    linear: tuple
    offset: tuple


def normal_form_2d(simplex, cap=DEFAULT_CAP):
    """Canonical representative of a planar simplex under lattice symmetry.

    Two triangles related by a unimodular linear map plus an integer
    translation get the same form.  The lexicographically smallest
    interior lattice point is moved to the origin first, so for the
    one-point family the form is a complete invariant of the equivalence
    class.
    """
    if simplex.dim != 2 or not simplex.is_full_dimensional:
        raise ValueError("only full-dimensional planar simplices have a normal form here")
    census = enumerate_interior(simplex, cap, limit=1)
    if not census.points:
        raise ValueError("simplex has no interior lattice point to anchor at")
    anchor = census.points[0]
    anchored = tuple(tuple(x - a for x, a in zip(v, anchor)) for v in simplex.vertices)
    form = _canonical_form(anchored)
    # the map: the column transform of the first vertex order whose Hermite form it is
    v = next(v for h, v in map(col_hermite_with_transform, itertools.permutations(anchored))
             if h == form)
    linear = transpose(v)

    def apply(w):
        return tuple(sum(x * y for x, y in zip(row, w)) for row in linear)

    offset = tuple(-x for x in apply(anchor))
    if abs(adjugate_int(linear)[0]) != 1:
        raise AssertionError("canonicalizing map is not unimodular")
    mapped = sorted(tuple(a + b for a, b in zip(apply(w), offset)) for w in simplex.vertices)
    if mapped != sorted(form):
        raise AssertionError("canonicalizing map does not reproduce the form")
    return CanonicalForm(LatticeSimplex(form), linear, offset)


def json_hook(value):
    """The ``json.dumps`` default for structured output.

    A fraction becomes its p/q string (an integer when the denominator is
    1) and a result record a dict of its fields; anything else is refused.
    """
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    raise TypeError(f"cannot serialize {type(value).__name__}")
