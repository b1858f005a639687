"""Exact geometry of lattice simplices with a single interior lattice point.

The package studies the family of full-dimensional lattice simplices whose
interior holds exactly one lattice point: the inequalities their
barycentric coordinates satisfy, the doubly exponential volume and
coordinate bounds those force, constructive certificates when the
inequalities fail, the extremal families that almost attain the bounds,
and a complete planar atlas.  All arithmetic is exact; floats never
appear.
"""

from .bounds import (
    BoundSizeError,
    BoundsReport,
    ChainReport,
    InequalityReport,
    LowerBoundReport,
    PartitionRecord,
    bounds_report,
    chain_decompose,
    check_all_partitions,
    coordinate_lower_bounds,
    corpus_extremes,
    reduced_system,
)
from .certificate import SecondPointCertificate, second_interior_point
from .generators import (
    Atlas2D,
    AtlasClass,
    dilated_simplex,
    onepoint_triangle_atlas,
    reflected_simplex,
    zpw_simplex,
)
from .points import (
    DEFAULT_CAP,
    EnumerationCapError,
    InteriorCensus,
    PointClass,
    classify_point,
    count_face_points,
    enumerate_interior,
    is_onepoint,
)
from .simplex import (
    LatticeSimplex,
    SimplexParseError,
    barycentric_of,
    check_barycentric,
    normalized_volume,
    parse_simplex_text,
    simplex_to_text,
)

__version__ = "0.1.0"
