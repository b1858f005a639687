"""Exact geometry of lattice simplices with a single interior lattice point.

The package studies the family of full-dimensional lattice simplices whose
interior holds exactly one lattice point: the inequalities their
barycentric coordinates satisfy, the doubly exponential volume and
coordinate bounds those force, constructive certificates when the
inequalities fail, the extremal families that almost attain the bounds,
and a complete planar atlas.  All arithmetic is exact; floats never
appear.

``import onepoint`` loads no submodule: each public name below is looked up
in its home module when it is first used (PEP 562), and is not kept here,
so a binding replaced in the home module is the one this package hands out.
"""

from importlib import import_module

# the public names of each home module
_EXPORTS = {
    "bounds": (
        "BoundSizeError", "BoundsReport", "ChainReport", "InequalityReport",
        "LowerBoundReport", "PartitionRecord", "bounds_report", "chain_decompose",
        "check_all_partitions", "coordinate_lower_bounds", "corpus_extremes", "reduced_system",
    ),
    "certificate": ("SecondPointCertificate", "second_interior_point"),
    "generators": (
        "Atlas2D", "AtlasClass", "dilated_simplex", "onepoint_triangle_atlas",
        "reflected_simplex", "zpw_simplex",
    ),
    "points": (
        "DEFAULT_CAP", "EnumerationCapError", "InteriorCensus", "PointClass",
        "classify_point", "count_face_points", "enumerate_interior", "is_onepoint",
    ),
    "simplex": (
        "LatticeSimplex", "SimplexParseError", "barycentric_of", "check_barycentric",
        "normalized_volume", "parse_simplex_text", "simplex_to_text",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
# the modules that ``onepoint.<module>`` reaches without an import of its own
_LAYERS = frozenset(("exact", *_EXPORTS))

__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    if name in _HOMES:
        return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
