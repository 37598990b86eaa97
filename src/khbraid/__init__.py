"""Khovanov homology of braid closures, two independent ways.

``linkinv.compute`` runs the arc-algebra pipeline (projective complexes,
the cup/cap endofunctor, twist mapping cones); ``oracle.cube_homology``
runs the classical cube of resolutions.  Both return bigraded integer
homology and must agree -- that cross-check is the point of the package.
"""

from .planar import (
    Matching,
    CircleDiagram,
    enumerate_matchings,
    circles,
    codim,
    cup_insert,
    cap_apply,
    interpolate,
    matching,
    plait,
    mixed,
    horseshoe,
)
from .arcalg import ArcCombination, multiply, dim_hn, center_action, trace, min_generator, idempotent
from .homalg import ProjSummand, Complex, BigradedGroup, cone, homology
from .tangle import cupcap_functor, unit_map, counit_map, twist
from .linkinv import BraidWord, InvariantResult, compute, idempotent_truncate, verify_markov, verify_skein
from .oracle import Diagram, braid_to_pd, parse_pd, cube_homology

__all__ = [
    "Matching", "CircleDiagram", "enumerate_matchings", "circles",
    "codim", "cup_insert", "cap_apply", "interpolate",
    "matching", "plait", "mixed", "horseshoe",
    "ArcCombination", "multiply", "dim_hn", "center_action",
    "trace", "min_generator", "idempotent",
    "ProjSummand", "Complex", "BigradedGroup", "cone",
    "idempotent_truncate", "homology",
    "cupcap_functor", "unit_map", "counit_map", "twist",
    "BraidWord", "InvariantResult", "compute", "verify_markov", "verify_skein",
    "Diagram", "braid_to_pd", "parse_pd", "cube_homology",
]
