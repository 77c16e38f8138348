"""Exact minimal CNOT circuits via the Cayley graph of GL(n,2).

The group of invertible n x n matrices over F2, generated by the
transvections (single row additions = CNOT gates), is explored breadth
first with one stored representative per isometry orbit.  The library
exposes the exploration, distance and optimal-synthesis queries, orbit
classification by essential indices, sphere-size polynomials, diameter
lower bounds, permutation-distance checks, and a persistent distance
database; the ``cnotcayley`` CLI wires them together.
"""

from .bfs import (
    BidirOutcome,
    ExplorationResult,
    SearchLimits,
    bidirectional_distance,
    distance_of,
    isometry_bfs,
    synthesize,
)
from .bounds import SphereProfile, ell, gl_order, quadratic_bound
from .errors import (
    CnotCayleyError,
    ConsistencyError,
    DatabaseError,
    DimensionError,
    FormatError,
    HorizonError,
    MissingRecordError,
    OrderError,
    SingularError,
)
from .essential import (
    EssentialClassTable,
    PolyCoeffs,
    classify,
    eval_poly,
    extract_coeffs,
    load_coeffs,
    witness_matrix,
)
from .gf2 import (
    BitMatrix,
    Circuit,
    Permutation,
    Transvection,
    apply_transvection,
    conjugate_by_perm,
    cycle_count,
    embed,
    essential_indices,
    eval_circuit,
    compact_to_essential,
    format_circuit,
    format_matrix,
    identity,
    invert,
    multiply,
    parse_circuit,
    parse_matrix,
    parse_perm,
    perm_matrix,
    random_invertible,
    transpose_inverse,
)
from .isometry import IsometrySpec, OrbitInfo, act, canonicalize
from .permcheck import (
    CycleType,
    cycle_type_reps,
    glue_cycles,
    perm_circuit,
    transposition_circuit,
    verify_conjecture,
)
from .store import load, lookup, save

__version__ = "0.1.0"
