"""Volumes of geodesic simplices in H^n and of representations into
SO(n,1): Minkowski linear algebra, signed simplex volumes with closed
forms and corner-regularized cubature, Schlafli-identity residuals,
labeled triangulations of coned-off cusped manifolds, equivariant
developing maps, deformation paths, and Thurston gluing equations for
the shipped two-tetrahedron fixture."""

from .lorentz import (
    AmbiguousClassificationError,
    EmptyFixedSetError,
    FixedSet,
    Isometry,
    IsometryClass,
    IsometryClassification,
    Kind,
    LorentzError,
    LorentzVector,
    classify_isometry,
    common_fixed_set,
    distance,
    from_klein,
    lift_moebius,
    minkowski_inner,
    model_convert,
)
from .simplex import (
    GeodesicSimplex,
    HoroballAssignment,
    SimplexFamily,
    bloch_wigner,
    default_horoballs,
    dihedral_angle,
    dihedral_angles,
    face_measure,
    ideal_tet_volume,
    lobachevsky,
    numeric_volume,
    signed_volume,
    signed_volumes,
    truncated_edge_length,
)
from .schlafli import (
    FamilyDerivativeReport,
    family_derivatives,
    schlafli_residual,
    schlafli_residual_truncated_3d,
    transverse_degree,
    vertex_degree_2d,
)
from .triangulation import (
    Cusp,
    FacePairing,
    GroupPresentation,
    LabeledSimplex,
    LabeledTriangulation,
    OrbitVertex,
    check_cycle,
    cone_boundary,
    peripheral_words,
    validate_triangulation,
)
from .repvol import (
    DeformationPath,
    DevelopingAssignment,
    PathScanReport,
    PeripheralClassification,
    PeripheralKind,
    Representation,
    build_developing_assignment,
    check_representation,
    classify_peripheral,
    generate_path,
    milnor_wood_margin,
    representation_volume,
    scan_path,
    solve_gluing_equations,
    toledo_number,
)

__version__ = "0.1.0"
