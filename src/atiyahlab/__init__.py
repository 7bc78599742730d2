"""Exact-arithmetic linear systems on the ruled surface of the nonsplit
extension bundle over an elliptic curve."""

from .errors import (
    AtiyahLabError,
    CertificationError,
    ConfigError,
    SeriesPrecisionError,
    VerificationError,
)
from .fields import QQ, FieldElem, FiniteField, make_extension_field, solve_quadratic
from .curve import (
    CurvePoint,
    Divisor,
    WeierstrassCurve,
    certify_non_torsion,
    certify_not_p_torsion,
    reduce_curve_mod_p,
    reduce_point_mod_p,
)
from .funcfield import FuncElem
from .riemann_roch import RRSpace, rr_basis
from .surface import (
    AtiyahSurface,
    CechCocycle,
    SectionSpace,
    SectionVector,
    build_cocycle,
    make_surface,
)
from .fat_points import (
    FatPoint,
    FatSystem,
    LambdaRecord,
    MuRecord,
    WitnessDivisor,
    char_p_witness,
    expected_dimension,
    fat_system,
    h0_fat,
    jet_matrix,
    max_multiplicity,
    min_level,
    multiplicity_step_check,
    sample_fat_point,
    verify_jets,
)
from .config import ExperimentConfig, JobSpec, load_config
from .jobs import ResultRow, run_config

__all__ = [
    "AtiyahLabError",
    "CertificationError",
    "ConfigError",
    "SeriesPrecisionError",
    "VerificationError",
    "QQ",
    "FieldElem",
    "FiniteField",
    "make_extension_field",
    "solve_quadratic",
    "CurvePoint",
    "Divisor",
    "WeierstrassCurve",
    "certify_non_torsion",
    "certify_not_p_torsion",
    "reduce_curve_mod_p",
    "reduce_point_mod_p",
    "FuncElem",
    "RRSpace",
    "rr_basis",
    "AtiyahSurface",
    "CechCocycle",
    "SectionSpace",
    "SectionVector",
    "build_cocycle",
    "make_surface",
    "FatPoint",
    "FatSystem",
    "LambdaRecord",
    "MuRecord",
    "WitnessDivisor",
    "char_p_witness",
    "expected_dimension",
    "fat_system",
    "h0_fat",
    "jet_matrix",
    "max_multiplicity",
    "min_level",
    "multiplicity_step_check",
    "sample_fat_point",
    "verify_jets",
    "ExperimentConfig",
    "JobSpec",
    "load_config",
    "ResultRow",
    "run_config",
]

__version__ = "0.1.0"
