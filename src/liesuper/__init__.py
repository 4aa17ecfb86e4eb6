"""Lie systems, superposition rules, and the Riccati hierarchy.

Exact symbolic layer: rational (Laurent) polynomial arithmetic, Lie
brackets, closures and derivations of polynomial vector fields, the
hierarchy of higher-order Riccati equations derived from linear ODEs.

Numeric layer: adaptive integration with singularity accounting, a
catalog of (mixed) superposition rule evaluators, and a verification
harness that checks every cataloged formula against direct integration.
"""

from .algebra import Poly
from .hierarchy import (
    companion_linear_system,
    gl_basis,
    linear_generators,
    member_lie_generators,
    member_td_system,
    member_text,
    p_sequence,
)
from .integrate import (
    IntegratorConfig,
    SingularityEvent,
    Trajectory,
    integrate,
    integrate_batch,
    integration_settings,
    write_csv,
)
from .liealg import (
    CapExceeded,
    LieBasis,
    NotClosed,
    StructureConstants,
    center_dimension,
    check_lie_condition,
    closure,
    independence_rank,
    is_modular_basis,
    killing_determinant,
    killing_form,
    lie_dimension,
    structure_constants,
)
from .parsing import ParseError, TimeFunction, parse_poly, parse_timefn
from .superpose import (
    CoincidentSolutions,
    DegenerateWronskian,
    DomainError,
    NonGenericNormalization,
    RadicandNegative,
    SingularDenominator,
    SingularJetMatrix,
    SuperpositionError,
    eval_bernoulli_rule,
    eval_hierarchy_rule,
    eval_linear_rule,
    eval_pinney_rule,
    eval_riccati_cross_ratio,
    solve_hierarchy_constants,
)
from .systems import SpecError, SystemSpec, build_rhs, parse_system_spec, spec_to_doc
from .vectorfield import (
    ExponentLimitError,
    PolyVectorField,
    TDVectorField,
    diagonal_prolong,
    direct_product,
    lie_bracket,
)
from .verify import (
    SuiteValidationError,
    VerificationReport,
    check_prolongation_identity,
    default_suite,
    run_rule_verification,
    run_suite,
    suite_passed,
    verify_rule,
)

__version__ = "0.1.0"
