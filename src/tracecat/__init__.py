"""Exact categorified-trace computations for ADE module tensor categories.

The package has three layers:

* integer K-theory: fusion rings, module actions built from Dynkin
  diagrams by the Chebyshev recursion, the trace matrix of the adjoint,
  and internal-End catalogs for identifying algebra objects;
* an exact Temperley-Lieb diagram calculus over a cyclotomic field, used
  to verify the morphism-level identities of the trace machinery
  (traciators, twists, pivotal traces) at a root of unity;
* a CLI (`tracecat`) tying the two together.
"""

from .algebra import (
    AlgebraCandidate,
    Catalog,
    Match,
    WitnessReport,
    candidate_from_end,
    candidate_from_trace_unit,
    candidate_from_word,
    enumerate_internal_ends,
    identify_algebra,
    semisimplicity_witness,
)
from .cyclo import Cyc, CycloField, scalar_field
from .fusion import (
    FusionError,
    FusionRing,
    ObjectVec,
    ValidationReport,
    fuse,
    su2_dimensions,
    validate_ring,
    verlinde_su2,
)
from .modules import (
    AmbiguousFusion,
    DeriveResult,
    ModuleAction,
    ModuleError,
    ModuleTensorData,
    NoConsistentFusion,
    action_automorphisms,
    chebyshev_action,
    derive_module_fusion,
    regular_module,
    validate_action,
    validate_tensor_data,
)
from .packages import (
    BUILTIN_FILES,
    PackageError,
    ade_action,
    dynkin_graph,
    load_builtin,
    load_package,
    package_text,
    save_package,
)
from .tl import (
    PlanarDiagram,
    SuiteReport,
    TLMorphism,
    TLObject,
    braid_blocks,
    braiding,
    compose,
    identity_suite,
    jones_wenzl,
    pivotal_trace,
    simple_object,
    tensor,
    traciator_self_action,
    twist,
    twist_morphism,
)
from .trace import (
    check_adjunction,
    check_forgetful,
    check_splitting_iso,
    check_traciator_iso,
    decomposition,
    internal_end,
    trace_matrix,
    trace_object,
    trace_of_word,
    trace_table,
)

__version__ = "0.1.0"
