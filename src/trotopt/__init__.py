"""trotopt: T-count and T-depth optimization for Clifford+T circuits.

T and Tdg gates are treated as quarter rotations about Clifford-conjugated
Pauli axes.  Pairs of rotations that meet through commuting neighbours are
cancelled (opposite axes) or merged into a Clifford (equal axes), which
lowers the T-count without touching any other gate.  The anticommutation
DAG over the surviving rotations then gives the commutation-only optimal
T-depth, and layers of commuting rotations can be realized with one
parallel T layer each, borrowing ancillas when a layer is dependent.
Every rewrite is checkable against a dense small-register unitary oracle.
"""

from .pauli import PauliProduct
from .circuit import (
    ARITY,
    Circuit,
    Gate,
    GateCounts,
    ParseError,
    UnsupportedGateError,
    parse_qc,
    write_qc,
)
from .tableau import (
    CliffordTableau,
    DependentSetError,
    InvariantError,
    NonCommutingError,
    synthesize,
)
from .rotations import (
    EditPlan,
    Rotation,
    RotationForm,
    apply_edit_plan,
    extend_with_ancillas,
    from_rotation_form_resynth,
    synthesize_layer,
    synthesize_schedule,
    to_rotation_form,
)
from .optimizer import (
    OptimizeResult,
    OptimizeStats,
    ReductionReport,
    optimize,
    t_count_reduction,
)
from .tgraph import (
    LayerSchedule,
    TGraph,
    build_tgraph,
    layerize,
    t_depth_bound,
    to_dot,
)
from .verify import (
    equivalent_up_to_phase,
    pauli_matrix,
    rotation_matrix,
    unitary_of,
)

__version__ = "0.1.0"

__all__ = [
    "ARITY",
    "Circuit",
    "CliffordTableau",
    "DependentSetError",
    "EditPlan",
    "Gate",
    "GateCounts",
    "InvariantError",
    "LayerSchedule",
    "NonCommutingError",
    "OptimizeResult",
    "OptimizeStats",
    "ParseError",
    "PauliProduct",
    "ReductionReport",
    "Rotation",
    "RotationForm",
    "TGraph",
    "UnsupportedGateError",
    "apply_edit_plan",
    "build_tgraph",
    "equivalent_up_to_phase",
    "extend_with_ancillas",
    "from_rotation_form_resynth",
    "layerize",
    "optimize",
    "parse_qc",
    "pauli_matrix",
    "rotation_matrix",
    "synthesize",
    "synthesize_layer",
    "synthesize_schedule",
    "t_count_reduction",
    "t_depth_bound",
    "to_dot",
    "to_rotation_form",
    "unitary_of",
    "write_qc",
]
