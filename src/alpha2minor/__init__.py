"""Constructive clique-join-independent minors in graphs with independence
number two, plus the exact invariants and the model checker used to verify
the constructions at desk scale."""

from .construct import (
    Certificate,
    TraceStep,
    certificate_to_json,
    construct_chi_minor,
    construct_half_minor,
    select_edge_small_case,
)
from .errors import (
    Alpha2Error,
    Graph6Error,
    InvariantViolation,
    PreconditionError,
)
from .generate import enumerate_alpha2, random_alpha2
from .graphs import (
    Graph,
    complement,
    emit_graph6,
    induced_subgraph,
    is_k_connected,
    parse_graph6,
    vertex_connectivity,
)
from .invariants import (
    alpha_at_most_two,
    chromatic_number_alpha2,
    clique_number,
    co_components,
    is_five_wheel,
)
from .matching import maximum_matching
from .minors import (
    CliqueJoinIndependent,
    MinorModel,
    validate_model,
)
from .packing import (
    P3Packing,
    PackingConditionReport,
    check_packing_conditions,
    exchange_improve,
    find_p3_packing,
    validate_packing,
)

__version__ = "0.1.0"
