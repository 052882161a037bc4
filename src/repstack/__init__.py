"""Exact solver toolkit for leader commitments in finite-horizon repeated games.

Computes the follower's threat value and the commitment LP over joint action
pairs, constructs prescribed-sequence leader automata (an exact cyclic layout
and a sampled variant), verifies them against an exact backward-induction
best-response oracle, measures external regret, and generates three-player
hardness instances from graphs.  All solver arithmetic is exact rational.
"""

from .core import (
    ActionPair,
    BimatrixGame,
    EmptyTranscript,
    EntryOutOfRange,
    InputError,
    MixedStrategy,
    RationalParseError,
    ShapeMismatch,
    Transcript,
    average_payoffs,
    format_rational,
    game_from_json,
    game_to_json,
    pair_order_key,
    pair_ordering,
    parse_rational,
    transcript_from_json,
    transcript_to_json,
    validate_game,
)
from .gpa import (
    CycleParameters,
    ExactStrategyUnavailable,
    GamePlayingAlgorithm,
    HorizonTooShort,
    MissingEntry,
    PrescribedSequenceGPA,
    build_deterministic_gpa,
    gpa_from_json,
    gpa_to_json,
    multiplicative_weights,
    myopic_best_responder,
    prescription_follower,
    sample_prescription,
)
from .hardness import (
    BudgetExceeded,
    DimensionMismatch,
    Graph,
    GraphTooSmall,
    InvalidCover,
    ThreePlayerGame,
    balanced_vertex_cover,
    coloring_leader_gpa,
    cover_strategies,
    graph_from_text,
    graph_to_text,
    grid_audit_player3,
    player3_audit,
    reduce_graph,
)
from .lp import (
    LinearProgram,
    LPSolution,
    LPStatus,
    StackelbergSolution,
    ThreatResult,
    game_value,
    max_follower_pair,
    simplex_solve,
    stackelberg_lp,
    threat,
)
from .oracle import (
    BestResponseResult,
    DeviationProfitableAt,
    Obeys,
    RegretReport,
    StateSpaceExceeded,
    best_response,
    external_regret,
    on_path_transcript,
    simulate,
    stackelberg_gap,
    verify_prescription,
)

__version__ = "0.1.0"
