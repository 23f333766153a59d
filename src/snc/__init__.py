"""Certified second-neighborhood witnesses for digraphs whose missing
edges form a generalized star, plus recognition, generators, and
exhaustive brute-force verification of every guarantee at desk scale."""

from .digraph import (
    Digraph,
    SnpCheck,
    UndirectedGraph,
    WeightedDigraph,
    WeightMap,
    has_weighted_snp,
    missing_graph,
)
from .errors import (
    BadProfile,
    CounterexampleReport,
    DigonRejected,
    DuplicateArc,
    InternalTheoremViolation,
    LoopRejected,
    MoveLimitExceeded,
    NegativeWeight,
    NotATournament,
    NotAViolation,
    NotAllGood,
    NotMissing,
    NoWitnessFound,
    ParseError,
    ReportedFailure,
    SncError,
    TooLarge,
)
from .good_edges import (
    ConvenientOrientation,
    FallbackWitness,
    MissingEdgeStatus,
    WitnessCertificate,
    all_missing_edges_good,
    classify_missing_edge,
    complete_to_tournament,
    find_witness,
    find_witness_good,
    reorient_at_feed,
    verify_certificate,
)
from .median_order import (
    CertifiedOrder,
    FeedbackViolation,
    PerturbedRational,
    exact_median_order,
    feed_vertex,
    feedback_check,
    local_median_order,
    order_objective,
)
from .oracle import (
    SweepReport,
    brute_force_snp_vertices,
    check_gamma_property,
    gamma_bracket,
    gamma_constant,
    sweep_gamma,
    sweep_proposition1,
    sweep_theorem1,
    sweep_theorem2,
    sweep_theorem3,
)
from .stars import (
    AdversarialWitness,
    Classification,
    GeneralizedStarDecomposition,
    RecognitionReport,
    SquareViolation,
    adversarial_digraph,
    check_condition_B,
    classify_special,
    decompose,
    max_stable_set,
    recognize,
    validate_decomposition,
)
from .generators import (
    GenSpec,
    Rng,
    gen_complete,
    gen_generalized_star,
    gen_star,
    gen_sun,
    random_digraph_missing,
    random_graph,
    random_tournament,
    random_weights,
)

__version__ = "0.1.0"
