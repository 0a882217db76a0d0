"""Graph rewriting with explicit control over the patch around each match."""

from .graph import (
    EMPTY_GRAPH,
    Graph,
    PatchDecomposition,
    Renaming,
    canonical_form,
    decompose_at,
    find_isomorphism,
    graph_union,
    is_simple,
    isomorphic,
    patch_compose,
    rename_graph,
    validate_patch,
)
from .matching import Redex, context_of, find_pattern_embeddings, find_redexes
from .rewrite import (
    StepCertificate,
    StepRecord,
    apply_at,
    brute_force_step_oracle,
    check_rule_determinism,
    construct_rhs_patch,
    normalize,
    successors,
    verify_step,
)
from .rules import (
    CONTEXT,
    Morphism,
    PatchType,
    QuasiRule,
    RuleSketch,
    Scheme,
    build_rule,
    desugar_rule,
    enumerate_adherence_maps,
    expand_black_node_shorthand,
    expand_name_shorthand,
    import_dpo,
    import_spo,
    match_positions,
    rules_isomorphic,
    validate_quasi_rule,
)

__all__ = [name for name in dir() if not name.startswith("_")]
