"""Exact combinatorics of alternative and permutation tableaux."""

from .checks import formula_report
from .core import (
    AltTableau,
    Arrow,
    FreeStats,
    PermTableau,
    empty_tableau,
    free_stats,
    from_perm_tableau,
    parse_tableau,
    relabel,
    render_tableau,
    standard_tableau,
    standardize,
    to_perm_tableau,
    transpose,
    validate_alt,
    validate_perm_tableau,
)
from .decomposition import (
    block,
    closure,
    cut,
    divide,
    merge,
    merge_all,
    packed_class,
    restrict,
    split,
)
from .enumeration import (
    AsepParams,
    CountTable,
    MarkedTableau,
    all_tableaux,
    all_via_perm,
    asep_distribution,
    chain_stationary,
    count_table,
    decorated_bijection,
    decorated_bijection_inv,
    decorated_count,
    is_decorated,
    symmetric_tableaux,
    weight_poly,
)
from .errors import (
    DomainError,
    ParseError,
    ResourceLimitError,
    TableauError,
    ValidationError,
)
from .permutations import (
    SignedPerm,
    forest_word,
    from_permutation,
    from_signed_permutation,
    insertion_steps,
    perm_stats,
    to_permutation,
    to_permutation_by_insertion,
    to_signed_permutation,
)
from .trees import (
    ArcDiagram,
    BinAltTree,
    PlaneAltForest,
    PlaneAltTree,
    arc_diagram,
    arcs_to_forest,
    binary_pair,
    binary_pair_inv,
    forest_to_arcs,
    from_forest,
    from_tree,
    out_crossings,
    to_forest,
    to_tree,
)

__version__ = "0.1.0"
