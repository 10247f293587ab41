"""Forbidden-orientation graph classes, factor-avoidance words and dualities.

A desk-scale toolkit for three interlocking questions: does a graph admit
an orientation avoiding a finite set of oriented patterns; what is the
arithmetic structure of the cycle lengths (equivalently, word periods)
such a set allows; and which hole-defined hereditary classes can possibly
be characterized this way.  A digraph homomorphism engine with bounded
duality-pair verification rounds out the set.
"""

__version__ = "0.1.0"

from .graphs import (
    Digraph, Graph, Orientation, OrientedGraph, WorkBudgetExceeded, canonical_form,
    complete_graph, connected_components, contains_induced, coupling, directed_cycle,
    directed_path, disjoint_union, enumerate_digraphs, enumerate_graphs, girth,
    graph_union, graphs_isomorphic, induced_subdigraph, induced_subgraph,
    is_acyclic, is_isomorphic, make_cycle, make_path, orientations_of,
    transitive_tournament, underlying,
)
from .words import (
    ALPHABET, BWD, FWD, FactorAutomaton, FactorSet, PeriodicSet, PeriodStructure,
    enumerate_periods, forbidden_factor_set, has_free_word, is_A_free, is_factor,
    is_periodic, is_transitive, path_to_word, period_structure, periodic_word,
    sync_bound, word_to_path,
)
from .search import (
    DEFAULT_BUDGET, ForbiddenSet, MultiplesReport, OrientationVerdict,
    ReduceReport, SearchMode, admits_orientation,
    bridge_bound, cycle_spectrum, homomorphic_image_closure,
    multiples_property_check, oracle_chordal, oracle_k_colourable,
    overlap_contains, reduce_to_connected, verify_orientation,
)
from .duality import (
    DualityReport, HomWitness, core_of, hom_exists, is_hom_equivalent,
    is_oriented_forest, is_oriented_tree, known_duality_catalog,
    minimal_elements, verify_duality_pair, verify_generalized_duality,
)
from .holes import (
    CheckResult, ExpressibilityReport, HoleClassSpec, check_coupling_cofiniteness,
    check_infinite_cycles, check_multiples_closure, cycles_in_class,
    trichotomy_verdict,
)
