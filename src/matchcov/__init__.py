"""matchcov: matching covered graphs, bricks, tight cuts, and edge censuses.

The hot kernels (canonical labeling, matching search) have a compiled
backend with a pure-Python twin; see matchcov._kernel.
"""

from ._kernel import BACKEND as KERNEL_BACKEND
from .catalog import FAMILY_G, CatalogEntry, catalog
from .census import (CensusConfig, CensusRecord, VerdictSummary, emit_report,
                     ingest_graph6, run_census)
from .edges import (EdgeClass, EdgeClassReport, classify_all,
                    every_b_invariant_solitary, is_b_invariant, is_removable,
                    is_solitary, triangle_nonremovable_edges)
from .errors import (CapacityError, CatalogError, Graph6Error, GraphBuildError,
                     MatchcovError, PreconditionError)
from .generate import CanonicalAugmenter, generate_all_graphs
from .graph import (Graph, bridges, build, canonical_form, canonical_graph6,
                    contract, is_bipartite, is_claw_free, is_connected,
                    is_isomorphic, is_three_connected, parse_graph6, to_graph6,
                    underlying_simple)
from .matching import (count_perfect_matchings, count_pm_containing,
                       enumerate_perfect_matchings, has_perfect_matching,
                       is_bicritical, is_brick, is_matching_covered,
                       unique_pm_bridge)
from .tightcut import (Cut, DecompositionResult, decompose, find_nontrivial_tight_cut,
                       is_tight, make_cut)

__version__ = "0.1.0"
