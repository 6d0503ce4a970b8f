"""Peer-to-peer overlay structures (paper §II).

TD (deterministic dmax-ary), TR (random recursive) and BTD (TD + one random
bridge per node), plus the distributed converge-cast that computes subtree
sizes and structural metrics used by the experiment reports.
"""

from .._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .bridges import BridgedTreeOverlay, add_bridges
    from .convergecast import ConvergecastProcess, SizeService
    from .metrics import OverlaySummary, degree_histogram, diameter, summarize
    from .tree import (TreeOverlay, chain_tree, deterministic_tree, from_parents,
                       random_tree, star_tree)

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".bridges": "BridgedTreeOverlay add_bridges",
    ".convergecast": "ConvergecastProcess SizeService",
    ".metrics": "OverlaySummary degree_histogram diameter summarize",
    ".tree": "TreeOverlay chain_tree deterministic_tree from_parents random_tree star_tree",
})
