"""Unbalanced Tree Search (Olivier et al.) — the paper's pure LB adversary."""

from .._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .params import PAPER_INSTANCES, PRESETS, UTSPreset, get_preset
    from .rng import child_states, decide_unit, nth_child, root_state
    from .sequential import TreeStats, count_tree
    from .tree import UTSParams, child_counts, expand, root_frontier
    from .work import UTSWork

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".params": "PAPER_INSTANCES PRESETS UTSPreset get_preset",
    ".rng": "child_states decide_unit nth_child root_state",
    ".sequential": "TreeStats count_tree",
    ".tree": "UTSParams child_counts expand root_frontier",
    ".work": "UTSWork",
})
