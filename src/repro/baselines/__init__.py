"""The paper's three competitors (RWS, MW, AHMW) plus the lifeline
extension from its related work."""

from .._lazy import TYPE_CHECKING, lazy

if TYPE_CHECKING:
    from .ahmw import AHMW_DEGREE, AHMWNode, build_ahmw_tree
    from .lifeline import LifelineWorker
    from .master_worker import MWMaster, MWWorker
    from .rws import RWSWorker, detection_tree

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".ahmw": "AHMW_DEGREE AHMWNode build_ahmw_tree",
    ".lifeline": "LifelineWorker",
    ".master_worker": "MWMaster MWWorker",
    ".rws": "RWSWorker detection_tree",
})
