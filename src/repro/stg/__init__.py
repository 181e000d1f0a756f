"""Static task graph: model, synthesis, condensation, DOT export."""

from .. import _lazy_package

__all__, __getattr__, __dir__ = _lazy_package(__name__, names={
    ".graph": ("STG", "STGNode", "STGEdge", "NODE_KINDS"),
    ".synthesis": ("synthesize_stg",),
    ".condense": ("condense", "CondensePlan", "Region", "PlanRetain", "PlanRegion",
                  "w_param"),
    ".export": ("to_dot", "write_dot"),
})
