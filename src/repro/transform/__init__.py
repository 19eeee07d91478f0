"""Semantics-preserving DFG transformations (§4.2) and the pass driver."""

from repro.transform.auxiliary import (
    insert_cat_for_multi_input,
    insert_eager_relays,
    insert_relay,
    insert_split_before,
)
from repro.transform.parallelize import (
    is_parallelizable_node,
    parallelize_node,
    preceding_concatenation,
)
from repro.transform.passes import (
    AggregationLoweringPass,
    EagerRelayPass,
    GraphPass,
    ParallelizePass,
    PassContext,
    PassManager,
    SplitInsertionPass,
    available_passes,
    build_pipeline,
    register_pass,
    unregister_pass,
)
from repro.transform.pipeline import (
    EagerMode,
    OptimizationReport,
    SplitMode,
)

__all__ = [
    "AggregationLoweringPass",
    "EagerMode",
    "EagerRelayPass",
    "GraphPass",
    "OptimizationReport",
    "ParallelizePass",
    "PassContext",
    "PassManager",
    "SplitInsertionPass",
    "SplitMode",
    "available_passes",
    "build_pipeline",
    "insert_cat_for_multi_input",
    "insert_eager_relays",
    "insert_relay",
    "insert_split_before",
    "is_parallelizable_node",
    "parallelize_node",
    "register_pass",
    "preceding_concatenation",
    "unregister_pass",
]
