"""Live adaptive-replication controller (the paper's loop, online).

Composes the existing pieces -- streaming playback
(:class:`repro.flash.driver.OnlineStreamSession`), pair mining
(:mod:`repro.mining.pairs`), FIM matching, admission control and
the fault layer -- into one long-running service that mines patterns
per interval and re-replicates between intervals *without stopping the
traffic*.  See :mod:`repro.controller.controller` for the loop,
:mod:`repro.controller.planner` for budgeted fault-aware migration,
:mod:`repro.controller.strategy` for the pluggable placement policies,
and ``docs/controller.md`` for the determinism contract.
"""

from repro.controller.controller import (
    AuditRecord,
    ControllerConfig,
    ControllerReport,
    ReplicationController,
)
from repro.controller.planner import (
    PlacementDelta,
    ReplicationPlan,
    ReplicationPlanner,
    pair_support_by_block,
)
from repro.controller.strategy import (
    FIMReplan,
    PlacementStrategy,
    StaticPlacement,
)

__all__ = [
    "AuditRecord",
    "ControllerConfig",
    "ControllerReport",
    "FIMReplan",
    "PlacementDelta",
    "PlacementStrategy",
    "ReplicationController",
    "ReplicationPlan",
    "ReplicationPlanner",
    "StaticPlacement",
    "pair_support_by_block",
]
