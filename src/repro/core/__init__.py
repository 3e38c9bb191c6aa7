"""Duet core: VIP assignment, migration, provisioning, controller."""

from repro.core.assignment import (
    Assignment,
    AssignmentConfig,
    AssignmentError,
    GreedyAssigner,
    LoadCalculator,
)
from repro.core.fastassign import (
    ASSIGN_STATS,
    AssignStats,
    FastAssignEngine,
    stats_for,
)
from repro.core.baselines import FirstFitAssigner, RandomAssigner
from repro.core.capacity import CapacityReport, binding_resource, find_capacity
from repro.core.refine import AssignmentRefiner, RefinementResult
from repro.core.replication import ReplicatedAssigner, ReplicatedAssignment
from repro.core.snat import PortRange, SnatError, SnatPortManager, slots_of_dip
from repro.core.intent import ControllerIntent, VipRecord
from repro.core.agent import ControllerError, SwitchAgent, SwitchProgrammingError
from repro.core.controller import DuetController, ProgrammingStats
from repro.core.linkload import (
    LinkUtilizationComputer,
    UtilizationReport,
    default_smux_tors,
)
from repro.core.migration import (
    DEFAULT_STICKY_DELTA,
    MigrationPlan,
    MigrationStep,
    NonStickyMigrator,
    OneTimeMigrator,
    StepKind,
    StickyMigrator,
    diff_assignments,
)
from repro.core.provisioning import (
    ProvisioningConfig,
    SmuxProvisioning,
    ananta_smux_count,
    duet_provisioning,
    failover_traffic,
    surviving_vip_traffic,
    worst_container_failover,
    worst_switch_failover,
)

__all__ = [
    "ASSIGN_STATS",
    "AssignStats",
    "Assignment",
    "AssignmentConfig",
    "AssignmentError",
    "AssignmentRefiner",
    "FastAssignEngine",
    "CapacityReport",
    "ControllerError",
    "ControllerIntent",
    "DEFAULT_STICKY_DELTA",
    "DuetController",
    "FirstFitAssigner",
    "GreedyAssigner",
    "LinkUtilizationComputer",
    "LoadCalculator",
    "MigrationPlan",
    "MigrationStep",
    "NonStickyMigrator",
    "OneTimeMigrator",
    "PortRange",
    "ProvisioningConfig",
    "RandomAssigner",
    "RefinementResult",
    "ReplicatedAssigner",
    "ReplicatedAssignment",
    "SmuxProvisioning",
    "SnatError",
    "SnatPortManager",
    "StepKind",
    "StickyMigrator",
    "ProgrammingStats",
    "SwitchAgent",
    "SwitchProgrammingError",
    "UtilizationReport",
    "VipRecord",
    "ananta_smux_count",
    "binding_resource",
    "default_smux_tors",
    "diff_assignments",
    "duet_provisioning",
    "failover_traffic",
    "find_capacity",
    "slots_of_dip",
    "stats_for",
    "surviving_vip_traffic",
    "worst_container_failover",
    "worst_switch_failover",
]
