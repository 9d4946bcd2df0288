"""Staged query execution: plan → execute → fold.

Shared pipeline interface implemented by every system under test.  See
:mod:`repro.exec.plan` and :mod:`repro.exec.stages`.
"""

from repro.exec.plan import ALL_CELLS, WAREHOUSE_CELL, QueryPlan
from repro.exec.stages import (
    Execution,
    InsertListener,
    SinkTree,
    SinkTreeSystem,
    StagedQuerySystem,
    check_query_dimensions,
    run_staged,
)

__all__ = [
    "ALL_CELLS",
    "WAREHOUSE_CELL",
    "QueryPlan",
    "Execution",
    "InsertListener",
    "SinkTree",
    "SinkTreeSystem",
    "StagedQuerySystem",
    "check_query_dimensions",
    "run_staged",
]
