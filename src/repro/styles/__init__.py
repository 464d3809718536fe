"""Architectural styles (substrate S11).

* :mod:`repro.styles.client_server` — the paper's replicated client/server
  style: types, the Figure 5 repair strategies (verbatim DSL text), and the
  ``addServer`` / ``move`` / ``remove`` / ``findGoodSGroup`` operators;
* :mod:`repro.styles.pipeline` — a second, smaller style used by the
  custom-style example to demonstrate that the framework is style-generic;
* :mod:`repro.styles.master_worker` — the grid task-farm style (worker
  pool growth/shrink plus straggler re-dispatch repairs);
* :mod:`repro.styles.multi_tenant` — N tenant farms behind a gateway,
  scope-local per-tenant invariants (the concurrent-repair showcase).
"""

from repro.styles.client_server import (
    FIGURE5_DSL,
    UNDERUTILIZATION_DSL,
    build_client_server_family,
    build_client_server_model,
    style_operators,
)
from repro.styles.master_worker import (
    MASTER_WORKER_DSL,
    POOL_SIZING_DSL,
    build_master_worker_family,
    build_master_worker_model,
    master_worker_operators,
)
from repro.styles.multi_tenant import (
    MULTI_TENANT_DSL,
    build_multi_tenant_family,
    build_multi_tenant_model,
    multi_tenant_operators,
)

__all__ = [
    "FIGURE5_DSL",
    "UNDERUTILIZATION_DSL",
    "build_client_server_family",
    "build_client_server_model",
    "style_operators",
    "MASTER_WORKER_DSL",
    "POOL_SIZING_DSL",
    "build_master_worker_family",
    "build_master_worker_model",
    "master_worker_operators",
    "MULTI_TENANT_DSL",
    "build_multi_tenant_family",
    "build_multi_tenant_model",
    "multi_tenant_operators",
]
