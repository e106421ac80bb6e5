"""repro.service: simulation-as-a-service over the sweep substrate.

The PR 5–9 sweep stack made simulations *content-addressed jobs*:
hashable keys, a durable result cache, a crash-safe worker pool, and a
lease protocol for concurrent runners.  This package puts an HTTP front
end on that substrate so the simulator runs as a long-lived shared
service instead of a per-invocation CLI:

- :mod:`~repro.service.simulate` — the request ↔ point ↔ JobSpec
  vocabulary shared with ``repro run`` (one key space: CLI cache
  entries are service memo hits and vice versa);
- :mod:`~repro.service.admission` — queue bound, interactive reserve,
  and per-tenant token-bucket quotas (429/503 + Retry-After);
- :mod:`~repro.service.coalesce` — identical in-flight keys share one
  execution; every waiter's answer comes from the leader's future;
- :class:`ServicePool` (:mod:`repro.sweep.pool`) — the supervised
  worker pool sweeps also run on, fed one job per leader: priority
  heap, wakeup pipe, lease-bumped requeue after worker death,
  poison-job quarantine;
- :mod:`~repro.service.server` — hand-rolled asyncio HTTP/1.1 server
  (stdlib only): ``POST /v1/simulate``, ``POST /v1/sweep``,
  ``GET /healthz``, ``GET /v1/stats``, ``GET /metrics``,
  ``POST /v1/shutdown``;
- :mod:`~repro.service.client` — the blocking client behind
  ``repro submit`` and the CI smoke lane.

Exposed via ``repro serve`` / ``repro submit``; see DESIGN.md
section 14 for the correctness argument (memoization, at-most-once
execution per key, overload policy).
"""

from repro.service.admission import (
    Admission,
    AdmissionController,
    AdmissionPolicy,
    TokenBucket,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.coalesce import Coalescer
from repro.sweep.pool import (
    ServiceExecutionError,
    ServicePool,
    ServiceQuarantined,
)
from repro.service.server import (
    Reply,
    ServiceServer,
    SimulationService,
)
from repro.service.simulate import (
    format_run_summary,
    request_point,
    run_cell,
    run_jobspec,
)

__all__ = [
    "Admission",
    "AdmissionController",
    "AdmissionPolicy",
    "Coalescer",
    "Reply",
    "ServiceClient",
    "ServiceError",
    "ServiceExecutionError",
    "ServicePool",
    "ServiceQuarantined",
    "ServiceServer",
    "SimulationService",
    "TokenBucket",
    "format_run_summary",
    "request_point",
    "run_cell",
    "run_jobspec",
]
