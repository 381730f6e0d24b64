"""Factorization-as-a-service: an async serving layer over the
algorithm registry.

Public surface::

    from repro.service import (
        FactorService, ServiceConfig, FactorRequest, ServiceResponse,
        WorkloadSpec, run_workload, serve_tcp,
    )

See DESIGN.md's service-layer section for the queue model, cache-key
reuse and overload semantics.
"""

from repro.service.config import ServiceConfig
from repro.service.jobs import (
    SERVICE_TASK,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    FactorRequest,
    ServiceResponse,
)
from repro.service.metrics import ServiceMetrics, percentile
from repro.service.server import FactorService, serve_tcp
from repro.service.workload import (
    LoadReport,
    RequestSampler,
    WorkloadSpec,
    run_workload,
    run_workload_async,
    zipf_weights,
)

__all__ = [
    "FactorRequest",
    "FactorService",
    "LoadReport",
    "RequestSampler",
    "SERVICE_TASK",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_TIMEOUT",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceResponse",
    "WorkloadSpec",
    "percentile",
    "run_workload",
    "run_workload_async",
    "serve_tcp",
    "zipf_weights",
]
