"""Simulation-as-a-service: job queue, REST API, worker fleet,
shared artifact store, and Prometheus metrics.

The subsystem turns the one-shot sweep/check/faults CLIs into a
long-lived service (ROADMAP item 1): a stdlib HTTP API accepts job
submissions into a disk-backed priority queue with a bounded backlog,
a fleet of worker processes drains it through the existing
crash-resilient harness, results land in a content-addressed artifact
store that dedups identical work across clients, and ``/metrics``
exposes the whole pipeline in Prometheus text format.  See
``docs/service.md``.
"""

from .client import ServiceClient, ServiceClientError
from .jobs import (JOB_KINDS, JobRecord, JobStore, JobValidationError,
                   job_id, validate_spec)
from .metrics import parse_prometheus_text
from .queue import DiskQueue, QueueFull
from .service import Service, ServiceConfig
from .store import ArtifactStore
from .worker import Worker, WorkerFleet

__all__ = [
    "ArtifactStore", "DiskQueue", "JobRecord", "JobStore",
    "JobValidationError", "JOB_KINDS", "QueueFull", "Service",
    "ServiceClient", "ServiceClientError", "ServiceConfig", "Worker",
    "WorkerFleet", "job_id", "parse_prometheus_text", "validate_spec",
]
