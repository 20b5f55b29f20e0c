"""The serving layer: GenEdit as a long-running async service.

The paper frames GenEdit as an enterprise system behind live analyst
traffic (§1, §4.2); this package is that face of the reproduction — an
asyncio front end over the existing synchronous
:class:`~repro.pipeline.pipeline.GenEditPipeline`, stdlib-only like the
rest of the repo. The layout deliberately mirrors a FastAPI service
(routers + typed schemas + middleware) so the shape transfers:

* :mod:`.schemas`  — typed request/response models with field-level
  validation errors (the 400 body mirrors FastAPI's 422 shape);
* :mod:`.router`   — method+path routing with ``{param}`` segments,
  404/405 semantics, and :class:`~repro.serve.router.HTTPError`;
* :mod:`.middleware` — per-request span roots (the pipeline's spans
  join them, one tree per request), request-id and W3C ``traceparent``
  propagation, ``serve.*`` metrics, the request store that keeps whole
  trees by retention class (failed > slow > sampled > recent), and
  structured JSON access logging;
* :mod:`.pool`     — the bounded thread worker pool and admission
  control (429/503 + ``Retry-After``, per-request deadlines);
* :mod:`.app`      — :class:`~repro.serve.app.ServeApp`: per-tenant
  knowledge-set resolution, the ``ask``/``feedback``/``runs``/
  ``healthz`` handlers, graceful drain, and the serve-run ledger record;
* :mod:`.http`     — the asyncio HTTP/1.1 server and the in-process
  :class:`~repro.serve.http.ServerThread` used by tests and CI;
* :mod:`.loadgen`  — the skewed-workload load generator behind
  ``repro loadgen`` and ``make serve-smoke``.

See DESIGN.md §6h for the architecture and the concurrency-safety audit
that rode along with this layer.
"""

from .app import ServeApp
from .http import HttpServer, ServerThread
from .middleware import (
    ServeObservability,
    request_id_from_headers,
    trace_context_from_headers,
)
from .pool import PoolDraining, PoolSaturated, WorkerPool
from .router import HTTPError, Router
from .schemas import AskRequest, FeedbackRequest, ValidationError

__all__ = [
    "AskRequest",
    "FeedbackRequest",
    "HTTPError",
    "HttpServer",
    "PoolDraining",
    "PoolSaturated",
    "Router",
    "ServeApp",
    "ServeObservability",
    "ServerThread",
    "ValidationError",
    "WorkerPool",
    "request_id_from_headers",
    "trace_context_from_headers",
]
