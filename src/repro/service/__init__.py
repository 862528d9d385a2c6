"""``repro.service`` — the concurrent estimation-serving subsystem.

Layering (queue → batch → worker → snapshot swap; DESIGN.md §11):

* :mod:`repro.service.config` — the tunables: :class:`ServiceConfig`
  (where the server listens is an argument of :func:`run_server` and
  :func:`start_in_thread`, not a field);
* :mod:`repro.service.protocol` — typed requests/responses
  (:class:`ServedEstimate`, :class:`Overloaded`, ...) and the JSON-lines
  wire codec shared by both transports;
* :mod:`repro.service.queue` — the bounded
  :class:`~repro.service.queue.AdmissionQueue` (shed-on-full admission,
  coalescing batch pops);
* :mod:`repro.service.service` — :class:`EstimationService`: the worker
  pool with micro-batching, deadlines, graceful drain and hot snapshot
  swap over :class:`~repro.catalog.StatisticsCatalog`;
* :mod:`repro.service.server` — the asyncio JSON-lines TCP front-end
  (``python -m repro serve``);
* :mod:`repro.service.client` — :func:`connect`, the one client
  construction path: hand it a service, statistics or ``"host:port"``
  and get an :class:`EstimationClient` back.

Quickstart::

    from repro.service import connect

    with connect(catalog) as client:
        answer = client.estimate("SELECT * FROM sales, customer WHERE ...")
"""

from repro.service.client import (
    EstimationClient,
    InProcessClient,
    SocketClient,
    TransportError,
    connect,
)
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    DeadlineExceeded,
    InvalidRequest,
    Overloaded,
    ServedEstimate,
    ServiceClosed,
    ServiceError,
)
from repro.service.queue import AdmissionQueue
from repro.service.server import (
    EstimationServer,
    ServerHandle,
    run_server,
    start_in_thread,
)
from repro.service.service import EstimationService

__all__ = [
    "AdmissionQueue",
    "DeadlineExceeded",
    "EstimationClient",
    "EstimationServer",
    "EstimationService",
    "InProcessClient",
    "InvalidRequest",
    "Overloaded",
    "ServedEstimate",
    "ServerHandle",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceError",
    "SocketClient",
    "TransportError",
    "connect",
    "run_server",
    "start_in_thread",
]
