"""Branch prediction as a service.

The serving subsystem turns the offline simulation stack into an online
scoring service:

* :mod:`repro.serve.protocol` — the length-prefixed binary wire format
  (frames carrying YPTRACE2 branch records, prediction bytes, JSON control
  payloads and typed errors), whose per-frame session ids multiplex
  thousands of logical sessions over one connection;
* :mod:`repro.serve.server` — the asyncio server: logical predictor
  sessions resolved through the spec registry and
  :mod:`repro.sim.backend`, with a server-wide score loop that *fuses*
  batches from all sessions sharing a (spec, backend) pair into single
  vector-kernel calls per tick, read timeouts, frame/connection/session
  limits, graceful drain, and a built-in stats frame;
* :mod:`repro.serve.supervisor` — a pre-fork worker pool sharing one
  listen port via ``SO_REUSEPORT`` (inherited-socket fallback), with
  SIGTERM-drains-everything semantics and an aggregated-stats endpoint;
* :mod:`repro.serve.client` — the asyncio :class:`MuxPredictionClient`
  and :class:`PredictionClient`, its blocking single-session wrapper;
* :mod:`repro.serve.loadgen` — a concurrent-session load generator and the
  ``repro bench-serve`` benchmark harness.

Served predictions are bit-exact against the offline engine for every
scheme and any interleaving: each session's predictor state lives
namespaced inside a :class:`repro.sim.streaming.MultiSessionScorer`, so
fused replay is the same computation the batch sweep performs.  See
``docs/serving.md`` for the protocol specification and scaling recipe.
"""

from repro.serve.client import MuxPredictionClient, PredictionClient, PredictionResult
from repro.serve.server import PredictionServer, ServeStats, ServerConfig
from repro.serve.supervisor import Supervisor

__all__ = [
    "MuxPredictionClient",
    "PredictionClient",
    "PredictionResult",
    "PredictionServer",
    "ServeStats",
    "ServerConfig",
    "Supervisor",
]
