"""Request records flowing through the grid application.

A :class:`Request` is created by a client, routed by the request-queue
machine into a per-server-group FIFO, pulled by a server, and answered with
a response transfer back to the client.  Timestamps of each stage stay on
the record so gauges and the experiment harness can derive latency, queue
delay, service delay, and transfer delay without extra bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Request"]


@dataclass
class Request:
    """One client request and its lifecycle timestamps (seconds).

    ``request_size``/``response_size`` are bytes.  The paper's workload:
    requests average 0.5 KB, responses average 20 KB, and "the size of the
    reply is indicated by the client request".
    """

    rid: str
    client: str
    response_size: float
    request_size: float = 512.0
    issued_at: float = 0.0
    group: Optional[str] = None
    enqueued_at: Optional[float] = None
    dequeued_at: Optional[float] = None
    served_by: Optional[str] = None
    service_done_at: Optional[float] = None
    completed_at: Optional[float] = None

    # -- derived metrics ----------------------------------------------------
    @property
    def latency(self) -> Optional[float]:
        """End-to-end latency (issue -> response fully received)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at

    @property
    def completed(self) -> bool:
        return self.completed_at is not None
