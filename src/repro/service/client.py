"""The in-process client of the solve service, plus the wire codec.

:class:`ServiceClient` wraps an in-process
:class:`~repro.service.service.SolveService`; tests, examples and the
chaos harness use it. It shares one mental model with the socket client
:class:`~repro.service.async_client.AsyncServiceClient` — submit
requests, flush, collect responses by request id — so
:class:`~repro.service.resilience.RetryingServiceClient` wraps either.

The codec pair :func:`encode_line` / :func:`decode_line` (re-exported
from :mod:`repro.service.transport`) defines the wire format: one
compact, key-sorted JSON object per line. Key sorting makes encoded
bytes deterministic, which the equivalence tests rely on when diffing
served against direct results.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable

from repro.obs.spans import Tracer
from repro.service.request import SolveRequest, SolveResponse
from repro.service.service import SolveService
from repro.service.transport import decode_line, encode_line

__all__ = ["ServiceClient", "decode_line", "encode_line"]


def _stamp_trace(request: SolveRequest, tracer: Tracer) -> SolveRequest:
    """Return ``request`` carrying the tracer's current span context.

    Requests that already carry a ``trace_ctx`` keep it — the caller's
    causal chain wins over the client's session span.
    """
    if request.trace_ctx is not None:
        return request
    context = tracer.current_context()
    if context is None:
        return request
    return dataclasses.replace(request, trace_ctx=context)


class ServiceClient:
    """In-process convenience wrapper around a :class:`SolveService`.

    ``tracer``, when given, makes each :meth:`solve_many` call a
    ``client.session`` root span and stamps its context onto every
    submitted request (unless the request already carries one), so the
    whole pipeline — queue, batch, worker, simulator rounds — hangs off
    one connected trace tree.
    """

    def __init__(
        self,
        service: SolveService | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.service = service if service is not None else SolveService()
        self.tracer = tracer

    def submit(self, request: SolveRequest) -> bool:
        """Offer one request; True when admitted."""
        return self.service.submit(request).accepted

    def flush(self) -> list[SolveResponse]:
        """Process every queued request; responses in arrival order."""
        return self.service.run_until_drained()

    def fetch(self, request_id: str) -> SolveResponse | None:
        """Retained response for ``request_id``, or ``None``."""
        return self.service.fetch(request_id)

    def metrics(self) -> dict[str, Any]:
        """The service's flat metrics summary."""
        return self.service.metrics_summary()

    def solve(self, request: SolveRequest) -> SolveResponse:
        """Submit one request and drive it to completion."""
        return self.solve_many([request])[0]

    def solve_many(self, requests: Iterable[SolveRequest]) -> list[SolveResponse]:
        """Submit a batch and drive it to completion.

        Responses come back in submission order; rejected requests are
        answered in place (``status="rejected"``) rather than raising,
        so one overloaded moment doesn't discard the whole batch.
        """
        submitted = list(requests)
        if self.tracer is not None:
            with self.tracer.span(
                "client.session", requests=len(submitted)
            ):
                submitted = [
                    _stamp_trace(request, self.tracer)
                    for request in submitted
                ]
                for request in submitted:
                    self.service.submit(request)
                self.service.run_until_drained()
        else:
            for request in submitted:
                self.service.submit(request)
            self.service.run_until_drained()
        out: list[SolveResponse] = []
        for request in submitted:
            response = self.service.fetch(request.request_id)
            if response is None:  # store evicted it already: tiny TTLs only
                response = SolveResponse(
                    request_id=request.request_id,
                    status="error",
                    error="response evicted before fetch",
                )
            out.append(response)
        return out
