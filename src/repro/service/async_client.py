"""The socket client: many in-flight requests on one connection.

:class:`AsyncServiceClient` is the one client for ``repro serve
--socket`` and ``repro serve --tcp``. A client that round-trips every
submit caps a connection's throughput at ``1 / RTT`` however fast the
server is; this one *pipelines*: :meth:`~AsyncServiceClient.submit`
writes the solve line and returns without reading the ack, and acks are
collected lazily (matched by ``request_id``) the next time the client
reads — on :meth:`~AsyncServiceClient.drain_acks`,
:meth:`~AsyncServiceClient.flush`, :meth:`~AsyncServiceClient.fetch`
or any other verb. A caller that needs the verdict before going on
calls ``drain_acks()`` right after ``submit``.

The protocol makes this safe: the server answers lines strictly in the
order it received them, so the reply stream is acks for the pipelined
submits followed by whatever the next verb's replies are. Completion is
matched by ``request_id``, never by position — ``flush`` files every
response into a per-id map (:meth:`~AsyncServiceClient.take_response`),
so interleaved waves of submits resolve correctly in any order.

``max_in_flight`` bounds the number of unread acks: the server writes
each ack immediately, so a client that pipelined unboundedly without
reading would fill both socket buffers and deadlock against its own
submit. The bound drains the oldest ack before a submit past the limit.

Transport failures surface as the typed taxonomy of
:mod:`repro.service.resilience` through the shared
:class:`~repro.service.transport.LineTransport`: a timeout, reset or
server EOF raises :class:`~repro.service.resilience.RetriableServiceError`
and poisons the connection, after which every call raises
:class:`~repro.service.resilience.FatalServiceError`. The ``submit`` /
``flush`` / ``fetch`` / ``close`` verbs match
:class:`~repro.service.client.ServiceClient`, so
:class:`~repro.service.resilience.RetryingServiceClient` wraps either
for retry, backoff and reconnect.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import ReproError
from repro.obs.spans import Tracer
from repro.service.client import _stamp_trace
from repro.service.request import SolveRequest, SolveResponse
from repro.service.transport import (
    LineTransport,
    connect_tcp,
    connect_unix,
    parse_hostport,
)

__all__ = ["AsyncServiceClient"]


class AsyncServiceClient:
    """Pipelined line-protocol client over TCP or a Unix socket.

    Parameters
    ----------
    address:
        ``HOST:PORT`` of a ``repro serve --tcp`` front end (or pass
        ``host``/``port`` separately).
    path:
        Alternatively, the path of a ``repro serve --socket`` server —
        pipelining is a property of the protocol, not of TCP.
    timeout_s:
        Per-read/write transport timeout.
    max_in_flight:
        Bound on unread acks before :meth:`submit` drains the oldest
        (see the module docstring for why unbounded pipelining would
        deadlock).
    tracer:
        When given, submitted requests are stamped with the tracer's
        current span context (the ``trace`` wire field), so a tracing
        server parents its spans under the caller's span.

    Usable as a context manager. Typical session::

        with AsyncServiceClient(address="127.0.0.1:9000") as client:
            for request in requests:         # no round trips here
                client.submit(request)
            responses = client.flush()       # acks + responses resolved
            by_id = {r.request_id: r for r in responses}
    """

    def __init__(
        self,
        address: str | None = None,
        host: str | None = None,
        port: int | None = None,
        path: str | None = None,
        timeout_s: float = 30.0,
        max_in_flight: int = 64,
        tracer: Tracer | None = None,
    ) -> None:
        if max_in_flight < 1:
            raise ReproError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        if address is not None:
            host, port = parse_hostport(address)
        self.timeout_s = float(timeout_s)
        self.max_in_flight = int(max_in_flight)
        self.tracer = tracer
        self._transport: LineTransport
        if path is not None:
            self._transport = connect_unix(str(path), self.timeout_s)
        elif host is not None and port is not None:
            self._transport = connect_tcp(host, int(port), self.timeout_s)
        else:
            raise ReproError(
                "AsyncServiceClient needs address='HOST:PORT', "
                "host and port, or path=<unix socket>"
            )
        #: Submitted ids whose acks have not been read yet, oldest first.
        self._awaiting_acks: list[str] = []
        #: Ack outcomes seen so far: request_id -> accepted bool.
        self._acks: dict[str, bool] = {}
        #: Rejection reasons for refused submits: request_id -> reason.
        self._rejections: dict[str, str] = {}
        #: Responses collected by flushes, keyed by request_id.
        self._responses: dict[str, SolveResponse] = {}

    # ------------------------------------------------------------------
    # Lifecycle

    def __enter__(self) -> "AsyncServiceClient":
        """Context-manager entry; the connection is already open."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: drop the connection."""
        self.close()

    def close(self) -> None:
        """Drop the connection (the server keeps serving others)."""
        self._transport.close()

    def abort(self) -> None:
        """Sever the transport abruptly — the chaos/reset simulation hook.

        The next operation fails with a
        :class:`~repro.service.resilience.RetriableServiceError`, which
        is what a mid-session connection reset looks like to a caller.
        """
        self._transport.abort()

    def raw_request(self, line: str) -> dict[str, Any]:
        """Send one raw line (no codec) and decode its reply.

        The chaos hook for malformed frames through a live connection.
        Pending acks are drained first so the reply read is this
        line's; the newline is appended when missing.
        """
        self.drain_acks()
        self._transport.send_raw(line)
        return self._transport.recv_payload()

    # ------------------------------------------------------------------
    # Pipelined submission

    @property
    def in_flight(self) -> int:
        """Pipelined submits whose acks have not been read yet."""
        return len(self._awaiting_acks)

    def _read_one_ack(self) -> None:
        """Read the oldest pending ack off the wire and file it."""
        expected = self._awaiting_acks.pop(0)
        payload = self._transport.recv_payload()
        if payload.get("type") != "ack":
            raise ReproError(
                f"protocol desync: expected ack for {expected!r}, "
                f"got {payload.get('type')!r}"
            )
        request_id = str(payload.get("request_id", expected))
        accepted = bool(payload.get("accepted", False))
        self._acks[request_id] = accepted
        if not accepted:
            self._rejections[request_id] = str(payload.get("reason", ""))

    def drain_acks(self) -> dict[str, bool]:
        """Read every pending ack; the full id → accepted map so far.

        Called implicitly by :meth:`flush`, :meth:`fetch`,
        :meth:`metrics` and :meth:`shutdown` — any verb that must read a
        non-ack reply first consumes the acks queued ahead of it.
        """
        while self._awaiting_acks:
            self._read_one_ack()
        return dict(self._acks)

    def submit(self, request: SolveRequest) -> bool:
        """Pipeline one solve request without waiting for its ack.

        Returns ``True``, meaning *pipelined* — admission is not known
        yet. The verdict lands in :meth:`accepted` /
        :meth:`rejection_reason` once acks are drained. When the
        in-flight bound is reached, the oldest ack is drained first, so
        a long submission loop self-regulates instead of deadlocking.
        """
        if self.tracer is not None:
            request = _stamp_trace(request, self.tracer)
        while len(self._awaiting_acks) >= self.max_in_flight:
            self._read_one_ack()
        self._transport.send_payload(request.to_wire())
        self._awaiting_acks.append(request.request_id)
        return True

    def accepted(self, request_id: str) -> bool | None:
        """Ack outcome for a submit: True/False, or None while unread."""
        return self._acks.get(request_id)

    def rejection_reason(self, request_id: str) -> str:
        """Server's rejection reason for a refused submit ("" if none)."""
        return self._rejections.get(request_id, "")

    # ------------------------------------------------------------------
    # Completion

    def flush(self) -> list[SolveResponse]:
        """Drain acks, flush the server, collect this wave's responses.

        Responses are returned in the server's completion order *and*
        filed by ``request_id`` for :meth:`take_response`, so
        out-of-order collection works no matter how submission and
        completion orders differ.
        """
        self.drain_acks()
        self._transport.send_payload({"type": "flush"})
        responses: list[SolveResponse] = []
        while True:
            payload = self._transport.recv_payload()
            if payload.get("type") == "flush_done":
                break
            response = SolveResponse.from_wire(payload)
            responses.append(response)
            self._responses[response.request_id] = response
        return responses

    def take_response(self, request_id: str) -> SolveResponse | None:
        """Pop a response collected by an earlier :meth:`flush`.

        Purely local — no wire traffic. ``None`` when no flush has
        delivered that id yet (use :meth:`fetch` to ask the server).
        """
        return self._responses.pop(request_id, None)

    def fetch(self, request_id: str) -> SolveResponse | None:
        """Fetch a retained response from the server by id.

        Checks the locally collected responses first; otherwise drains
        pending acks and round-trips a ``fetch`` line. ``None`` when the
        server does not retain the id.
        """
        local = self.take_response(request_id)
        if local is not None:
            return local
        self.drain_acks()
        self._transport.send_payload(
            {"type": "fetch", "request_id": request_id}
        )
        payload = self._transport.recv_payload()
        if payload.get("type") == "error":
            return None
        return SolveResponse.from_wire(payload)

    # ------------------------------------------------------------------
    # Service control

    def metrics(self) -> dict[str, Any]:
        """The server's flat metrics summary (drains acks first)."""
        self.drain_acks()
        self._transport.send_payload({"type": "metrics"})
        payload = self._transport.recv_payload()
        return dict(payload.get("metrics", {}))

    def shutdown(self) -> None:
        """Ask the server process to stop accepting and exit."""
        self.drain_acks()
        self._transport.send_payload({"type": "shutdown"})
        self._transport.recv_payload()  # the "bye" line
