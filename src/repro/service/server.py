"""The line protocol and the one server that speaks it.

Every transport speaks the same line protocol: each input line is one
JSON object (the codec lives in :mod:`repro.service.transport`), and
every line produces at least one reply line, so clients are plain
request/response loops.

=================== ==================================================
input line          reply line(s)
=================== ==================================================
``{"type":"solve"}`` one ``ack`` line (``accepted`` true/false)
``{"type":"flush"}`` one ``response`` line per completed request, in
                    arrival order, then ``flush_done`` with the count
``{"type":"fetch"}`` the retained ``response`` line, or an ``error``
``{"type":"metrics"}`` one ``metrics`` line (the flat summary dict;
                    with ``"full": true`` the line also carries the
                    complete registry ``snapshot`` payload)
``{"type":"drain"}`` graceful shutdown: one ``response`` line per
                    flushed or drain-rejected request, then
                    ``drain_done`` with the count; the server then
                    stops (``timeout_s`` bounds the flush)
``{"type":"shutdown"}`` one ``bye`` line; the server then stops
=================== ==================================================

A line longer than :data:`MAX_FRAME_BYTES` is answered with an
``error`` line (``reason: "frame_too_large"``) and ends its stream: the
reader cannot resync in the middle of a line.

``repro serve`` (see :mod:`repro.cli`) reads stdin and writes stdout by
default (:func:`serve_jsonl`). With ``--socket PATH`` it binds a Unix
domain socket (:func:`serve_socket`), and with ``--tcp HOST:PORT`` a TCP
socket (:func:`~repro.service.tcp.serve_tcp`). Both socket servers only
bind, then share one accept loop: each connection gets its own reader
thread, and one lock serializes protocol handling, so interleaved
connections are equivalent to some sequential order of their lines,
which is all the protocol promises. Every stream, stdin included, runs
the same per-line loop (decode, :meth:`ServiceProtocol.handle`, write,
one ``flush()`` per input line). Batching still happens inside the
shared :class:`~repro.service.service.SolveService`: a ``flush`` after
many ``solve`` lines executes them as deduplicated batches. On stdin
EOF any still-queued work is flushed implicitly so piped workloads
cannot lose requests.
"""

from __future__ import annotations

import socket
import threading
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Mapping

from repro.exceptions import ReproError
from repro.obs.metrics_io import snapshot_payload
from repro.service.request import SolveRequest
from repro.service.service import SolveService
from repro.service.store import StoreMiss
from repro.service.transport import decode_line, encode_line

__all__ = ["MAX_FRAME_BYTES", "ServiceProtocol", "serve_jsonl", "serve_socket"]

#: Longest accepted input line, newline excluded, counted in decoded
#: characters (equal to bytes for the ASCII JSON :func:`encode_line`
#: writes). Far above any frame the repo's clients send, inline
#: instances included; a longer line gets a ``frame_too_large`` error
#: and its stream is closed.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ServiceProtocol:
    """Maps one decoded input payload to its reply payloads.

    Transport-independent: every stream feeds decoded lines through
    :meth:`handle` and writes back whatever it yields. ``shutting_down``
    flips once a ``shutdown`` or ``drain`` payload is seen; the line
    loop checks it after each line and the accept loop between
    accepts.
    """

    def __init__(self, service: SolveService) -> None:
        self.service = service
        self.shutting_down = False

    def handle(self, payload: Mapping[str, Any]) -> Iterator[dict[str, Any]]:
        """Yield the reply payloads for one input payload."""
        kind = payload.get("type", "solve")
        if kind == "solve":
            yield self._handle_solve(payload)
        elif kind == "flush":
            responses = self.service.run_until_drained()
            for response in responses:
                yield response.to_wire()
            yield {"type": "flush_done", "count": len(responses)}
        elif kind == "fetch":
            request_id = str(payload.get("request_id", ""))
            found = self.service.lookup(request_id)
            if isinstance(found, StoreMiss):
                yield {
                    "type": "error",
                    "error": (
                        f"no retained response for {request_id!r} "
                        f"({found.reason})"
                    ),
                    "reason": found.reason,
                }
            else:
                yield found.to_wire()
        elif kind == "metrics":
            if payload.get("full"):
                yield {
                    "type": "metrics",
                    "metrics": self.service.metrics_summary(),
                    "snapshot": snapshot_payload(self.service.registry),
                }
            else:
                yield {
                    "type": "metrics",
                    "metrics": self.service.metrics_summary(),
                }
        elif kind == "drain":
            timeout = payload.get("timeout_s")
            responses = self.service.shutdown(
                drain=True,
                drain_timeout_s=float(timeout) if timeout is not None else None,
            )
            for response in responses:
                yield response.to_wire()
            yield {"type": "drain_done", "count": len(responses)}
            self.shutting_down = True
        elif kind == "shutdown":
            self.shutting_down = True
            yield {"type": "bye"}
        else:
            yield {"type": "error", "error": f"unknown line type {kind!r}"}

    def _handle_solve(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        try:
            request = SolveRequest.from_wire(payload)
        except (ReproError, KeyError, TypeError, ValueError) as error:
            return {
                "type": "ack",
                "request_id": str(payload.get("request_id", "")),
                "accepted": False,
                "reason": f"malformed request: {error}",
            }
        outcome = self.service.submit(request)
        ack: dict[str, Any] = {
            "type": "ack",
            "request_id": request.request_id,
            "accepted": outcome.accepted,
        }
        if not outcome.accepted:
            ack["reason"] = outcome.reason
        return ack


def _serve_lines(
    reader: IO[str],
    writer: IO[str],
    protocol: ServiceProtocol,
    lock: Any,
    stop: Callable[[], bool] = lambda: False,
) -> int:
    """The per-stream line loop: decode, handle, write, flush.

    Frames are decoded outside ``lock`` and handled inside it. Replies
    go to the buffered ``writer`` with one ``flush()`` per input line.
    Stops at EOF, after a ``shutdown``/``drain`` line, when ``stop()``
    turns true before a line is handled, or after answering an
    over-long line. Returns the number of lines served.
    """
    served = 0
    for line in iter(lambda: reader.readline(MAX_FRAME_BYTES + 1), ""):
        if stop():
            break
        if len(line) > MAX_FRAME_BYTES and not line.endswith("\n"):
            writer.write(
                encode_line(
                    {
                        "type": "error",
                        "error": f"frame exceeds {MAX_FRAME_BYTES} bytes",
                        "reason": "frame_too_large",
                    }
                )
            )
            writer.flush()
            break
        if not line.strip():
            continue
        try:
            payload = decode_line(line)
        except ReproError as error:
            replies = [{"type": "error", "error": str(error)}]
        else:
            with lock:
                replies = list(protocol.handle(payload))
        for reply in replies:
            writer.write(encode_line(reply))
        writer.flush()
        served += 1
        if protocol.shutting_down:
            break
    return served


def serve_jsonl(
    service: SolveService,
    stream_in: IO[str],
    stream_out: IO[str],
    emit_metrics: bool = False,
    drain_signal: Any | None = None,
    drain_timeout_s: float | None = None,
) -> int:
    """Serve the line protocol over text streams until EOF or shutdown.

    On EOF, queued work is flushed implicitly (response lines plus the
    ``flush_done`` marker) so ``cat requests.jsonl | repro serve`` always
    answers everything it admitted; ``emit_metrics`` appends one final
    ``metrics`` line. ``drain_signal`` — any object with ``is_set()``,
    e.g. a ``threading.Event`` flipped by a SIGTERM handler — triggers a
    graceful drain when observed between lines: admission stops, queued
    work flushes for up to ``drain_timeout_s`` seconds, the remainder is
    answered ``status="draining"``, and the loop exits. Returns the
    number of lines served.
    """
    protocol = ServiceProtocol(service)

    def drain_requested() -> bool:
        return drain_signal is not None and drain_signal.is_set()

    served = _serve_lines(
        stream_in, stream_out, protocol, threading.Lock(), drain_requested
    )
    tail: list[dict[str, Any]] = []
    if drain_requested() and not protocol.shutting_down:
        drain_payload: dict[str, Any] = {"type": "drain"}
        if drain_timeout_s is not None:
            drain_payload["timeout_s"] = drain_timeout_s
        tail.append(drain_payload)
    elif not protocol.shutting_down and service.pending:
        tail.append({"type": "flush"})
    if emit_metrics:
        tail.append({"type": "metrics"})
    for payload in tail:
        for reply in protocol.handle(payload):
            stream_out.write(encode_line(reply))
    stream_out.flush()
    return served


def _serve_connection(
    conn: socket.socket, protocol: ServiceProtocol, lock: threading.Lock
) -> None:
    """Serve one accepted connection until EOF, shutdown, or failure."""
    try:
        # Separate reader/writer streams: a combined "rw" makefile drops
        # its read-ahead buffer on write, which would lose pipelined
        # lines that arrived while a reply was being written.
        with conn, conn.makefile(
            "r", encoding="utf-8", newline="\n"
        ) as reader, conn.makefile(
            "w", encoding="utf-8", newline="\n"
        ) as writer:
            _serve_lines(reader, writer, protocol, lock)
    except (OSError, ValueError):
        # A dropped/reset/half-closed client connection is the client's
        # failure, not the server's: keep serving the rest.
        pass


def _serve_listener(
    service: Any,
    listener: socket.socket,
    ready: Any | None,
    drain_signal: Any | None,
    drain_timeout_s: float | None,
) -> int:
    """The accept loop shared by the Unix and TCP servers.

    ``listener`` is bound and listening. Each accepted connection gets
    a daemon reader thread; one lock serializes protocol handling. The
    loop polls between accepts, so a ``shutdown``/``drain`` line handled
    on any connection and a set ``drain_signal`` are both noticed
    promptly; the latter drains the service (bounded by
    ``drain_timeout_s``) before the loop exits. Returns the number of
    connections served.
    """
    protocol = ServiceProtocol(service)
    lock = threading.Lock()
    connections = 0
    threads: list[threading.Thread] = []
    listener.settimeout(0.25)
    if ready is not None:
        ready.set()
    while not protocol.shutting_down:
        if drain_signal is not None and drain_signal.is_set():
            with lock:
                service.shutdown(drain=True, drain_timeout_s=drain_timeout_s)
            break
        try:
            conn, _ = listener.accept()
        except socket.timeout:
            continue
        except OSError:
            break
        connections += 1
        thread = threading.Thread(
            target=_serve_connection,
            args=(conn, protocol, lock),
            daemon=True,
            name=f"repro-serve-{connections}",
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        # Bounded join: an idle client blocked in readline must not pin
        # the server's exit; the threads are daemons either way.
        thread.join(timeout=1.0)
    return connections


def serve_socket(
    service: Any,
    path: str | Path,
    ready: Any | None = None,
    drain_signal: Any | None = None,
    drain_timeout_s: float | None = None,
) -> int:
    """Serve the line protocol on a Unix domain socket at ``path``.

    A stale file at ``path`` is unlinked before binding and the socket
    file is removed on exit. Connections are served concurrently, one
    reader thread each; state (queue, store, metrics) is shared, so a
    client may submit, disconnect, and re-fetch later within the result
    TTL. ``ready`` (an object with ``set()``, e.g. a
    ``threading.Event``) is signalled once the socket is listening. A
    connection that resets, half-sends a frame, or vanishes mid-reply
    ends only that connection. A ``shutdown`` or ``drain`` line, or a
    set ``drain_signal`` (drained within ``drain_timeout_s``), stops
    the server. Returns the number of connections served.
    """
    socket_path = Path(path)
    socket_path.unlink(missing_ok=True)
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as listener:
            listener.bind(str(socket_path))
            listener.listen(16)
            return _serve_listener(
                service, listener, ready, drain_signal, drain_timeout_s
            )
    finally:
        socket_path.unlink(missing_ok=True)
