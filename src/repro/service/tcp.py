"""TCP front end of the serving layer: many connections, one service.

``repro serve --tcp HOST:PORT`` binds this server. It speaks exactly
the line protocol of :mod:`repro.service.server` and runs the same
accept loop as :func:`~repro.service.server.serve_socket`: one reader
thread per connection, one lock around protocol handling, the same
drain and shutdown lifecycle. The service behind it may be a single
:class:`~repro.service.service.SolveService` or (with
``--service-workers K``) a :class:`~repro.service.router.ServiceRouter`
fronting K workers; the transport cannot tell the difference.
"""

from __future__ import annotations

import socket
from typing import Any, Callable

from repro.exceptions import ReproError
from repro.service.server import _serve_listener

__all__ = ["serve_tcp"]


def serve_tcp(
    service: Any,
    host: str,
    port: int,
    ready: Any | None = None,
    on_bound: Callable[[int], None] | None = None,
    drain_signal: Any | None = None,
    drain_timeout_s: float | None = None,
) -> int:
    """Serve the line protocol on a TCP socket, one thread per connection.

    ``service`` is anything exposing the
    :class:`~repro.service.service.SolveService` surface — including a
    :class:`~repro.service.router.ServiceRouter`. ``port=0`` binds an
    ephemeral port; ``on_bound``, when given, is called with the actual
    port before the first accept (how tests and the CLI learn the
    address), and ``ready`` (an object with ``set()``, e.g. a
    ``threading.Event``) is signalled once the socket is listening.
    ``drain_signal`` and ``drain_timeout_s`` work as for
    :func:`~repro.service.server.serve_socket`. Returns the number of
    connections served.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((host, int(port)))
        except OSError as error:
            raise ReproError(
                f"cannot bind TCP server to {host}:{port}: {error}"
            ) from error
        listener.listen(16)
        if on_bound is not None:
            on_bound(listener.getsockname()[1])
        return _serve_listener(
            service, listener, ready, drain_signal, drain_timeout_s
        )
