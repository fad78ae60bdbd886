"""What the serving harnesses share: an owned server and the answer check.

The load generator (:mod:`repro.analysis.loadgen`) and the service
chaos harness (:mod:`repro.analysis.chaos_serve`) both stand up a
server of their own, drive traffic through it, and then judge what came
back against the same oracle. Both halves live here:

* :func:`owned_server` serves a service on a background thread for the
  length of a ``with`` block — TCP on an ephemeral local port, or a Unix
  socket at a given path — and yields a factory for
  :class:`~repro.service.async_client.AsyncServiceClient` connections to
  it. On exit it asks the server to stop and joins the thread.
* :func:`check_served_answers` turns the answers collected per request
  into status counts plus the ``lost``, ``conflicting`` and
  ``divergent`` request ids. The oracle is the same work solved
  directly, with no service in between: every ``ok`` answer must be
  byte-identical to it, wall-clock fields aside.
"""

from __future__ import annotations

import functools
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.exceptions import ReproError
from repro.service.async_client import AsyncServiceClient
from repro.service.batcher import WorkUnit
from repro.service.queue import QueuedRequest
from repro.service.request import SolveRequest, SolveResponse
from repro.service.server import serve_socket
from repro.service.tcp import serve_tcp
from repro.service.worker import run_service_cell_guarded

__all__ = ["ServedAnswerCheck", "check_served_answers", "owned_server"]


@contextmanager
def owned_server(
    service: Any, path: str | None = None
) -> Iterator[Callable[..., AsyncServiceClient]]:
    """Serve ``service`` on a background thread for the ``with`` block.

    Binds TCP on ``127.0.0.1`` at an ephemeral port, or a Unix socket at
    ``path`` when given, and waits until it listens. Yields a factory:
    calling it (with any :class:`AsyncServiceClient` keyword, such as
    ``timeout_s``) opens a fresh connection. On exit a ``shutdown``
    line is sent, best effort, and the server thread joined.
    """
    ready = threading.Event()
    bound: dict[str, int] = {}
    if path is None:
        thread = threading.Thread(
            target=serve_tcp,
            args=(service, "127.0.0.1", 0),
            kwargs={"ready": ready, "on_bound": lambda port: bound.update(port=port)},
            daemon=True,
        )
    else:
        thread = threading.Thread(
            target=serve_socket,
            args=(service, path),
            kwargs={"ready": ready},
            daemon=True,
        )
    thread.start()
    if not ready.wait(timeout=10.0):
        raise ReproError("owned server failed to start")
    endpoint = (
        {"path": path}
        if path is not None
        else {"address": f"127.0.0.1:{bound['port']}"}
    )
    connect = functools.partial(AsyncServiceClient, **endpoint)
    try:
        yield connect
    finally:
        try:
            with connect(timeout_s=10.0) as admin:
                admin.shutdown()
        except ReproError:
            pass  # the server already stopped, or never will: join anyway
        thread.join(timeout=10.0)


@dataclass(frozen=True)
class ServedAnswerCheck:
    """What :func:`check_served_answers` found.

    ``statuses`` counts each answered request's first answer by status.
    ``lost`` ids have no answer; ``conflicting`` ids have answers that
    disagree on payload; ``divergent`` ids were answered ``ok`` with a
    payload that differs from the direct solve. All three are in
    request order.
    """

    statuses: Mapping[str, int]
    lost: tuple[str, ...]
    conflicting: tuple[str, ...]
    divergent: tuple[str, ...]


def _strip_wall_clock(manifest: Mapping[str, Any]) -> dict[str, Any]:
    cleaned = json.loads(json.dumps(dict(manifest)))
    if cleaned:
        cleaned["wall_seconds"] = 0.0
        cleaned.get("timeline_summary", {}).pop("total_wall_ms", None)
    return cleaned


def _payload_signature(
    result: Mapping[str, Any], manifest: Mapping[str, Any], **extra: Any
) -> str:
    """Canonical bytes of an answer's payload, wall-clock fields zeroed.

    Scheduling metadata (``wait_s``, ``batch_index``, ``dedup``) is
    never part of it: a legitimately re-executed request may land in a
    later batch, but its payload must not change.
    """
    return json.dumps(
        {
            **extra,
            "result": dict(result),
            "manifest": _strip_wall_clock(manifest),
        },
        sort_keys=True,
    )


def _direct_signature(request: SolveRequest) -> str:
    """The oracle: the same work solved directly, no service in between."""
    cell = WorkUnit(
        leader=QueuedRequest(request=request, arrival=0.0, seq=0, deadline=None)
    ).cell()
    outcome = run_service_cell_guarded(cell)
    return _payload_signature(
        outcome.get("result", {}), outcome.get("manifest", {})
    )


def check_served_answers(
    requests: Sequence[SolveRequest],
    answers: Mapping[str, Sequence[SolveResponse]],
    check_direct: bool = True,
) -> ServedAnswerCheck:
    """Judge the answers a harness collected for ``requests``.

    ``answers`` maps a request id to every terminal response collected
    for it, first answer first. With ``check_direct`` each distinct
    work key is solved directly once and every ``ok`` first answer is
    compared to that solve byte for byte.
    """
    statuses: dict[str, int] = {}
    lost: list[str] = []
    conflicting: list[str] = []
    divergent: list[str] = []
    oracle: dict[Any, str] = {}
    for request in requests:
        rid = request.request_id
        collected = answers.get(rid, ())
        if not collected:
            lost.append(rid)
            continue
        first = collected[0]
        statuses[first.status] = statuses.get(first.status, 0) + 1
        if len(collected) > 1:
            signatures = {
                _payload_signature(
                    answer.result,
                    answer.manifest,
                    status=answer.status,
                    error=answer.error,
                )
                for answer in collected
            }
            if len(signatures) > 1:
                conflicting.append(rid)
        if check_direct and first.status == "ok":
            key = request.work_key()
            if key not in oracle:
                oracle[key] = _direct_signature(request)
            if _payload_signature(first.result, first.manifest) != oracle[key]:
                divergent.append(rid)
    return ServedAnswerCheck(
        statuses=statuses,
        lost=tuple(lost),
        conflicting=tuple(conflicting),
        divergent=tuple(divergent),
    )
