"""The socket servers, the pipelining client, and the shared transport.

Covers the wire side of serving: the one accept loop behind both
``serve_socket`` and ``serve_tcp`` (concurrent connections, drain,
malformed and over-long frames — each test runs over a Unix path and a
TCP port), the pipelined
:class:`~repro.service.async_client.AsyncServiceClient` (many in-flight
requests, out-of-order completion by request id, composition with
:class:`RetryingServiceClient`), and the
:class:`~repro.service.transport.LineTransport` helper whose framing +
typed-error mapping + poisoning discipline the client builds on.
"""

from __future__ import annotations

import socket
import threading
from functools import partial

import pytest

import repro.service.server as server_module
from repro.exceptions import ReproError
from repro.service import (
    AsyncServiceClient,
    RetryingServiceClient,
    RetryPolicy,
    RouterConfig,
    ServiceRouter,
    SolveService,
    encode_line,
    serve_socket,
    serve_tcp,
)
from repro.service.request import InstanceRecipe, SolveRequest
from repro.service.resilience import (
    FatalServiceError,
    RetriableServiceError,
)
from repro.service.transport import LineTransport, parse_hostport


def make_request(rid: str, seed: int = 1, k: int = 4) -> SolveRequest:
    return SolveRequest(
        request_id=rid,
        recipe=InstanceRecipe("uniform", 6, 15, seed),
        k=k,
    )


def start_server(kind, tmp_path, service, **options):
    """Serve ``service`` on a thread; return a client factory and the thread."""
    ready = threading.Event()
    bound: dict[str, int] = {}
    if kind == "unix":
        path = str(tmp_path / "svc.sock")
        target, args = serve_socket, (service, path)
    else:
        target, args = serve_tcp, (service, "127.0.0.1", 0)
        options["on_bound"] = lambda port: bound.update(port=port)
    thread = threading.Thread(
        target=target, args=args, kwargs={"ready": ready, **options}, daemon=True
    )
    thread.start()
    assert ready.wait(10.0), f"{kind} server failed to start"
    if kind == "unix":
        return partial(AsyncServiceClient, path=path), thread
    return partial(AsyncServiceClient, address=f"127.0.0.1:{bound['port']}"), thread


@pytest.fixture(params=["unix", "tcp"])
def listener(request, tmp_path):
    """Starts a server on a Unix path or a TCP port (one run each)."""
    return partial(start_server, request.param, tmp_path)


@pytest.fixture
def tcp_server(tmp_path):
    """Starts a server on an ephemeral TCP port."""
    return partial(start_server, "tcp", tmp_path)


def stop(connect, thread) -> None:
    with connect() as client:
        client.shutdown()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


class TestServeTcp:
    def test_round_trip_single_service(self, tcp_server):
        connect, thread = tcp_server(SolveService())
        with connect() as client:
            client.submit(make_request("t0"))
            assert client.drain_acks()["t0"] is True
            responses = client.flush()
            assert [r.status for r in responses] == ["ok"]
            assert client.fetch("t0").status == "ok"
        stop(connect, thread)

    def test_router_behind_tcp(self, tcp_server):
        router = ServiceRouter(RouterConfig(num_workers=2))
        connect, thread = tcp_server(router)
        with connect() as client:
            for index in range(4):
                client.submit(make_request(f"r{index}", seed=index % 2))
            assert all(client.drain_acks().values())
            responses = {r.request_id: r for r in client.flush()}
            assert all(r.status == "ok" for r in responses.values())
            assert responses["r2"].dedup and responses["r3"].dedup
            metrics = client.metrics()
            assert metrics["route_workers"] == 2
        stop(connect, thread)

    def test_concurrent_connections(self, listener):
        connect, thread = listener(SolveService())
        # An idle connection must not block another client's traffic.
        idle = connect()
        try:
            with connect() as busy:
                busy.submit(make_request("c0"))
                assert busy.accepted("c0") is None  # pipelined, unread
                assert [r.status for r in busy.flush()] == ["ok"]
                assert busy.accepted("c0") is True
        finally:
            idle.close()
        stop(connect, thread)

    def test_malformed_frame_answers_error_and_survives(self, listener):
        connect, thread = listener(SolveService())
        with connect() as client:
            reply = client.raw_request("this is not json")
            assert reply["type"] == "error"
            # Same connection still works afterwards.
            client.submit(make_request("after-junk"))
            assert client.drain_acks()["after-junk"] is True
            assert [r.status for r in client.flush()] == ["ok"]
        stop(connect, thread)

    def test_over_long_frame_closes_only_its_connection(
        self, listener, monkeypatch
    ):
        request = make_request("still-served")
        limit = len(encode_line(request.to_wire()))  # just fits the solve
        monkeypatch.setattr(server_module, "MAX_FRAME_BYTES", limit)
        connect, thread = listener(SolveService())
        with connect(timeout_s=5.0) as client:
            reply = client.raw_request("x" * (limit + 1))
            assert reply["type"] == "error"
            assert reply["reason"] == "frame_too_large"
            with pytest.raises(RetriableServiceError):
                client.metrics()  # the server closed this connection
        with connect() as other:
            other.submit(request)
            assert [r.status for r in other.flush()] == ["ok"]
        stop(connect, thread)

    def test_drain_signal_stops_the_server(self, listener):
        service = SolveService()
        drain = threading.Event()
        _, thread = listener(service, drain_signal=drain, drain_timeout_s=5.0)
        drain.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert service.draining


class TestAsyncServiceClient:
    def test_pipelined_submits_resolve_out_of_order(self, listener):
        connect, thread = listener(SolveService())
        with connect(max_in_flight=3) as client:
            rids = [f"p{i}" for i in range(6)]
            for index, rid in enumerate(rids):
                client.submit(make_request(rid, seed=index % 2))
            assert client.in_flight <= 3  # the bound drained the rest
            flushed = client.flush()
            assert sorted(r.request_id for r in flushed) == sorted(rids)
            # Collect in reverse submission order: matching is by id.
            for rid in reversed(rids):
                response = client.take_response(rid) or client.fetch(rid)
                assert response is not None and response.status == "ok"
            assert all(client.accepted(rid) for rid in rids)
        stop(connect, thread)

    def test_rejection_reasons_surface_after_drain(self, tcp_server):
        from repro.service import ServiceConfig

        service = SolveService(config=ServiceConfig(max_queue_depth=1))
        connect, thread = tcp_server(service)
        with connect() as client:
            client.submit(make_request("keep", seed=1))
            client.submit(make_request("spill", seed=2))
            acks = client.drain_acks()
            assert acks["keep"] is True
            assert acks["spill"] is False
            assert client.rejection_reason("spill") == "queue_full"
        stop(connect, thread)

    def test_composes_with_retrying_client(self, tcp_server):
        connect, thread = tcp_server(SolveService())
        retrying = RetryingServiceClient(
            connect,
            policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0),
            sleep=lambda _s: None,
        )
        retrying.current.abort()  # simulate a mid-session connection reset
        responses = retrying.solve_many(
            [make_request("retry-0"), make_request("retry-1", seed=2)]
        )
        assert [r.status for r in responses] == ["ok", "ok"]
        assert retrying.stats.reconnects >= 1
        retrying.close()
        stop(connect, thread)

    def test_rejects_bad_construction(self):
        with pytest.raises(ReproError):
            AsyncServiceClient()
        with pytest.raises(ReproError):
            AsyncServiceClient(address="127.0.0.1:1", max_in_flight=0)


class TestParseHostport:
    def test_parses_host_and_port(self):
        assert parse_hostport("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_hostport("example.org:80") == ("example.org", 80)

    def test_strips_ipv6_brackets(self):
        assert parse_hostport("[::1]:9000") == ("::1", 9000)

    def test_rejects_junk(self):
        for bad in ("no-port", ":9000", "host:", "host:not-a-port", "host:70000"):
            with pytest.raises(ReproError):
                parse_hostport(bad)


class TestLineTransport:
    """Unit coverage of the shared frame/error/poisoning helper."""

    def make_pair(self, timeout_s: float = 0.5):
        ours, theirs = socket.socketpair()
        return LineTransport(ours, timeout_s, peer="test-peer"), theirs

    def test_round_trip_and_raw_newline(self):
        transport, peer = self.make_pair()
        transport.send_payload({"type": "ping"})
        assert peer.recv(1024) == b'{"type":"ping"}\n'
        transport.send_raw("no-newline")  # appended automatically
        assert peer.recv(1024) == b"no-newline\n"
        peer.sendall(b'{"type":"pong"}\n')
        assert transport.recv_payload() == {"type": "pong"}
        transport.close()
        peer.close()

    def test_recv_timeout_poisons_the_connection(self):
        transport, peer = self.make_pair(timeout_s=0.1)
        with pytest.raises(RetriableServiceError):
            transport.recv_payload()  # nothing sent: timeout
        assert transport.broken
        with pytest.raises(FatalServiceError):
            transport.send_payload({"type": "ping"})
        with pytest.raises(FatalServiceError):
            transport.recv_payload()
        transport.close()
        peer.close()

    def test_peer_close_is_retriable(self):
        transport, peer = self.make_pair()
        peer.close()
        with pytest.raises(RetriableServiceError):
            transport.recv_payload()
        assert transport.broken
        transport.close()

    def test_pipelined_lines_survive_interleaved_writes(self):
        # The regression that motivated split reader/writer streams: a
        # combined "rw" makefile dropped buffered read data on write.
        transport, peer = self.make_pair()
        peer.sendall(b'{"n":1}\n{"n":2}\n{"n":3}\n')
        assert transport.recv_payload() == {"n": 1}
        transport.send_payload({"type": "interleaved-write"})
        assert transport.recv_payload() == {"n": 2}
        assert transport.recv_payload() == {"n": 3}
        transport.close()
        peer.close()

    def test_abort_then_recv_is_retriable(self):
        transport, peer = self.make_pair()
        transport.abort()
        with pytest.raises(RetriableServiceError):
            transport.recv_payload()
        assert transport.broken
        transport.close()
        peer.close()

    def test_junk_line_raises_repro_error(self):
        transport, peer = self.make_pair()
        peer.sendall(b"not json\n")
        with pytest.raises(ReproError):
            transport.recv_payload()
        transport.close()
        peer.close()

    def test_close_is_idempotent_and_silent(self):
        transport, peer = self.make_pair()
        transport.close()
        transport.close()
        peer.close()
