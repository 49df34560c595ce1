"""Tests for the sockets-style stream layer over Active Messages."""

import pytest

from repro.am import NameService
from repro.am.endpoint import BLOCK_NS
from repro.cluster import Cluster, ClusterConfig
from repro.lib.streams import SEGMENT_BYTES, stream_connect, stream_listen
from repro.sim import ms, us


def build(n=4, **kw):
    return Cluster(ClusterConfig(num_hosts=n, **kw))


def run_client_server(cluster, server_body, client_body, until_ms=3_000):
    names = NameService()
    listener = cluster.run_process(stream_listen(cluster, 0, "svc", names), "listen")
    st = cluster.node(0).start_process().spawn_thread(
        lambda thr: server_body(thr, listener)
    )
    ct = cluster.node(1).start_process().spawn_thread(
        lambda thr: client_body(thr, names)
    )
    cluster.run(until=cluster.sim.now + ms(until_ms))
    assert st.finished, "server hung"
    assert ct.finished, "client hung"
    return st.result, ct.result


def test_stream_echo_roundtrip():
    cluster = build()

    def server(thr, listener):
        sock = yield from listener.accept(thr, cluster)
        data = yield from sock.recv_exact(thr, 11)
        yield from sock.send(thr, data.upper())
        yield from sock.close(thr)
        return data

    def client(thr, names):
        sock = yield from stream_connect(thr, cluster, 1, "svc", names)
        yield from sock.send(thr, b"hello world")
        reply = yield from sock.recv_exact(thr, 11)
        yield from sock.close(thr)
        return reply

    got, reply = run_client_server(cluster, server, client)
    assert got == b"hello world"
    assert reply == b"HELLO WORLD"


def test_stream_large_transfer_ordered():
    cluster = build()
    total = SEGMENT_BYTES * 5 + 1234
    payload = bytes(i % 251 for i in range(total))

    def server(thr, listener):
        sock = yield from listener.accept(thr, cluster)
        data = yield from sock.recv_exact(thr, total)
        return data

    def client(thr, names):
        sock = yield from stream_connect(thr, cluster, 1, "svc", names)
        yield from sock.send(thr, payload)
        yield from sock.close(thr)
        return sock.bytes_sent

    data, sent = run_client_server(cluster, server, client, until_ms=6_000)
    assert sent == total
    assert data == payload  # byte-exact, in order


def test_stream_close_yields_eof():
    cluster = build()

    def server(thr, listener):
        sock = yield from listener.accept(thr, cluster)
        chunks = []
        while True:
            chunk = yield from sock.recv(thr, 65536)
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)

    def client(thr, names):
        sock = yield from stream_connect(thr, cluster, 1, "svc", names)
        yield from sock.send(thr, b"bye")
        yield from sock.close(thr)
        return None

    data, _ = run_client_server(cluster, server, client)
    assert data == b"bye"


def test_stream_connect_unknown_label():
    cluster = build()
    names = NameService()

    def client(thr):
        try:
            yield from stream_connect(thr, cluster, 1, "ghost", names)
        except ConnectionError:
            return "refused"

    t = cluster.node(1).start_process().spawn_thread(client)
    cluster.run(until=cluster.sim.now + ms(50))
    assert t.result == "refused"


def test_stream_survives_packet_loss():
    cluster = build(packet_loss_prob=0.1, dead_timeout_ms=800.0)
    total = SEGMENT_BYTES * 3
    payload = bytes(i % 256 for i in range(total))

    def server(thr, listener):
        sock = yield from listener.accept(thr, cluster)
        data = yield from sock.recv_exact(thr, total)
        return data

    def client(thr, names):
        sock = yield from stream_connect(thr, cluster, 1, "svc", names)
        yield from sock.send(thr, payload)
        yield from sock.close(thr)
        return None

    data, _ = run_client_server(cluster, server, client, until_ms=10_000)
    assert data == payload


def test_two_concurrent_connections():
    cluster = build(6)
    names = NameService()
    listener = cluster.run_process(stream_listen(cluster, 0, "svc", names), "listen")
    results = {}

    def server(thr):
        socks = []
        for _ in range(2):
            sock = yield from listener.accept(thr, cluster)
            socks.append(sock)
        for i, sock in enumerate(socks):
            data = yield from sock.recv_exact(thr, 4)
            results[f"conn{i}"] = data

    def make_client(node_id, tag):
        def client(thr):
            sock = yield from stream_connect(thr, cluster, node_id, "svc", names)
            yield from sock.send(thr, tag)
            yield from sock.close(thr)

        return client

    cluster.node(0).start_process().spawn_thread(server)
    cluster.node(1).start_process().spawn_thread(make_client(1, b"AAAA"))
    cluster.node(2).start_process().spawn_thread(make_client(2, b"BBBB"))
    cluster.run(until=cluster.sim.now + ms(4_000))
    assert sorted(results.values()) == [b"AAAA", b"BBBB"]


def test_accept_times_out_when_nobody_connects():
    """Listener.accept(timeout_ns=...) gives up by its deadline plus at
    most one poll-then-block wait (spin phase + one BLOCK_NS block)."""
    cluster = build()
    sim = cluster.sim
    names = NameService()
    listener = cluster.run_process(stream_listen(cluster, 0, "svc", names), "listen")
    timeout = ms(5)
    one_wait = us(cluster.cfg.spin_before_block_us) + BLOCK_NS + us(5)

    def server(thr):
        t0 = sim.now
        sock = yield from listener.accept(thr, cluster, timeout_ns=timeout)
        return sock, sim.now - t0

    t = cluster.node(0).start_process().spawn_thread(server)
    cluster.run(until=sim.now + ms(50))
    sock, elapsed = t.result
    assert sock is None
    assert timeout <= elapsed <= timeout + one_wait


def test_close_linger_returns_by_deadline_when_peer_stops_polling():
    """The FIN's credit never comes back from a peer that stopped
    polling, so close returns once its linger deadline has passed (at
    most one poll and one 10 us back-off later)."""
    cluster = build()
    sim = cluster.sim
    linger = ms(4)

    def server(thr, listener):
        yield from listener.accept(thr, cluster)
        return None  # the accepted endpoint is never polled again

    def client(thr, names):
        sock = yield from stream_connect(thr, cluster, 1, "svc", names)
        t0 = sim.now
        yield from sock.close(thr, linger_ns=linger)
        return sock._inflight, sim.now - t0

    _, (inflight, elapsed) = run_client_server(cluster, server, client, until_ms=100)
    assert inflight == 1  # the FIN was never acknowledged
    assert linger <= elapsed <= linger + us(20)
