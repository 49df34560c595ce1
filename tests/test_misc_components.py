"""Tests for the smaller components: NameService, UserProcess, clocks, meters."""

import pytest

from repro.am import NameService, new_endpoint
from repro.cluster import Cluster, ClusterConfig
from repro.nic import LamportClock, Residency
from repro.sim import ms


# -------------------------------------------------------------- NameService
def test_nameservice_register_lookup():
    ns = NameService()
    ns.register("fileserver", (3, 7), key=123)
    assert ns.lookup("fileserver") == ((3, 7), 123)
    assert ns.lookup("nothing") is None
    assert ns.labels() == ["fileserver"]


def test_nameservice_duplicate_rejected():
    ns = NameService()
    ns.register("x", (0, 1), 1)
    with pytest.raises(ValueError):
        ns.register("x", (0, 2), 2)
    ns.unregister("x")
    ns.register("x", (0, 2), 2)  # fine after unregister


def test_nameservice_rendezvous_end_to_end():
    """Names are opaque and obtainable by any rendezvous mechanism (§3.1)."""
    cluster = Cluster(ClusterConfig(num_hosts=2))
    ns = NameService()
    server_ep = cluster.run_process(new_endpoint(cluster.node(0), rngs=cluster.rngs), "s")
    ns.register("service", server_ep.name, server_ep.tag)
    client_ep = cluster.run_process(new_endpoint(cluster.node(1), rngs=cluster.rngs), "c")
    name, key = ns.lookup("service")
    client_ep.map(0, name, key)
    got = []

    def client(thr):
        yield from client_ep.request(thr, 0, lambda tok: got.append(1))
        for _ in range(3000):
            yield from client_ep.poll(thr)
            if client_ep.credits_available(0) == cluster.cfg.user_credits:
                break
            yield from thr.compute(2_000)

    def server(thr):
        while not got:
            yield from server_ep.poll(thr)
            yield from thr.compute(2_000)

    cluster.node(0).start_process().spawn_thread(server)
    cluster.node(1).start_process().spawn_thread(client)
    cluster.run(until=cluster.sim.now + ms(200))
    assert got == [1]


# -------------------------------------------------------------- UserProcess
def test_process_terminate_frees_endpoints():
    """Process termination releases endpoint segments (Section 4.2)."""
    cluster = Cluster(ClusterConfig(num_hosts=2))
    node = cluster.node(0)
    proc = node.start_process("app")
    ep = cluster.run_process(new_endpoint(node, rngs=cluster.rngs), "e")
    proc.adopt_endpoint(ep.state)

    def worker(thr):
        while True:
            yield from thr.sleep(ms(1))

    proc.spawn_thread(worker)
    cluster.run(until=cluster.sim.now + ms(5))
    cluster.run_process(proc.terminate(), "term")
    assert proc.terminated
    assert ep.state.residency is Residency.FREED
    assert ep.state.ep_id not in node.nic.endpoints
    with pytest.raises(RuntimeError):
        proc.spawn_thread(worker)


# ------------------------------------------------------------ Lamport clock
def test_lamport_clock_semantics():
    a, b = LamportClock(), LamportClock()
    t1 = a.tick()
    t2 = a.tick()
    assert t2 == t1 + 1
    t3 = b.observe(t2)
    assert t3 > t2  # receive moves past the sender's stamp
    a.observe(t3)
    assert a.time > t3 - 1


def test_lamport_clock_orders_driver_nic_events():
    """Driver op clocks strictly increase across a request/notify cycle."""
    cluster = Cluster(ClusterConfig(num_hosts=2))
    nic = cluster.node(0).nic
    stamps = [nic.clock.tick() for _ in range(3)]
    assert stamps == sorted(stamps)
    merged = nic.clock.observe(stamps[-1] + 10)
    assert merged == stamps[-1] + 11


def test_nic_merges_the_driver_stamp_of_a_driver_op():
    """An op arrives stamped by the driver's clock; the NI must merge that
    stamp, not one of its own (section 4.3's logical clocks)."""
    cluster = Cluster(ClusterConfig(num_hosts=2))
    node = cluster.node(0)
    node.driver.clock.time = 1000
    cluster.run_process(node.driver.alloc_endpoint(tag=1), "alloc")
    assert node.driver.clock.time == 1001  # the alloc op carried 1001
    assert node.nic.clock.time > 1001


# ------------------------------------------------------- endpoint state misc
def test_endpoint_state_counts_and_repr():
    from repro.nic.endpoint_state import EndpointState, EndpointTable

    ep = EndpointState(0, 1, send_ring_depth=4, recv_queue_depth=2, tag=9,
                       table=EndpointTable())
    assert ep.send_ring_free() == 4
    assert ep.recv_room(False) and ep.recv_room(True)
    assert ep.total_queued() == 0
    assert "EP (0,1)" in repr(ep)
    ep.bulk_reserved_req = 2
    assert not ep.recv_room(False)
    assert ep.recv_room(True)


def test_translation_table_rejects_negative_index():
    from repro.nic.endpoint_state import EndpointState, EndpointTable

    ep = EndpointState(0, 1, send_ring_depth=4, recv_queue_depth=2,
                       table=EndpointTable())
    with pytest.raises(ValueError):
        ep.map_translation(-1, 0, 0, 0)
    ep.map_translation(3, 1, 2, 99)
    assert ep.translation[3].key == 99
    ep.unmap_translation(3)
    assert 3 not in ep.translation
    ep.unmap_translation(3)  # idempotent
