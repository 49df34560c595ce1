"""The repro.api session facade: lifecycle and path equivalence.

Three contracts from the API redesign:

* a :class:`~repro.api.Session` (the ``AM_Init``/``AM_Terminate``
  analog) frees each of its endpoints through the segment driver
  exactly once, no matter how it is closed or how many times;
* a Session drives the simulation through the same bit-identical
  timeline as the canonical generators it wraps;
* misuse fails inside the :class:`AmError`/:class:`SimError` hierarchy.
"""

import pytest

from repro.am import new_endpoint, parallel_vnet
from repro.api import AmError, Cluster, Session
from repro.bench.harness import timeline_digest
from repro.cluster import ClusterConfig, reset_global_ids
from repro.nic.endpoint_state import Residency


# ----------------------------------------------------------- session lifecycle
def test_session_context_manager_frees_endpoints_once():
    with Session(nodes=[0, 1], num_hosts=4) as s:
        assert len(s.endpoints) == 2
        assert s.vnet is not None
        ep0, ep1 = s.endpoints
        assert ep0.node.node_id == 0 and ep1.node.node_id == 1
        assert not s.closed
    assert s.closed
    for ep in s.endpoints:
        assert ep.state.residency is Residency.FREED
        assert ep.node.driver.stats.frees == 1


def test_session_close_is_idempotent():
    s = Session(nodes=[0, 1], num_hosts=4)
    s.close()
    s.close()
    with s:  # __exit__ closes again
        pass
    for ep in s.endpoints:
        assert ep.node.driver.stats.frees == 1


def test_session_star_topology():
    with Session(star=(0, [1, 2, 3]), shared_server_ep=False,
                 num_hosts=4) as s:
        assert len(s.servers) == 3 and len(s.clients) == 3
        assert s.endpoints == s.servers + s.clients
        assert len(s.bundle().endpoints) == 6
        assert s.bundle() is s.bundle()  # cached


def test_session_joining_existing_cluster_leaves_it_up():
    cluster = Cluster(ClusterConfig(num_hosts=4))
    outside = cluster.run_process(
        new_endpoint(cluster.node(2), rngs=cluster.rngs), "outside")
    with Session(nodes=[0, 1], cluster=cluster) as s:
        assert s.cluster is cluster
    # the session freed only its own endpoints
    for ep in s.endpoints:
        assert ep.state.residency is Residency.FREED
    assert outside.state.residency is not Residency.FREED
    assert cluster.node(2).driver.stats.frees == 0


def test_session_argument_validation():
    with pytest.raises(AmError):
        Session(num_hosts=4)
    with pytest.raises(AmError):
        Session(nodes=[0, 1], star=(0, [1]), num_hosts=4)


def test_session_joining_a_cluster_takes_no_config():
    # a joined cluster is already built: a config or override given
    # beside it would be ignored, so it is refused instead
    cluster = Cluster(ClusterConfig(num_hosts=4))
    for kwargs in ({"num_hosts": 8}, {"engine": "reference"},
                   {"cfg": ClusterConfig(num_hosts=4)}):
        with pytest.raises(AmError, match="cluster="):
            Session(nodes=[0, 1], cluster=cluster, **kwargs)
    assert cluster.node(0).driver.endpoints == {}


def test_cluster_context_manager_frees_everything():
    with Cluster(ClusterConfig(num_hosts=4)) as cluster:
        ep = cluster.run_process(
            new_endpoint(cluster.node(1), rngs=cluster.rngs), "e")
    assert ep.state.residency is Residency.FREED
    assert cluster.node(1).driver.stats.frees == 1


# ------------------------------------------------- old/new path equivalence
def _pingpong_digest(build):
    """Run a small request/reply workload; return the timeline digest.

    ``build(cluster)`` returns the two endpoints — this is the only part
    that differs between the old and new call paths.
    """
    reset_global_ids()
    cluster = Cluster(ClusterConfig(num_hosts=4, seed=7))
    bus = cluster.enable_tracing()
    sim = cluster.sim
    ep0, ep1 = build(cluster)
    done = []

    def handler(token):
        token.reply(None)

    def receiver(thr):
        while not done:
            yield from ep1.poll(thr, limit=8)

    def sender(thr):
        for _ in range(20):
            yield from ep0.request(thr, 1, handler, nbytes=16)
            while True:
                if (yield from ep0.poll(thr, limit=4)):
                    break
        done.append(1)

    cluster.node(1).start_process("r").spawn_thread(receiver)
    cluster.node(0).start_process("s").spawn_thread(sender)
    from repro.sim import ms
    sim.run(until=sim.now + ms(500), stop=lambda: bool(done))
    assert done
    digest = timeline_digest(bus.events)
    bus.detach()
    return digest


def test_old_and_new_call_paths_identical_digest():
    # process names show up in the trace, so both paths must name the
    # setup process identically ("s.setup") for the digests to be comparable
    def via_canonical(cluster):
        vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "s.setup")
        return vnet[0], vnet[1]

    def via_session(cluster):
        s = Session(nodes=[0, 1], cluster=cluster, name="s")
        return s.endpoints

    d_new = _pingpong_digest(via_canonical)
    d_session = _pingpong_digest(via_session)
    assert d_new == d_session, "Session facade changed the timeline"
