"""End-to-end determinism: identical seeds give bit-identical runs."""

import pytest

import repro.apps.clientserver as clientserver
from repro.apps.clientserver import ContentionConfig, run_contention
from repro.apps.npb import run_npb
from repro.bench.logp import measure_am
from repro.cluster import ClusterConfig
from repro.scale.loadgen import ScaleCellConfig, run_cell


def test_contention_run_is_reproducible():
    def once():
        r = run_contention(
            ContentionConfig(nclients=3, mode="one_vn", duration_ms=40, warmup_ms=30, seed=5)
        )
        return (r.per_client_msgs_s, r.aggregate_msgs_s, r.overrun_nacks)

    assert once() == once()


def test_contention_seed_changes_details_not_shape():
    a = run_contention(ContentionConfig(nclients=2, mode="one_vn", duration_ms=40, warmup_ms=30, seed=1))
    b = run_contention(ContentionConfig(nclients=2, mode="one_vn", duration_ms=40, warmup_ms=30, seed=2))
    # same physics: aggregates within a few percent of each other
    assert abs(a.aggregate_msgs_s - b.aggregate_msgs_s) / a.aggregate_msgs_s < 0.1


def test_npb_run_is_reproducible():
    r1 = run_npb("cg", 4)
    r2 = run_npb("cg", 4)
    assert r1.time_s == r2.time_s
    assert r1.comm_iter_s == r2.comm_iter_s


def test_logp_measurement_is_reproducible():
    a = measure_am(pingpongs=20, flood_msgs=200)
    b = measure_am(pingpongs=20, flood_msgs=200)
    assert (a.os_us, a.or_us, a.l_us, a.g_us) == (b.os_us, b.or_us, b.l_us, b.g_us)


# ------------------------------------------- elided ST sweeps, real traffic
def _events_of(monkeypatch):
    """Record the clusters ``run_contention`` builds (for their event counts)."""
    made = []

    class Recorded(clientserver.Cluster):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

    monkeypatch.setattr(clientserver, "Cluster", Recorded)
    return made


def test_sweep_elision_changes_only_the_event_count_of_a_scale_cell():
    """The overcommit cell's ST server sweep (poll_until over a bundle)."""
    runs = []
    for elision in (True, False):
        res = run_cell(ScaleCellConfig(
            policy="lru", ratio=4, endpoint_frames=2, client_nodes=2, duration_ms=10.0,
            warmup_ms=5.0, seed=11, base=ClusterConfig(spin_elision=elision)), trace=True)
        out = res.to_dict()
        out.pop("wall_s")
        runs.append((out, out.pop("events_dispatched")))
    (on, on_events), (off, off_events) = runs
    assert on == off and on["completed"] > 0
    assert on_events < off_events


@pytest.mark.parametrize("mode,nclients", [("st", 6), ("one_vn", 4)])
def test_sweep_elision_changes_only_the_event_count_of_a_contention_run(monkeypatch, mode,
                                                                        nclients):
    """Fig. 6's single-threaded server, per-client endpoints and one shared."""
    made = _events_of(monkeypatch)
    runs = []
    for elision in (True, False):
        res = run_contention(ContentionConfig(nclients=nclients, mode=mode, msg_bytes=16,
                                              duration_ms=8, warmup_ms=6,
                                              base=ClusterConfig(spin_elision=elision)))
        out = dict(res.__dict__)
        out.pop("config")
        runs.append((out, made[-1].sim.events_dispatched))
    (on, on_events), (off, off_events) = runs
    assert on == off and on["aggregate_msgs_s"] > 0
    assert on_events < off_events
