"""The struct-of-arrays endpoint store (DESIGN.md §15).

``EndpointTable`` keeps the per-endpoint scalars a victim policy, the
segment driver or the fleet reads in parallel ``array('i')``/``array('q')``
columns indexed by integer row, with ``EndpointState`` surviving as a
thin flyweight view.  These tests pin
the three properties the refactor must hold:

* **Layout** — no instance ``__dict__`` anywhere on the per-endpoint
  path, and a measured per-row footprint small enough that 10^5
  endpoints fit the fleet budget (the memory-regression gate);
* **Coherence** — a flyweight's properties and the raw columns are the
  same storage: writes through either side are visible on the other,
  ``frame_rows`` mirrors frame occupancy, and the send ring mirrors its
  occupancy into the ``ring_used`` column;
* **Bit-determinism** — the integer-indexed victim-selection path
  produces the exact digests the object-based build produced, per
  policy (pinned below; BENCH_SCALE.json pins the full-size sweep).
"""

import sys

import pytest

from repro.cluster import ClusterConfig
from repro.nic.endpoint_state import (
    F_REFERENCED,
    EndpointState,
    EndpointTable,
    Residency,
    TranslationEntry,
)
from repro.scale import ScaleCellConfig, run_cell
from repro.scale.fleet import MEMCHECK_CELL, FleetCellConfig


def make_ep(table, ep_id=0, **kw):
    kw.setdefault("send_ring_depth", 4)
    kw.setdefault("recv_queue_depth", 4)
    return EndpointState(node=0, ep_id=ep_id, table=table, **kw)


# ------------------------------------------------------------------ layout
def test_no_dict_on_per_endpoint_path():
    table = EndpointTable(node=0, frames=2)
    ep = make_ep(table)
    for obj in (ep, table, TranslationEntry(dst_node=0, dst_ep=0, key=1)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    with pytest.raises(AttributeError):
        ep.not_a_slot = 1


def test_memory_footprint_per_row():
    """The SoA budget: growing a table 256 rows must cost hundreds of
    bytes per endpoint, not the multiple KiB of the object layout."""
    table = EndpointTable(node=0, frames=8)
    for i in range(256):
        table.add_row(i)
    per_row = table.bytes_per_row()
    assert per_row < 512, f"{per_row:.0f} B/row blows the fleet budget"
    # the columns themselves (without flyweights) are what the fleet
    # sweep instantiates: far smaller still
    cols = table.nbytes() - sum(
        sys.getsizeof(v) for v in table.views if v is not None)
    assert cols / len(table) < 256


def test_fleet_acceptance_table_bytes_per_row():
    """One NI of the fleet's 10^5-endpoint acceptance cell, built as the
    fleet builds it: the table holds only the columns a policy, the
    driver or the fleet reads, so it stays at ≈62 B per endpoint (the
    table with the view-only and stats columns took ≈127 B)."""
    fcfg = FleetCellConfig(**MEMCHECK_CELL)
    table = EndpointTable(node=0, frames=fcfg.endpoint_frames)
    for i in range(fcfg.endpoints_per_ni):
        table.add_row(i)
    assert len(table) == 784
    assert table.bytes_per_row() <= 62.0


def test_translation_entry_slots():
    te = TranslationEntry(dst_node=3, dst_ep=16, key=4)
    assert (te.dst_node, te.dst_ep, te.key) == (3, 16, 4)
    with pytest.raises(AttributeError):
        te.extra = 1


# --------------------------------------------------------------- coherence
def test_flyweight_and_columns_are_same_storage():
    table = EndpointTable(node=0, frames=2)
    ep = make_ep(table, ep_id=7)
    row = ep.row
    assert table.views[row] is ep
    assert table.ep_id[row] == 7

    ep.residency = Residency.ONNIC_RW
    ep.inflight = 5
    ep.last_active_ns = 123_456
    ep.referenced = True
    assert table.inflight[row] == 5
    assert table.last_active[row] == 123_456
    assert table.flags[row] & F_REFERENCED
    assert ep.resident

    table.inflight[row] = 9
    table.flags[row] &= ~F_REFERENCED
    assert ep.inflight == 9
    assert not ep.referenced

    ep.frame = 1
    assert table.frame[row] == 1
    ep.frame = None
    assert table.frame[row] == -1


def test_view_only_counters_are_slots_not_columns():
    """What only the view reads lives on the view, not in the table."""
    table = EndpointTable(node=0, frames=2)
    ep = make_ep(table)
    for attr in ("generation", "service_deficit",
                 "bulk_reserved_req", "bulk_reserved_rep"):
        assert getattr(ep, attr) == 0
        setattr(ep, attr, 3)
        assert getattr(ep, attr) == 3
    assert set(table.INT_COLS + table.LONG_COLS) == {
        "ep_id", "res", "frame", "flags", "inflight", "ring_used",
        "last_active", "evicted_at"}


def test_send_ring_mirrors_ring_used_column():
    table = EndpointTable(node=0, frames=2)
    ep = make_ep(table)
    r = ep.send_ring
    r.append("a")
    r.append("b")
    assert table.ring_used[ep.row] == 2
    r.popleft()
    assert table.ring_used[ep.row] == 1
    r.extend(["c", "d"])
    assert table.ring_used[ep.row] == 3
    r.remove("c")
    assert table.ring_used[ep.row] == 2
    r.clear()
    assert table.ring_used[ep.row] == 0
    assert ep.send_ring_free() == ep.send_ring_depth


def test_endpoints_share_the_table_they_are_built_on():
    """Each endpoint appends its row to the table it is built on (a
    NIC's table in every real run); its send ring writes that same row."""
    nic_table = EndpointTable(node=1, frames=4)
    a = make_ep(nic_table, ep_id=3)
    b = make_ep(nic_table, ep_id=4)
    assert (a.row, b.row) == (0, 1) and len(nic_table) == 2
    for ep in (a, b):
        assert ep.table is ep.send_ring.table is nic_table
        assert nic_table.views[ep.row] is ep
    b.send_ring.append("x")
    assert nic_table.ep_id[b.row] == 4
    assert nic_table.ring_used[b.row] == 1
    assert nic_table.ring_used[a.row] == 0


def test_frame_rows_mirror_and_resident_count():
    table = EndpointTable(node=0, frames=2)
    eps = [make_ep(table, ep_id=i) for i in range(3)]
    assert table.resident_count() == 0
    eps[0].residency = Residency.ONNIC_RW
    eps[0].frame = 0
    table.frame_rows[0] = eps[0].row
    assert table.resident_count() == 1
    table.ensure_frames(5)
    assert len(table.frame_rows) == 5
    assert table.frame_rows[4] == -1


# ---------------------------------------------------------- determinism
#: tiny-but-real cell (mirrors test_scale_policies.TINY), seed 11; the
#: digests below were recorded with the express path off
_TINY = dict(ratio=4, endpoint_frames=2, client_nodes=2,
             duration_ms=10.0, warmup_ms=5.0, seed=11,
             base=ClusterConfig(express_path=False))

#: digests of the pre-SoA object-based build's observables (re-expressed
#: in the canonical digest of repro.bench.harness) — the integer-indexed
#: victim path must reproduce them bit for bit (they leave out the
#: dispatched-event count, which exact event elisions lower)
_PINNED = {
    "random": "7e64653106df9fda5c6578e486fcb15935de6adfce42ae6a93c8a138283dc61b",
    "lru": "87cf8f9ebf67de8f472943d111c49585ed0ee395a7d93cd3ace815ca407e225b",
    "clock": "3c126608711520f0354b5a2e0791c3011c9d822d864b2cf2150e372a7e208e97",
    "active-preference": "656dccf8ebad0bdb91dcd5e677fb08f2f171f5e0ca73c5e3e708594264359cec",
}


@pytest.mark.parametrize("policy", sorted(_PINNED))
def test_integer_indexed_policies_reproduce_object_build_digests(policy):
    res = run_cell(ScaleCellConfig(policy=policy, **_TINY))
    assert res.completed > 0
    assert res.digest == _PINNED[policy], (
        f"{policy}: SoA victim path diverged from the object-based build"
    )
