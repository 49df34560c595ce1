"""The struct-of-arrays endpoint store (DESIGN.md §15).

``EndpointTable`` keeps every per-endpoint scalar in parallel
``array('i')``/``array('q')`` columns indexed by integer row, with
``EndpointState`` surviving as a thin flyweight view.  These tests pin
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
    EndpointStats,
    EndpointTable,
    Residency,
    TranslationEntry,
)
from repro.scale import ScaleCellConfig, run_cell


def make_ep(table=None, ep_id=0, **kw):
    kw.setdefault("send_ring_depth", 4)
    kw.setdefault("recv_queue_depth", 4)
    return EndpointState(node=0, ep_id=ep_id, table=table, **kw)


# ------------------------------------------------------------------ layout
def test_no_dict_on_per_endpoint_path():
    table = EndpointTable(node=0, frames=2)
    ep = make_ep(table)
    for obj in (ep, ep.stats, table,
                TranslationEntry(dst_node=0, dst_ep=0, key=1)):
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
    ep.generation = 5
    ep.last_active_ns = 123_456
    ep.referenced = True
    assert table.gen[row] == 5
    assert table.last_active[row] == 123_456
    assert table.flags[row] & F_REFERENCED
    assert ep.resident

    table.gen[row] = 9
    table.flags[row] &= ~F_REFERENCED
    assert ep.generation == 9
    assert not ep.referenced

    ep.frame = 1
    assert table.frame[row] == 1
    ep.frame = None
    assert table.frame[row] == -1


def test_stats_live_in_columns():
    table = EndpointTable(node=0, frames=2)
    ep = make_ep(table)
    ep.stats.enqueued += 3
    ep.stats.consumed += 1
    assert table.st_enqueued[ep.row] == 3
    assert table.st_consumed[ep.row] == 1
    # standalone stats (no endpoint) still work, on a private table
    s = EndpointStats()
    s.send_ring_full += 2
    assert s.send_ring_full == 2


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


def test_adopt_migrates_row_between_tables():
    """Tests (and the AM layer) build endpoints standalone, then hand
    them to a NIC: ``adopt`` must move the whole row, rebind the
    flyweight, and be idempotent."""
    ep = make_ep(None, ep_id=3)  # private single-row table
    private = ep.table
    ep.generation = 4
    ep.stats.enqueued = 11
    ep.send_ring.append("x")

    nic_table = EndpointTable(node=1, frames=4)
    row = nic_table.adopt(ep)
    assert ep.table is nic_table and ep.row == row
    assert nic_table.views[row] is ep
    assert nic_table.ep_id[row] == 3
    assert nic_table.gen[row] == 4
    assert nic_table.st_enqueued[row] == 11
    assert nic_table.ring_used[row] == 1
    assert ep.send_ring.table is nic_table
    assert private.views[0] is None  # old row detached
    assert nic_table.adopt(ep) == row  # idempotent


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
#: digests below include the dispatched-event count and were recorded
#: with the express path off
_TINY = dict(ratio=4, endpoint_frames=2, client_nodes=2,
             duration_ms=10.0, warmup_ms=5.0, seed=11,
             base=ClusterConfig(express_path=False))

#: digests of the pre-SoA object-based build's observables (re-expressed
#: in the canonical digest of repro.bench.harness) — the integer-indexed
#: victim path must reproduce them bit for bit
_PINNED = {
    "random": "888e81b715a7d0798ab6f616ffd2590067ba54dc58dc32c8285df158c88e95e1",
    "lru": "f75afce2d3eefd8a03eb4c83a1797abda359f6a8aca02eadcb5332e17d278bb6",
    "clock": "0accec750fecbfc83d79857931adead6c1251ad77faff8f8b5f2657ac02fdbfe",
    "active-preference": "46ddd11f55495c53e8403b21933da98ae3b0e2ebdc5b93906cffda6aa779598c",
}


@pytest.mark.parametrize("policy", sorted(_PINNED))
def test_integer_indexed_policies_reproduce_object_build_digests(policy):
    res = run_cell(ScaleCellConfig(policy=policy, **_TINY))
    assert res.completed > 0
    assert res.digest == _PINNED[policy], (
        f"{policy}: SoA victim path diverged from the object-based build"
    )
