"""Figure 4: bulk-transfer bandwidth vs message size, plus RTT(n).

Paper results to compare against: AM-II delivers 43.9 MB/s at 8 KB —
93% of the 46.8 MB/s SBus write-DMA hardware limit — with a half-power
point N1/2 of ~540 bytes; the first-generation interface managed only
38 MB/s at the same size; round-trip latencies for n >= 128 fit
0.1112*n + 61.02 us.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Optional

from ..am.gam import GamCluster
from ..am.vnet import parallel_vnet
from ..cluster.builder import Cluster
from ..cluster.config import ClusterConfig
from ..sim.core import ms
from .reporting import format_table

__all__ = ["BandwidthPoint", "BandwidthResult", "measure_am_bandwidth",
           "measure_gam_bandwidth", "measure_am_rtt", "half_power_point", "main"]

SIZES = [128, 256, 512, 1024, 2048, 4096, 8192]
PAPER_AM_8K = 43.9
PAPER_GAM_8K = 38.0
PAPER_SBUS_WRITE = 46.8


@dataclass
class BandwidthPoint:
    nbytes: int
    mb_s: float


@dataclass
class BandwidthResult:
    layer: str
    points: list[BandwidthPoint] = field(default_factory=list)

    def at(self, nbytes: int) -> float:
        for p in self.points:
            if p.nbytes == nbytes:
                return p.mb_s
        raise KeyError(nbytes)


def _stream(cluster_like, send_ep, recv_ep, spawn_sender, spawn_receiver, sim, nbytes: int, count: int) -> float:
    """One-way stream of `count` transfers of `nbytes`; returns MB/s."""
    state = {"received": 0, "t_start": None, "t_end": None, "done": False}
    warm = max(2, count // 5)

    def handler(token):
        state["received"] += 1
        if state["received"] == warm:
            state["t_start"] = sim.now
        if state["received"] == count:
            state["t_end"] = sim.now

    def receiver(thr):
        while state["received"] < count:
            yield from recv_ep["poll"](thr, 8)
        state["done"] = True

    def sender(thr):
        for _ in range(count):
            yield from send_ep["request"](thr, handler, nbytes)
            yield from send_ep["poll"](thr, 4)
        while not state["done"]:
            yield from send_ep["poll"](thr, 8)
            yield from thr.compute(1_000)

    spawn_receiver(receiver)
    spawn_sender(sender)
    sim.run(until=sim.now + ms(30_000))
    if state["t_end"] is None:
        raise RuntimeError(f"bandwidth stream ({nbytes}B) did not complete")
    elapsed = state["t_end"] - state["t_start"]
    delivered = (count - warm) * nbytes
    return delivered * 1e3 / elapsed  # bytes/ns -> MB/s


def measure_am_bandwidth(cfg: Optional[ClusterConfig] = None, sizes=None, count: int = 120) -> BandwidthResult:
    sizes = sizes or SIZES
    result = BandwidthResult("AM")
    for nbytes in sizes:
        cluster = Cluster(cfg or ClusterConfig(num_hosts=4))
        sim = cluster.sim
        vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "setup")
        ep0, ep1 = vnet[0], vnet[1]
        cluster.run_process(cluster.node(0).driver.write_fault(ep0.state), "w0")
        cluster.run_process(cluster.node(1).driver.write_fault(ep1.state), "w1")
        cluster.run(until=sim.now + ms(30))
        send_ep = {
            "request": lambda thr, h, n: ep0.request(thr, 1, h, nbytes=n),
            "poll": lambda thr, limit: ep0.poll(thr, limit=limit),
        }
        recv_ep = {"poll": lambda thr, limit: ep1.poll(thr, limit=limit)}
        p0 = cluster.node(0).start_process()
        p1 = cluster.node(1).start_process()
        mb_s = _stream(cluster, send_ep, recv_ep,
                       lambda b: p0.spawn_thread(b), lambda b: p1.spawn_thread(b),
                       sim, nbytes, count)
        result.points.append(BandwidthPoint(nbytes, mb_s))
    return result


def measure_gam_bandwidth(cfg: Optional[ClusterConfig] = None, sizes=None, count: int = 120) -> BandwidthResult:
    sizes = sizes or SIZES
    result = BandwidthResult("GAM")
    for nbytes in sizes:
        cluster = GamCluster(cfg or ClusterConfig(num_hosts=4))
        sim = cluster.sim
        ge0, ge1 = cluster.node(0).endpoint, cluster.node(1).endpoint
        send_ep = {
            "request": lambda thr, h, n: ge0.request(thr, 1, h, nbytes=n),
            "poll": lambda thr, limit: ge0.poll(thr, limit=limit),
        }
        recv_ep = {"poll": lambda thr, limit: ge1.poll(thr, limit=limit)}
        mb_s = _stream(cluster, send_ep, recv_ep,
                       lambda b: cluster.node(0).spawn_thread(b),
                       lambda b: cluster.node(1).spawn_thread(b),
                       sim, nbytes, count)
        result.points.append(BandwidthPoint(nbytes, mb_s))
    return result


def measure_am_rtt(cfg: Optional[ClusterConfig] = None, sizes=None, reps: int = 30) -> list[tuple[int, float]]:
    """Round-trip time for n-byte bulk messages (paper: 0.1112n + 61.02 us)."""
    sizes = sizes or [128, 512, 1024, 2048, 4096, 8192]
    out = []
    cluster = Cluster(cfg or ClusterConfig(num_hosts=4))
    sim = cluster.sim
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "setup")
    ep0, ep1 = vnet[0], vnet[1]
    cluster.run_process(cluster.node(0).driver.write_fault(ep0.state), "w0")
    cluster.run_process(cluster.node(1).driver.write_fault(ep1.state), "w1")
    cluster.run(until=sim.now + ms(30))
    state = {"stop": False}

    def echo_handler(token):
        # echo the same number of bytes back
        token.reply(lambda t: None, nbytes=token.nbytes)

    def receiver(thr):
        while not state["stop"]:
            yield from ep1.poll(thr, limit=8)

    p1 = cluster.node(1).start_process()
    p1.spawn_thread(receiver)

    for nbytes in sizes:
        def client(thr, n=nbytes):
            # warmup
            start_replies = ep0.stats.replies_handled
            yield from ep0.request(thr, 1, echo_handler, nbytes=n)
            while ep0.stats.replies_handled == start_replies:
                yield from ep0.poll(thr, limit=4)
            t0 = sim.now
            for _ in range(reps):
                yield from ep0.request(thr, 1, echo_handler, nbytes=n)
                start_replies = ep0.stats.replies_handled
                while ep0.stats.replies_handled == start_replies:
                    yield from ep0.poll(thr, limit=4)
            return (sim.now - t0) / reps

        p0 = cluster.node(0).start_process()
        t = p0.spawn_thread(client)
        sim.run(until=sim.now + ms(5_000), stop=lambda: t.finished)
        out.append((nbytes, t.result / 1e3))
    state["stop"] = True
    return out


def half_power_point(result: BandwidthResult) -> float:
    """Interpolated N1/2: size where bandwidth reaches half its 8 KB peak."""
    peak = result.at(8192)
    target = peak / 2
    prev = None
    for p in result.points:
        if p.mb_s >= target and prev is not None:
            x0, y0 = prev.nbytes, prev.mb_s
            x1, y1 = p.nbytes, p.mb_s
            return x0 + (target - y0) * (x1 - x0) / (y1 - y0)
        prev = p
    return float(result.points[0].nbytes)


def main(fast: bool = False) -> None:
    count = 60 if fast else 120
    am = measure_am_bandwidth(count=count)
    gam = measure_gam_bandwidth(count=count)
    cfg = ClusterConfig()
    rows = []
    for p_am, p_gam in zip(am.points, gam.points):
        rows.append([p_am.nbytes, p_am.mb_s, p_gam.mb_s])
    print(format_table(["size (B)", "AM MB/s", "GAM MB/s"], rows,
                       title="Figure 4: delivered bandwidth"))
    print(f"\n AM @8KB   = {am.at(8192):.1f} MB/s (paper: {PAPER_AM_8K})")
    print(f" GAM @8KB  = {gam.at(8192):.1f} MB/s (paper: {PAPER_GAM_8K})")
    print(f" SBus write ceiling = {cfg.sbus_write_mb_s} MB/s; delivered fraction "
          f"{am.at(8192) / cfg.sbus_write_mb_s * 100:.0f}% (paper: 93%)")
    print(f" N1/2      = {half_power_point(am):.0f} B (paper: ~540)")
    rtt = measure_am_rtt(reps=10 if fast else 30)
    print("\n RTT(n):", ", ".join(f"{n}B:{t:.1f}us" for n, t in rtt))
    slope, intercept = statistics.linear_regression(
        [float(n) for n, _ in rtt], [t for _, t in rtt])
    print(f" RTT fit: {slope:.4f}*n + {intercept:.2f} us  (paper: 0.1112*n + 61.02 us)")


if __name__ == "__main__":
    main()
