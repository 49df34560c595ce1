"""Figure 3: LogP characterization of AM over virtual networks vs GAM.

Measurements follow the methodology of Culler et al. [9] as used in
Section 6.1:

* **Os** — time the host spends in the send call (writing the descriptor);
* **Or** — time to consume one arrived message, beyond touching an empty
  endpoint;
* **RTT** — request/reply ping-pong cycle; one-way time is RTT/2 and
  **L** = RTT/2 − Os − Or;
* **g** — steady-state time per 16-byte request when flooding with the
  full credit window (each request is acknowledged by a reply, so both
  directions of NI occupancy are on the rate-limiting path).

Paper results to compare against: virtualization raises the round-trip
time by 23% and the gap by 2.21x while total per-packet overhead (Os+Or)
stays the same; Os grows (bigger descriptors) and Or shrinks (VIS block
load); defensive error checking adds ~1.1 us to L and g.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..am.gam import GamCluster
from ..am.vnet import parallel_vnet
from ..cluster.builder import Cluster
from ..cluster.config import ClusterConfig
from ..obs import PhaseStats, phase_breakdown
from ..sim.core import ms, us
from .reporting import format_table

__all__ = ["LogPResult", "overheads", "measure_am", "measure_gam", "compare",
           "phase_table", "main"]

PAPER_AM = dict(os_us=2.4, or_us=2.4, l_us=7.25, g_us=12.8)
PAPER_GAM = dict(os_us=1.6, or_us=3.2, l_us=5.0, g_us=5.8)


@dataclass
class LogPResult:
    layer: str
    os_us: float
    or_us: float
    l_us: float
    g_us: float
    rtt_us: float
    #: per-phase span attribution (send/wire/recv/ack/total), filled in
    #: when the measurement ran with tracing enabled
    phases: Optional[dict[str, PhaseStats]] = None

    @property
    def total_overhead_us(self) -> float:
        return self.os_us + self.or_us


def overheads(thr, send_ep, drain) -> Generator:
    """Os and Or of a warm, idle sender endpoint (Figure 3 methodology).

    Os is the time inside one 16-byte request; Or is a poll holding one
    pending reply minus an empty poll.  ``drain(thr)`` runs between the
    two and consumes the Os request's reply.  ``send_ep`` is the
    adapter dict of :func:`_measure`.  Returns ``(os_ns, or_ns)``.
    """
    sim = thr.sim
    t0 = sim.now
    yield from send_ep["request"](thr, None, 16)
    os_ns = sim.now - t0
    yield from drain(thr)
    t0 = sim.now
    yield from send_ep["poll"](thr, 4)  # empty
    empty_ns = sim.now - t0
    yield from send_ep["request"](thr, None, 16)
    # wait for the reply to be queued without consuming it
    while not send_ep["has_reply"]():
        yield from thr.compute(200)
    t0 = sim.now
    yield from send_ep["poll"](thr, 1)
    return os_ns, (sim.now - t0) - empty_ns


def _measure(layer: str, send_ep, recv_ep, spawn_sender, spawn_receiver, sim, pingpongs: int, flood_msgs: int) -> LogPResult:
    """Common measurement engine; endpoints wrapped by adapter closures."""
    results: dict[str, float] = {}

    def receiver(thr):
        # tight service loop for the duration of the experiment
        while "done" not in results:
            yield from recv_ep["poll"](thr, 8)

    def first_reply(thr):
        for _ in range(10_000):
            got = yield from send_ep["poll"](thr, 4)
            if got:
                break

    def sender(thr):
        # warm up: absorb the first context switch and cold caches
        yield from send_ep["request"](thr, None, 16)
        yield from first_reply(thr)
        results["os_ns"], results["or_ns"] = yield from overheads(
            thr, send_ep, first_reply)
        # -- RTT: ping-pong -----------------------------------------------
        t0 = sim.now
        for _ in range(pingpongs):
            yield from send_ep["request"](thr, None, 16)
            while True:
                got = yield from send_ep["poll"](thr, 4)
                if got:
                    break
        results["rtt_ns"] = (sim.now - t0) / pingpongs
        # -- g: saturation flood -------------------------------------------
        warm = flood_msgs // 4
        t_mark = None
        for i in range(flood_msgs):
            if i == warm:
                t_mark = sim.now
            yield from send_ep["request"](thr, None, 16)
            yield from send_ep["poll"](thr, 2)
        # drain remaining replies so the pipeline empties
        for _ in range(100_000):
            got = yield from send_ep["poll"](thr, 8)
            if not got and send_ep["idle"]():
                break
        results["g_ns"] = (sim.now - t_mark) / (flood_msgs - warm)
        results["done"] = 1.0

    spawn_receiver(receiver)
    spawn_sender(sender)
    sim.run(until=sim.now + ms(4_000))
    if "done" not in results:
        raise RuntimeError(f"LogP {layer} measurement did not converge")
    os_us_v = results["os_ns"] / 1e3
    or_us_v = results["or_ns"] / 1e3
    rtt = results["rtt_ns"] / 1e3
    return LogPResult(
        layer=layer,
        os_us=os_us_v,
        or_us=or_us_v,
        l_us=rtt / 2 - os_us_v - or_us_v,
        g_us=results["g_ns"] / 1e3,
        rtt_us=rtt,
    )


def measure_am(
    cfg: Optional[ClusterConfig] = None,
    pingpongs: int = 200,
    flood_msgs: int = 2000,
    trace: bool = False,
) -> LogPResult:
    """LogP parameters of AM over virtual networks (two dedicated nodes).

    With ``trace=True`` a :class:`~repro.obs.TraceBus` rides along
    (observer-only: the measured numbers are bit-identical either way)
    and the result's ``phases`` carries the span attribution of where
    each microsecond went (see :func:`phase_table`).
    """
    cluster = Cluster(cfg or ClusterConfig(num_hosts=4))
    sim = cluster.sim
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "setup")
    ep0, ep1 = vnet[0], vnet[1]

    # warm both endpoints onto their NIs so the measurement is steady-state
    cluster.run_process(cluster.node(0).driver.write_fault(ep0.state), "w0")
    cluster.run_process(cluster.node(1).driver.write_fault(ep1.state), "w1")
    cluster.run(until=sim.now + ms(30))
    # attach after warm-up so the spans reflect the steady state
    bus = cluster.enable_tracing() if trace else None

    def handler(token):
        token.reply(None)

    def reply_handler(token):
        pass

    send_ep = {
        "request": lambda thr, _dst, nbytes: ep0.request(thr, 1, handler, nbytes=nbytes),
        "poll": lambda thr, limit: ep0.poll(thr, limit=limit),
        "has_reply": lambda: bool(ep0.state.recv_replies),
        "idle": lambda: not ep0._outstanding,
    }
    recv_ep = {
        "poll": lambda thr, limit: ep1.poll(thr, limit=limit),
    }
    p0 = cluster.node(0).start_process("logp-send")
    p1 = cluster.node(1).start_process("logp-recv")
    result = _measure(
        "AM", send_ep, recv_ep,
        lambda body: p0.spawn_thread(body, "sender"),
        lambda body: p1.spawn_thread(body, "receiver"),
        sim, pingpongs, flood_msgs,
    )
    if bus is not None:
        result.phases = phase_breakdown(bus)
    return result


def measure_gam(cfg: Optional[ClusterConfig] = None, pingpongs: int = 200, flood_msgs: int = 2000) -> LogPResult:
    """LogP parameters of the first-generation single-endpoint layer."""
    cluster = GamCluster(cfg or ClusterConfig(num_hosts=4))
    sim = cluster.sim
    ge0, ge1 = cluster.node(0).endpoint, cluster.node(1).endpoint

    def handler(token):
        token.reply(None)

    send_ep = {
        "request": lambda thr, _dst, nbytes: ge0.request(thr, 1, handler, nbytes=nbytes),
        "poll": lambda thr, limit: ge0.poll(thr, limit=limit),
        "has_reply": lambda: bool(ge0.nic.recv_q),
        "idle": lambda: ge0._window.get(1, 0) == 0,
    }
    recv_ep = {"poll": lambda thr, limit: ge1.poll(thr, limit=limit)}
    return _measure(
        "GAM", send_ep, recv_ep,
        lambda body: cluster.node(0).spawn_thread(body, "sender"),
        lambda body: cluster.node(1).spawn_thread(body, "receiver"),
        sim, pingpongs, flood_msgs,
    )


def phase_table(result: LogPResult) -> str:
    """Per-phase cost table from the trace spans (Figure 3 companion)."""
    if not result.phases:
        return ""
    legend = {
        "send": "host enqueue -> wire (Os + NI send svc)",
        "wire": "fabric transit (cut-through + stalls)",
        "recv": "NI receive -> endpoint (incl. errcheck)",
        "ack": "delivery -> sender retires channel",
        "total": "enqueue -> positively acknowledged",
    }
    rows = [
        [phase, legend[phase], st.count, st.mean_us, st.max_us]
        for phase, st in result.phases.items()
    ]
    return format_table(
        ["phase", "what", "msgs", "mean us", "max us"],
        rows,
        title=f"LogP span breakdown ({result.layer}): where the microseconds go",
    )


def compare(cfg: Optional[ClusterConfig] = None) -> tuple[LogPResult, LogPResult, str]:
    """Run both layers and format the Figure 3 table.

    The AM run carries a trace bus (observer-only), so the report ends
    with the per-phase cost table attributing Os/L/gap time to spans.
    """
    am = measure_am(cfg, trace=True)
    gam = measure_gam(cfg)
    rows = [
        ["Os (us)", gam.os_us, am.os_us, PAPER_GAM["os_us"], PAPER_AM["os_us"]],
        ["Or (us)", gam.or_us, am.or_us, PAPER_GAM["or_us"], PAPER_AM["or_us"]],
        ["L  (us)", gam.l_us, am.l_us, PAPER_GAM["l_us"], PAPER_AM["l_us"]],
        ["g  (us)", gam.g_us, am.g_us, PAPER_GAM["g_us"], PAPER_AM["g_us"]],
        ["RTT(us)", gam.rtt_us, am.rtt_us, 19.6, 24.1],
        ["Os+Or", gam.total_overhead_us, am.total_overhead_us, 4.8, 4.8],
    ]
    table = format_table(
        ["LogP param", "GAM meas", "AM meas", "GAM paper", "AM paper"],
        rows,
        title="Figure 3: LogP performance characterization",
    )
    derived = (
        f"\n gap ratio AM/GAM      = {am.g_us / gam.g_us:.2f}  (paper: 2.21)"
        f"\n RTT ratio AM/GAM      = {am.rtt_us / gam.rtt_us:.2f}  (paper: 1.23)"
        f"\n overhead ratio AM/GAM = {am.total_overhead_us / gam.total_overhead_us:.2f}  (paper: 1.00)"
    )
    report = table + derived
    spans = phase_table(am)
    if spans:
        report += "\n\n" + spans
    return am, gam, report


def main() -> None:
    _, _, report = compare()
    print(report)


if __name__ == "__main__":
    main()
