"""The Section 6.4 client/server workloads: virtualization at scale and load.

One server, N clients, each on its own dedicated node.  Each client sends
a continuous stream of requests to its endpoint(s) in the server — "the
workload is somewhat like a page thrash test".  Five configurations:

* **OneVN** — every client talks to one shared server endpoint (a single
  virtual network);
* **ST-8 / ST-96** — one server endpoint per client (as many virtual
  networks as clients), one server thread polling all endpoints, with 8
  or 96 endpoint frames on the server NI;
* **MT-8 / MT-96** — same endpoint layout, but one event-driven server
  thread per endpoint (Section 3.3's thread support is what makes this
  implementable).

More than 8 clients overcommit an 8-frame interface and activate the
on-the-fly re-mapping machinery (200-300 remaps/s in the paper while
still delivering 50-75% of peak).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..am.bundle import Bundle
from ..am.endpoint import poll_until
from ..am.vnet import star_vnet
from ..cluster.builder import Cluster
from ..cluster.config import ClusterConfig
from ..myrinet.packet import NackReason
from ..sim.core import ms

__all__ = ["ContentionConfig", "ContentionResult", "run_contention", "CONFIG_NAMES"]

CONFIG_NAMES = ["one_vn", "st", "mt"]
#: the single-threaded server's spin between empty bundle sweeps
SWEEP_IDLE_NS = 200


@dataclass
class ContentionConfig:
    nclients: int
    #: request payload: 0/16 for Figure 6, 8192 for Figure 7
    msg_bytes: int = 0
    #: "one_vn" (shared endpoint), "st" (per-client endpoints, one
    #: thread), "mt" (per-client endpoints, thread per endpoint)
    mode: str = "one_vn"
    #: endpoint frames on every NI (8 default, 96 newer boards)
    frames: int = 8
    #: measured interval (after warmup); the paper used 20 s steady state
    duration_ms: float = 200.0
    warmup_ms: float = 120.0
    #: server request-handler cost; calibrated so the host drain rate is
    #: close to the NI's 78K msg/s ceiling, as in the paper's server
    handler_ns: int = 8_600
    seed: int = 1999
    base: Optional[ClusterConfig] = None

    def cluster_config(self) -> ClusterConfig:
        base = self.base or ClusterConfig()
        return base.with_(
            num_hosts=self.nclients + 1,
            endpoint_frames=self.frames,
            seed=self.seed,
        )


@dataclass
class ContentionResult:
    config: ContentionConfig
    per_client_msgs_s: list[float] = field(default_factory=list)
    aggregate_msgs_s: float = 0.0
    aggregate_mb_s: float = 0.0
    remaps_per_s: float = 0.0
    overrun_nacks: int = 0
    not_resident_nacks: int = 0
    server_cpu_util: float = 0.0

    @property
    def min_client_msgs_s(self) -> float:
        return min(self.per_client_msgs_s) if self.per_client_msgs_s else 0.0

    @property
    def max_client_msgs_s(self) -> float:
        return max(self.per_client_msgs_s) if self.per_client_msgs_s else 0.0


def run_contention(ccfg: ContentionConfig) -> ContentionResult:
    """Run one configuration and return throughput/robustness metrics."""
    if ccfg.mode not in CONFIG_NAMES:
        raise ValueError(f"unknown mode {ccfg.mode!r}")
    cluster = Cluster(ccfg.cluster_config())
    sim = cluster.sim
    server_node = cluster.node(0)
    client_nodes = list(range(1, ccfg.nclients + 1))
    shared = ccfg.mode == "one_vn"
    servers, clients = cluster.run_process(
        star_vnet(cluster, 0, client_nodes, shared_server_ep=shared), "setup"
    )
    for sep in servers:
        sep.handler_cost_ns = ccfg.handler_ns

    counts = [0] * ccfg.nclients
    stop = {"flag": False}

    def make_handler(idx: int):
        def handler(token):
            counts[idx] += 1  # auto credit reply follows

        return handler

    handlers = [make_handler(i) for i in range(ccfg.nclients)]

    # ---- clients: continuous request streams --------------------------
    for i, cep in enumerate(clients):
        proc = cluster.node(client_nodes[i]).start_process(f"client{i}")

        def client_body(thr, cep=cep, i=i):
            while not stop["flag"]:
                yield from cep.request(thr, 0, handlers[i], nbytes=ccfg.msg_bytes)
                yield from cep.poll(thr, limit=4)

        proc.spawn_thread(client_body, name=f"client{i}")

    # ---- server --------------------------------------------------------
    sproc = server_node.start_process("server")
    if ccfg.mode in ("one_vn", "st"):
        bundle = Bundle(servers)

        def st_body(thr):
            return poll_until(thr, lambda: stop["flag"], bundle, period=SWEEP_IDLE_NS)

        sproc.spawn_thread(st_body, name="server-st")
    else:  # mt: one thread per endpoint, event driven
        for k, sep in enumerate(servers):
            sproc.spawn_thread(lambda thr, sep=sep: sep.serve(thr, stop, timeout_ns=ms(10), limit=16),
                               name=f"server-mt{k}")

    # ---- measure ---------------------------------------------------------
    cluster.run(until=sim.now + ms(ccfg.warmup_ms))
    snap_counts = list(counts)
    snap_remaps = server_node.driver.stats.remaps
    snap_cpu = server_node.cpu.busy_ns
    nic = server_node.nic
    snap_over = nic.stats.nacks_sent.get(NackReason.RECV_OVERRUN, 0)
    snap_notres = nic.stats.nacks_sent.get(NackReason.NOT_RESIDENT, 0)
    t0 = sim.now
    cluster.run(until=t0 + ms(ccfg.duration_ms))
    stop["flag"] = True
    elapsed_s = (sim.now - t0) / 1e9

    result = ContentionResult(config=ccfg)
    result.per_client_msgs_s = [
        (counts[i] - snap_counts[i]) / elapsed_s for i in range(ccfg.nclients)
    ]
    result.aggregate_msgs_s = sum(result.per_client_msgs_s)
    result.aggregate_mb_s = result.aggregate_msgs_s * ccfg.msg_bytes / 1e6
    result.remaps_per_s = (server_node.driver.stats.remaps - snap_remaps) / elapsed_s
    result.overrun_nacks = nic.stats.nacks_sent.get(NackReason.RECV_OVERRUN, 0) - snap_over
    result.not_resident_nacks = (
        nic.stats.nacks_sent.get(NackReason.NOT_RESIDENT, 0) - snap_notres
    )
    result.server_cpu_util = (server_node.cpu.busy_ns - snap_cpu) / (sim.now - t0)
    return result
