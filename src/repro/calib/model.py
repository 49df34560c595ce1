"""Closed-form LogP constants implied by a :class:`ClusterConfig`.

This is the *other* side of the calibration round trip: the same
constants the sweep measures from spans, derived analytically from the
configured cost model.  Every term references the mechanism that pays
it, so a divergence in the round trip points at the exact code path
whose timing leaked:

* ``os`` / ``or`` — the host overheads, paid verbatim by
  :meth:`Endpoint.request` / :meth:`Endpoint.poll` on the resident
  small-message path;
* the latency surface ``D(links, s) = ν + τ·links + β·s`` — ν is NI
  send service (``ni_send_instr``) + NI receive service
  (``ni_recv_instr`` + the defensive ``ni_errcheck_instr``) plus the
  header's wire time minus one hop (the surface is parameterized on
  *links*, and a route of ``n`` links pays ``n−1`` cut-through hops);
  τ is the per-hop cost (switch cut-through + cable + per-hop header
  serialization, :class:`~repro.myrinet.network.Network`'s ``_hop_ns``);
  β is the per-byte link serialization time;
* ``g`` — the small-message steady-state gap: the full per-message NI
  occupancy of one direction of a request/reply pair (send + post-send
  + receive + errcheck + ack generation + ack processing), the §6.1
  12.8 µs budget;
* ``G`` / ``bulk_fixed`` — the bulk pipeline's rate-limiting stage, the
  receiver's SBus write DMA: G is the per-byte DMA rate, and the fixed
  term is everything charged while the engine is still held — DMA
  startup, the completion handling (``ni_bulk_complete_instr``), and
  the delivery's ack generation (``ni_ack_gen_instr``), since the
  firmware's ``_bulk_complete`` only releases the engine after
  ``_finish_delivery`` returns (the real LANai programs the next
  transfer only after handling the previous one's completion).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.config import ClusterConfig
from .fitter import LogPFit

__all__ = ["ConfiguredLogP", "configured_model", "round_trip"]


@dataclass(frozen=True)
class ConfiguredLogP:
    """The configured cost model in the fitter's coordinates (ns)."""

    os_ns: float
    or_ns: float
    lat_fixed_ns: float
    lat_per_link_ns: float
    lat_per_byte_ns: float
    g_ns: float
    G_ns_per_byte: float
    bulk_fixed_ns: float

    def L_ns(self, links: int, nbytes: int = 16) -> float:
        return (self.lat_fixed_ns + self.lat_per_link_ns * links
                + self.lat_per_byte_ns * nbytes)

    def to_json(self) -> dict:
        return {
            "os_ns": round(self.os_ns, 3),
            "or_ns": round(self.or_ns, 3),
            "lat_fixed_ns": round(self.lat_fixed_ns, 3),
            "lat_per_link_ns": round(self.lat_per_link_ns, 3),
            "lat_per_byte_ns": round(self.lat_per_byte_ns, 5),
            "g_ns": round(self.g_ns, 3),
            "G_ns_per_byte": round(self.G_ns_per_byte, 5),
            "bulk_fixed_ns": round(self.bulk_fixed_ns, 3),
        }


def configured_model(cfg: ClusterConfig) -> ConfiguredLogP:
    """Derive the closed-form constants from ``cfg`` (see module doc)."""
    hop_ns = (cfg.switch_latency_ns + cfg.cable_latency_ns
              + round(cfg.packet_header_bytes * cfg.link_byte_ns))
    send_svc = cfg.lanai_ns(cfg.ni_send_instr)
    recv_svc = cfg.lanai_ns(cfg.ni_recv_instr) + cfg.lanai_ns(cfg.ni_errcheck_instr)
    gap = (send_svc
           + cfg.lanai_ns(cfg.ni_send_post_instr)
           + recv_svc
           + cfg.lanai_ns(cfg.ni_ack_gen_instr)
           + cfg.lanai_ns(cfg.ni_ack_proc_instr))
    return ConfiguredLogP(
        os_ns=float(cfg.host_send_overhead_ns),
        or_ns=float(cfg.host_recv_overhead_ns),
        # D(links, s): a route of n links costs (n-1) cut-through hops
        # plus full-packet serialization on the last link, so shifting to
        # a per-link slope leaves ν = services + header wire time − hop.
        lat_fixed_ns=(send_svc + recv_svc
                      + cfg.wire_ns(cfg.packet_header_bytes) - hop_ns),
        lat_per_link_ns=float(hop_ns),
        lat_per_byte_ns=cfg.link_byte_ns,
        g_ns=float(gap),
        G_ns_per_byte=1_000.0 / cfg.sbus_write_mb_s,
        bulk_fixed_ns=float(cfg.sbus_dma_startup_ns
                            + cfg.lanai_ns(cfg.ni_bulk_complete_instr)
                            + cfg.lanai_ns(cfg.ni_ack_gen_instr)),
    )


#: constants compared by :func:`round_trip` (name, human label)
_CONSTANTS = (
    ("os_ns", "o_s"),
    ("or_ns", "o_r"),
    ("g_ns", "g"),
    ("G_ns_per_byte", "G"),
    ("bulk_fixed_ns", "bulk fixed"),
)


def round_trip(fit: LogPFit, model: ConfiguredLogP,
               cells: list[tuple[str, int, int]],
               tolerance: float = 0.10) -> tuple[list[dict], list[str]]:
    """Compare fitted vs configured constants; L is compared per cell.

    ``cells`` lists ``(label, links, nbytes)`` geometries at which the
    two latency surfaces are evaluated (comparing the surfaces where
    they were actually sampled, rather than their raw coefficients,
    keeps the check meaningful when ν and τ trade off slightly).
    Returns ``(comparison rows, failure strings)``.
    """
    rows: list[dict] = []
    failures: list[str] = []

    def compare(label: str, fitted: float, configured: float) -> None:
        rel = abs(fitted - configured) / abs(configured) if configured else 0.0
        ok = rel <= tolerance
        rows.append({
            "constant": label,
            "fitted_ns": round(fitted, 3),
            "configured_ns": round(configured, 3),
            "rel_err": round(rel, 5),
            "ok": ok,
        })
        if not ok:
            failures.append(
                f"{label}: fitted {fitted:.1f} ns vs configured "
                f"{configured:.1f} ns ({rel * 100.0:.1f}% > "
                f"{tolerance * 100.0:.0f}%)")

    for attr, label in _CONSTANTS:
        compare(label, getattr(fit, attr), getattr(model, attr))
    for label, links, nbytes in cells:
        compare(f"L@{label}", fit.L_ns(links, nbytes),
                model.L_ns(links, nbytes))
    return rows, failures
