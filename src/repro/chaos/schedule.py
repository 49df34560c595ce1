"""Seeded fault-schedule generation for chaos runs.

A :class:`Scenario` is a named, seeded, duration-bounded list of
:class:`FaultAction`\\ s — the adversary's script.  Actions are abstract
(they name nodes, spines, and workload processes by index, not by
object) so a scenario can be generated before the cluster it will attack
exists; :mod:`repro.chaos.runner` resolves them against a live cluster.

The :class:`ScheduleGenerator` composes the fault repertoire of
:class:`~repro.myrinet.fault.FaultInjector` — loss/corruption ramps,
spine and host-link flaps, crash/reboot storms, and the process-level
faults (kill, pause/resume, forced endpoint eviction) — into scenarios
under three intensity profiles.  Generation is deterministic: the same
``(seed, profile, scenario name)`` always yields byte-identical action
lists (``random.Random`` is seeded with a string, which Python hashes
with SHA-512, stable across processes).

Every generated scenario is *well formed* (checked by
:meth:`Scenario.validate`): transient disturbances are reverted before
the scenario ends — loss and corruption ramp back to zero, every downed
spine and host link comes back up, every crashed node reboots, every
paused process resumes — so the run can reach quiescence.  Process
kills are the one permanent fault: a killed process stays dead, and the
delivery contract answers with return-to-sender, not recovery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = ["FaultAction", "Scenario", "ScheduleGenerator", "SCENARIO_FAMILIES", "PROFILES",
           "calm_scenario"]

#: action kinds and their parameter tuples (resolved by the runner)
ACTION_KINDS = (
    "set_loss",       # (prob,)
    "set_corruption", # (prob,)
    "spine",          # (spine, up)
    "hostlink",       # (host, up)
    "crash",          # (node,)
    "reboot",         # (node,)
    "kill_proc",      # (proc_idx,)
    "pause_proc",     # (proc_idx,)
    "resume_proc",    # (proc_idx,)
    "evict_ep",       # (ep_idx,)
)

#: intensity profiles: how hard each scenario family hits
PROFILES: dict[str, dict[str, float]] = {
    "mild":   {"loss_peak": 0.02, "corrupt_peak": 0.01, "flaps": 1, "outage_frac": 0.08,
               "crashes": 1, "kills": 1, "pauses": 1, "evicts": 2},
    "rough":  {"loss_peak": 0.08, "corrupt_peak": 0.04, "flaps": 2, "outage_frac": 0.12,
               "crashes": 2, "kills": 1, "pauses": 2, "evicts": 4},
    "brutal": {"loss_peak": 0.20, "corrupt_peak": 0.10, "flaps": 3, "outage_frac": 0.18,
               "crashes": 3, "kills": 2, "pauses": 2, "evicts": 6},
}

SCENARIO_FAMILIES = (
    "loss_ramp",
    "corruption_ramp",
    "spine_flaps",
    "hostlink_flaps",
    "crash_storm",
    "kill_storm",
    "pause_storm",
    "evict_pressure",
    "mixed",
    "tenant_storm",
    "collective_storm",
)


@dataclass(frozen=True)
class FaultAction:
    """One scheduled injection: ``kind(*params)`` at ``at_ns``."""

    at_ns: int
    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown fault action kind {self.kind!r}")


@dataclass
class Scenario:
    """A named, seeded fault script over one run."""

    name: str
    seed: int
    profile: str
    duration_ns: int
    actions: list[FaultAction] = field(default_factory=list)

    def validate(self) -> None:
        """Well-formedness: the scenario must permit quiescence at its end."""
        last = -1
        loss = corrupt = 0.0
        spine_up: dict[int, bool] = {}
        link_up: dict[int, bool] = {}
        crashed: dict[int, bool] = {}
        paused: dict[int, bool] = {}
        killed: set[int] = set()
        for a in self.actions:
            if a.at_ns < 0 or a.at_ns >= self.duration_ns:
                raise ValueError(f"{a} outside [0, {self.duration_ns})")
            if a.at_ns < last:
                raise ValueError("actions must be time-sorted")
            last = a.at_ns
            if a.kind == "set_loss":
                loss = a.params[0]
            elif a.kind == "set_corruption":
                corrupt = a.params[0]
            elif a.kind == "spine":
                spine_up[a.params[0]] = a.params[1]
            elif a.kind == "hostlink":
                link_up[a.params[0]] = a.params[1]
            elif a.kind == "crash":
                if crashed.get(a.params[0]):
                    raise ValueError(f"node {a.params[0]} crashed twice without reboot")
                crashed[a.params[0]] = True
            elif a.kind == "reboot":
                if not crashed.get(a.params[0]):
                    raise ValueError(f"node {a.params[0]} rebooted while up")
                crashed[a.params[0]] = False
            elif a.kind == "kill_proc":
                if a.params[0] in killed:
                    raise ValueError(f"process {a.params[0]} killed twice")
                killed.add(a.params[0])
            elif a.kind == "pause_proc":
                if a.params[0] in killed:
                    raise ValueError("pausing a killed process")
                paused[a.params[0]] = True
            elif a.kind == "resume_proc":
                paused[a.params[0]] = False
        if loss or corrupt:
            raise ValueError("loss/corruption not ramped back to zero")
        for k, up in spine_up.items():
            if not up:
                raise ValueError(f"spine {k} left down")
        for h, up in link_up.items():
            if not up:
                raise ValueError(f"host link {h} left down")
        for n, down in crashed.items():
            if down:
                raise ValueError(f"node {n} left crashed")
        for p, is_paused in paused.items():
            if is_paused and p not in killed:
                raise ValueError(f"process {p} left paused")

    def describe(self) -> str:
        return (f"{self.name}[{self.profile}] seed={self.seed} "
                f"{len(self.actions)} actions / {self.duration_ns / 1e6:.1f} ms")


def calm_scenario(seed: int, duration_ns: int = 20_000_000) -> Scenario:
    """A fault-free scenario: the chaos supervisor and deadlines, zero
    injections — the healthy-path baseline."""
    return Scenario(name="calm", seed=seed, profile="none",
                    duration_ns=duration_ns, actions=[])


class ScheduleGenerator:
    """Deterministically composes fault actions into scenarios.

    ``num_hosts``/``num_spines`` bound the fabric-level targets;
    ``num_procs``/``num_eps`` bound the process-level targets (indices
    into the workload's process and endpoint lists — index 0 is reserved
    as the observer/server side and never killed, so every run retains at
    least one live traffic source to witness return-to-sender).

    **Fault domains** (tenant-scoped storms): ``host_pool``,
    ``proc_pool`` and ``ep_pool`` restrict which indices the generated
    actions may target — e.g. a storm scoped to the noisy tenant passes
    that tenant's host/process/endpoint indices only.  The defaults are
    the full ranges and draw *bit-identically* to the unscoped
    generator (``pool[rng.randrange(len(pool))]`` consumes the same RNG
    state as ``rng.randrange(n)`` when the pool is ``range(n)``), so
    every previously pinned schedule digest is unchanged.  Spine flaps
    and loss/corruption ramps are fabric-wide by nature and therefore
    not poolable; the ``tenant_storm`` family composes only host-scoped
    disturbances (host-link flaps, crash/reboot, kill, pause, evict).
    """

    def __init__(
        self,
        seed: int,
        *,
        num_hosts: int,
        num_spines: int,
        num_procs: int,
        num_eps: int,
        duration_ns: int = 20_000_000,
        profile: str = "rough",
        host_pool: Optional[Sequence[int]] = None,
        proc_pool: Optional[Sequence[int]] = None,
        ep_pool: Optional[Sequence[int]] = None,
    ):
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        self.seed = seed
        self.num_hosts = num_hosts
        self.num_spines = num_spines
        self.num_procs = num_procs
        self.num_eps = num_eps
        self.duration_ns = duration_ns
        self.profile = profile
        self.intensity = PROFILES[profile]
        self.host_pool = list(host_pool) if host_pool is not None else list(range(num_hosts))
        self.proc_pool = list(proc_pool) if proc_pool is not None else list(range(num_procs))
        self.ep_pool = list(ep_pool) if ep_pool is not None else list(range(max(1, num_eps)))
        for name, pool, bound in (("host_pool", self.host_pool, num_hosts),
                                  ("proc_pool", self.proc_pool, num_procs),
                                  ("ep_pool", self.ep_pool, max(1, num_eps))):
            if not pool:
                raise ValueError(f"{name} must not be empty")
            if any(i < 0 or i >= bound for i in pool):
                raise ValueError(f"{name} {pool} outside [0, {bound})")

    # ------------------------------------------------------------- plumbing
    def _rng(self, name: str) -> random.Random:
        return random.Random(f"chaos:{self.seed}:{self.profile}:{name}")

    def _window(self, rng: random.Random, frac: float) -> int:
        """An outage length, jittered, that always fits the scenario."""
        ns = round(self.duration_ns * frac * (0.5 + rng.random()))
        return max(100_000, min(ns, self.duration_ns // 3))

    def _scenario(self, name: str, actions: list[FaultAction]) -> Scenario:
        sc = Scenario(
            name=name,
            seed=self.seed,
            profile=self.profile,
            duration_ns=self.duration_ns,
            actions=sorted(actions, key=lambda a: (a.at_ns, a.kind, a.params)),
        )
        sc.validate()
        return sc

    def generate(self, name: str) -> Scenario:
        if name not in SCENARIO_FAMILIES:
            raise ValueError(f"unknown scenario family {name!r} "
                             f"(choose from {SCENARIO_FAMILIES})")
        return getattr(self, "_gen_" + name)()

    def all(self) -> list[Scenario]:
        return [self.generate(name) for name in SCENARIO_FAMILIES]

    # ------------------------------------------------------------- families
    def _ramp(self, kind: str, peak: float, rng: random.Random) -> list[FaultAction]:
        """Probability staircase up to ``peak`` and back down to zero."""
        steps = 2 + rng.randrange(3)
        start = round(self.duration_ns * 0.1 * rng.random())
        end = round(self.duration_ns * (0.55 + 0.2 * rng.random()))
        acts = []
        for i in range(steps):
            t = start + (end - start) * i // steps
            level = round(peak * (i + 1) / steps, 4)
            acts.append(FaultAction(t, kind, (level,)))
        acts.append(FaultAction(end, kind, (0.0,)))
        return acts

    def _gen_loss_ramp(self) -> Scenario:
        rng = self._rng("loss_ramp")
        return self._scenario(
            "loss_ramp", self._ramp("set_loss", self.intensity["loss_peak"], rng))

    def _gen_corruption_ramp(self) -> Scenario:
        rng = self._rng("corruption_ramp")
        return self._scenario(
            "corruption_ramp",
            self._ramp("set_corruption", self.intensity["corrupt_peak"], rng))

    def _flaps(self, rng: random.Random, kind: str, pool: Sequence[int]) -> list[FaultAction]:
        acts: list[FaultAction] = []
        n = int(self.intensity["flaps"])
        for _ in range(n):
            target = pool[rng.randrange(len(pool))]
            down_at = round(self.duration_ns * 0.6 * rng.random())
            up_at = down_at + self._window(rng, self.intensity["outage_frac"])
            up_at = min(up_at, self.duration_ns - 1)
            acts.append(FaultAction(down_at, kind, (target, False)))
            acts.append(FaultAction(up_at, kind, (target, True)))
        # Flaps of one target must not interleave down/down/up/up: collapse
        # to the final state per target per timestamp by re-sorting and
        # dropping overlapping extra downs.
        return self._serialize_flaps(acts, self.duration_ns)

    @staticmethod
    def _serialize_flaps(acts: list[FaultAction], duration_ns: int) -> list[FaultAction]:
        """Drop nested down/up pairs so per-target state strictly alternates."""
        out: list[FaultAction] = []
        state: dict[tuple, bool] = {}
        for a in sorted(acts, key=lambda a: (a.at_ns, a.params[1])):
            target = (a.kind, a.params[0])
            if state.get(target, True) == a.params[1]:
                continue  # already in that state: redundant flap
            state[target] = a.params[1]
            out.append(a)
        # Anything left down gets a closing up right before the end.
        t_close = min(max((a.at_ns for a in out), default=0) + 1, duration_ns - 1)
        for (kind, target), up in sorted(state.items()):
            if not up:
                out.append(FaultAction(t_close, kind, (target, True)))
        return out

    def _gen_spine_flaps(self) -> Scenario:
        rng = self._rng("spine_flaps")
        if self.num_spines == 0:
            return self._scenario("spine_flaps", [])  # single-leaf fabric
        return self._scenario("spine_flaps",
                              self._flaps(rng, "spine", range(self.num_spines)))

    def _gen_hostlink_flaps(self) -> Scenario:
        rng = self._rng("hostlink_flaps")
        return self._scenario("hostlink_flaps",
                              self._flaps(rng, "hostlink", self.host_pool))

    def _crashes(self, rng: random.Random) -> list[FaultAction]:
        acts: list[FaultAction] = []
        busy_until: dict[int, int] = {}
        for _ in range(int(self.intensity["crashes"])):
            node = self.host_pool[rng.randrange(len(self.host_pool))]
            crash_at = round(self.duration_ns * 0.5 * rng.random())
            crash_at = max(crash_at, busy_until.get(node, 0))
            boot_at = min(crash_at + self._window(rng, self.intensity["outage_frac"]),
                          self.duration_ns - 1)
            if boot_at <= crash_at:
                continue
            busy_until[node] = boot_at + 1
            acts.append(FaultAction(crash_at, "crash", (node,)))
            acts.append(FaultAction(boot_at, "reboot", (node,)))
        return acts

    def _gen_crash_storm(self) -> Scenario:
        return self._scenario("crash_storm", self._crashes(self._rng("crash_storm")))

    def _kills(self, rng: random.Random) -> list[FaultAction]:
        acts: list[FaultAction] = []
        # Never kill proc 0 (the server/observer side): someone must stay
        # alive to witness the returns.
        victims = [p for p in self.proc_pool if p != 0]
        rng.shuffle(victims)
        for proc in victims[: int(self.intensity["kills"])]:
            # Early in the run, so the kill lands while traffic to/from the
            # victim is still in flight and return-to-sender is exercised.
            at = round(self.duration_ns * (0.02 + 0.15 * rng.random()))
            acts.append(FaultAction(at, "kill_proc", (proc,)))
        return acts

    def _gen_kill_storm(self) -> Scenario:
        return self._scenario("kill_storm", self._kills(self._rng("kill_storm")))

    def _pauses(self, rng: random.Random) -> list[FaultAction]:
        acts: list[FaultAction] = []
        busy_until: dict[int, int] = {}
        for _ in range(int(self.intensity["pauses"])):
            proc = self.proc_pool[rng.randrange(len(self.proc_pool))]
            at = round(self.duration_ns * 0.5 * rng.random())
            at = max(at, busy_until.get(proc, 0))
            until = min(at + self._window(rng, self.intensity["outage_frac"]),
                        self.duration_ns - 1)
            if until <= at:
                continue
            busy_until[proc] = until + 1
            acts.append(FaultAction(at, "pause_proc", (proc,)))
            acts.append(FaultAction(until, "resume_proc", (proc,)))
        return acts

    def _gen_pause_storm(self) -> Scenario:
        return self._scenario("pause_storm", self._pauses(self._rng("pause_storm")))

    def _evicts(self, rng: random.Random) -> list[FaultAction]:
        acts = []
        for _ in range(int(self.intensity["evicts"])):
            ep = self.ep_pool[rng.randrange(len(self.ep_pool))]
            at = round(self.duration_ns * 0.7 * rng.random())
            acts.append(FaultAction(at, "evict_ep", (ep,)))
        return acts

    def _gen_evict_pressure(self) -> Scenario:
        return self._scenario("evict_pressure", self._evicts(self._rng("evict_pressure")))

    def _gen_tenant_storm(self) -> Scenario:
        """Every host-scoped disturbance at once, confined to the pools.

        The fault-domain scenario: with ``host_pool``/``proc_pool``/
        ``ep_pool`` set to one tenant's indices, this storm rains
        host-link flaps, a crash/reboot, kills, pauses and forced
        evictions on that tenant only — the other tenants see a healthy
        fabric except for whatever interference leaks through shared
        resources, which is exactly what ``check_isolation`` audits.
        """
        pieces: list[FaultAction] = []
        pieces += self._flaps(self._rng("tenant.flap"), "hostlink", self.host_pool)
        pieces += self._crashes(self._rng("tenant.crash"))
        kills = self._kills(self._rng("tenant.kill"))
        pieces += kills
        killed_at = {a.params[0]: a.at_ns for a in kills}
        # A pause landing on (or after) a kill of the same process would
        # make the scenario ill-formed; drop the whole pause/resume pair.
        pauses = self._pauses(self._rng("tenant.pause"))
        dead_pairs = {a.params[0] for a in pauses
                      if a.kind == "pause_proc"
                      and a.params[0] in killed_at
                      and a.at_ns >= killed_at[a.params[0]]}
        pieces += [a for a in pauses if a.params[0] not in dead_pairs]
        pieces += self._evicts(self._rng("tenant.evict"))
        return self._scenario("tenant_storm", pieces)

    def _gen_collective_storm(self) -> Scenario:
        """Tree-hostile faults aimed at in-flight collectives.

        Host-link flaps sever spanning-tree edges mid-broadcast (a down
        step crossing the flapped link is lost, and with it the subtree
        below that NI), and a crash/reboot takes out a tree-interior NI so
        its per-(root, vnet) collective state is dropped and the
        survivors' operations time out instead of deadlocking.
        Composed purely from name-keyed RNG streams so
        every previously pinned schedule digest is unchanged.
        """
        pieces: list[FaultAction] = []
        pieces += self._flaps(self._rng("collective.flap"), "hostlink",
                              self.host_pool)
        pieces += self._crashes(self._rng("collective.crash"))
        return self._scenario("collective_storm", pieces)

    def _gen_mixed(self) -> Scenario:
        """A bit of everything, composed from the other families."""
        pieces: list[FaultAction] = []
        pieces += self._ramp("set_loss", self.intensity["loss_peak"] / 2,
                             self._rng("mixed.loss"))
        if self.num_spines:
            pieces += self._flaps(self._rng("mixed.spine"), "spine",
                                  range(self.num_spines))
        rng = self._rng("mixed.crash")
        node = self.host_pool[rng.randrange(len(self.host_pool))]
        crash_at = round(self.duration_ns * 0.3 * rng.random())
        boot_at = min(crash_at + self._window(rng, self.intensity["outage_frac"]),
                      self.duration_ns - 1)
        if boot_at > crash_at:
            pieces.append(FaultAction(crash_at, "crash", (node,)))
            pieces.append(FaultAction(boot_at, "reboot", (node,)))
        killable = [p for p in self.proc_pool if p != 0]
        if killable and self.intensity["kills"]:
            kr = self._rng("mixed.kill")
            proc = killable[kr.randrange(len(killable))]
            pieces.append(FaultAction(
                round(self.duration_ns * (0.35 + 0.2 * kr.random())),
                "kill_proc", (proc,)))
        return self._scenario("mixed", pieces)
