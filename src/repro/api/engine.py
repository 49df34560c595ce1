"""Engine abstraction: callers never construct kernels by hand.

Every harness in the tree (Session/Cluster, chaos, scale, calib,
tenant, the perf suite) picks its kernel through one resolvable notion
of *engine*:

``"sequential"``
    the optimized pooled-entry kernel (:class:`repro.sim.core.Simulator`)
    — the default;
``"reference"``
    the pre-optimization kernel kept as an executable ordering oracle
    (:class:`repro.sim.reference.ReferenceSimulator`);
``"sharded"``
    the conservative-window PDES kernel (:mod:`repro.sim.sharded`) —
    shard-partitionable scenarios only; with ``num_shards == 1`` it
    degrades to the sequential kernel so any harness can be pointed at
    it without code changes.

Resolution accepts a name, an :class:`Engine` instance, or ``None``
(fall back to ``cfg.engine``).  Harnesses call :func:`resolve_kernel` to
turn that into a kernel-factory callable; anything needing the full
sharded runner goes through :meth:`ShardedEngine.simulator`.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

__all__ = [
    "ENGINE_NAMES",
    "Engine",
    "EngineError",
    "ReferenceEngine",
    "SequentialEngine",
    "ShardedEngine",
    "resolve_engine",
    "resolve_kernel",
]

ENGINE_NAMES = ("sequential", "reference", "sharded")


class EngineError(RuntimeError):
    """An engine cannot serve the requested role (e.g. the sharded
    engine asked to drive a monolithic, non-partitionable harness)."""


class Engine:
    """How simulated time is executed.  Subclasses are stateless and
    cheap; resolve one per run."""

    name: str = "?"

    def kernel_factory(self) -> Callable:
        """A zero-arg callable building the event kernel for harnesses
        that drive one monolithic simulation."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class SequentialEngine(Engine):
    name = "sequential"

    def kernel_factory(self) -> Callable:
        from ..sim.core import Simulator

        return Simulator


class ReferenceEngine(Engine):
    name = "reference"

    def kernel_factory(self) -> Callable:
        from ..sim.reference import ReferenceSimulator

        return ReferenceSimulator


class ShardedEngine(Engine):
    """The PDES kernel.  Monolithic harnesses (the full AM stack under
    a Session) are not shard-partitionable — those get a clear error
    unless ``num_shards == 1``, where sharding is a no-op by
    construction and the plain kernel is the honest answer."""

    name = "sharded"

    def __init__(self, num_shards: int = 1, lookahead_us: float = 0.0,
                 trunk_latency_us: float = 25.0):
        self.num_shards = num_shards
        self.lookahead_us = lookahead_us
        self.trunk_latency_us = trunk_latency_us

    @classmethod
    def from_config(cls, cfg) -> "ShardedEngine":
        return cls(num_shards=cfg.num_shards,
                   lookahead_us=cfg.shard_lookahead_us,
                   trunk_latency_us=cfg.shard_trunk_latency_us)

    def describe(self) -> str:
        return (f"sharded x{self.num_shards} "
                f"(trunk {self.trunk_latency_us}us)")

    def kernel_factory(self) -> Callable:
        if self.num_shards == 1:
            from ..sim.core import Simulator

            return Simulator
        raise EngineError(
            f"engine {self.describe()!r} cannot drive a monolithic "
            "harness: this workload builds one shared cluster, which "
            "is not shard-partitionable. Use engine='sequential' (or "
            "num_shards=1), or run a shard-partitioned scenario via "
            "repro.sim.sharded / run_bench('shard_scaling').")

    def simulator(self, cfg, scenario: str = "uniform",
                  params: Optional[dict] = None):
        """The full sharded runner for shard-partitioned scenarios."""
        from ..sim.sharded import ShardedSimulator

        cfg = cfg.with_(engine="sharded", num_shards=self.num_shards,
                        shard_lookahead_us=self.lookahead_us,
                        shard_trunk_latency_us=self.trunk_latency_us)
        return ShardedSimulator(cfg, scenario=scenario, params=params)


_BY_NAME = {
    "sequential": SequentialEngine,
    "reference": ReferenceEngine,
    "sharded": ShardedEngine,
}


def resolve_engine(spec: Union[None, str, Engine], cfg=None) -> Engine:
    """Turn a user-facing engine spec into an :class:`Engine`.

    ``None`` consults ``cfg.engine`` (default sequential); a name
    builds the registered engine (the sharded one picking up its knobs
    from ``cfg``); an :class:`Engine` passes through.
    """
    if isinstance(spec, Engine):
        return spec
    if spec is None:
        spec = getattr(cfg, "engine", None) or "sequential"
    if not isinstance(spec, str):
        raise EngineError(f"not an engine spec: {spec!r}")
    cls = _BY_NAME.get(spec)
    if cls is None:
        raise EngineError(
            f"unknown engine {spec!r}; registered: {sorted(_BY_NAME)}")
    if cls is ShardedEngine and cfg is not None:
        return ShardedEngine.from_config(cfg)
    return cls()


def resolve_kernel(engine: Union[None, str, Engine], cfg=None) -> Callable:
    """Resolve ``engine`` and hand back its kernel factory."""
    return resolve_engine(engine, cfg).kernel_factory()
