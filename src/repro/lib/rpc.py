"""A small RPC package over Active Messages.

Figure 1 lists remote-procedure-call packages among the system software
running over virtual networks.  This is the minimal client/server RPC the
examples use: a server registers named procedures on an endpoint; clients
call them and block for the result.  Unreachable servers surface through
the return-to-sender error model rather than client timeouts (§3.2).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..am.endpoint import Endpoint
from ..osim.threads import Thread

__all__ = ["RpcServer", "RpcClient", "RpcError"]


class RpcError(Exception):
    """Call failed: procedure unknown or request undeliverable."""


class RpcServer:
    """Registry of procedures served from one endpoint."""

    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint
        self._procs: dict[str, Callable[..., Any]] = {}
        self.calls_served = 0

    def register(self, name: str, fn: Callable[..., Any]) -> None:
        if name in self._procs:
            raise ValueError(f"procedure {name!r} already registered")
        self._procs[name] = fn

    def _dispatch(self, token, name: str, args: tuple):
        fn = self._procs.get(name)
        if fn is None:
            token.reply(RpcClient._complete, None, f"no such procedure {name!r}")
            return
        self.calls_served += 1
        result = fn(*args)
        token.reply(RpcClient._complete, result, None)

    def serve_loop(self, thr: Thread, stop: dict) -> Generator:
        """Event-driven service loop (run as a thread body)."""
        return self.endpoint.serve(thr, stop)


class RpcClient:
    """Issues calls through one endpoint; one outstanding call at a time."""

    def __init__(self, endpoint: Endpoint, server_index: int = 0):
        self.endpoint = endpoint
        self.server_index = server_index
        self._completion: Optional[tuple] = None
        endpoint._rpc_client = self
        endpoint.undeliverable_handler = self._undeliverable

    @staticmethod
    def _complete(token, result, error):
        client = token.endpoint._rpc_client
        client._completion = (result, error)

    def _undeliverable(self, msg, reason):
        self._completion = (None, f"undeliverable: {reason}")

    def call(self, thr: Thread, server: RpcServer, name: str, *args: Any) -> Generator:
        """Blocking RPC; returns the result or raises :class:`RpcError`."""
        self._completion = None
        yield from self.endpoint.request(
            thr, self.server_index, server._dispatch, name, args
        )
        result, error = yield from self.endpoint.spin(thr, lambda: self._completion)
        if error is not None:
            raise RpcError(error)
        return result
