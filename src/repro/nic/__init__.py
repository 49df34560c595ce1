"""Network interface model: endpoint frames, transport protocol, firmware."""

from .channels import RxPeerState, TxChannel, backoff_ns
from .driver_port import DriverOp, LamportClock, NicNotify
from .endpoint_state import EndpointState, Residency, TranslationEntry
from .firmware import Nic, NicStats
from .message import Message, MessageState, MsgKind, next_msg_id

__all__ = [
    "DriverOp",
    "EndpointState",
    "LamportClock",
    "Message",
    "MessageState",
    "MsgKind",
    "Nic",
    "NicNotify",
    "NicStats",
    "Residency",
    "RxPeerState",
    "TranslationEntry",
    "TxChannel",
    "backoff_ns",
    "next_msg_id",
]
