"""Operating-system resource management: threads, the endpoint segment driver."""

from .process import UserProcess
from .segdriver import DriverStats, SegmentDriver
from .threads import CondVar, Mutex, Thread

__all__ = [
    "CondVar",
    "DriverStats",
    "Mutex",
    "SegmentDriver",
    "Thread",
    "UserProcess",
]
