"""Active Messages II over virtual networks: the paper's core contribution."""

from .bundle import Bundle
from .endpoint import AmStats, Endpoint, Token
from .errors import AmError, BadTranslationError, EndpointFreedError
from .names import NameService
from .vnet import (
    VirtualNetwork,
    new_endpoint,
    parallel_vnet,
    star_vnet,
)

__all__ = [
    "AmError",
    "AmStats",
    "BadTranslationError",
    "Bundle",
    "Endpoint",
    "EndpointFreedError",
    "NameService",
    "Token",
    "VirtualNetwork",
    "new_endpoint",
    "parallel_vnet",
    "star_vnet",
]
