"""Simulated Ethernet LAN: message types and the transport."""

from .messages import (
    LocationQuery,
    LocationResponse,
    LoginRequest,
    LoginResponse,
    LogoutRequest,
    Message,
    PathQuery,
    PathResponse,
    PresenceInvalidation,
    PresenceUpdate,
    WorkstationHello,
)
from .transport import (
    Handler,
    LANTransport,
    TransportStats,
    UnknownEndpointError,
    latency_ticks,
)

__all__ = [
    "LocationQuery",
    "LocationResponse",
    "LoginRequest",
    "LoginResponse",
    "LogoutRequest",
    "Message",
    "PathQuery",
    "PathResponse",
    "PresenceInvalidation",
    "PresenceUpdate",
    "WorkstationHello",
    "Handler",
    "LANTransport",
    "TransportStats",
    "UnknownEndpointError",
    "latency_ticks",
]
