"""Simulated Ethernet LAN: message types and the transport."""
