"""Competitive online EV charging under real-time pricing."""

__version__ = "0.1.0"
