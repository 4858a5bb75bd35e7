"""Deterministic simulator for self-stabilizing mobile-agent gossip on
anonymous port-labeled graphs."""

__version__ = "0.1.0"
