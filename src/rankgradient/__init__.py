"""Rank gradient, homology gradients and graphings along chains of
finite-index subgroups of finitely presented groups."""

__version__ = "0.1.0"
