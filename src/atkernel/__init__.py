"""Exact symbolic kernel for cocycle-level characteristic class identities
on Koszul resolutions, with integral-dependence invariants for monomial
ideals."""

__version__ = "0.1.0"
