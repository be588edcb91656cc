"""Numerical construction and verification of equivariant Lenard complexes,
the associated WDVV identities, and the quadratic hydrodynamic example."""

__version__ = "0.1.0"
