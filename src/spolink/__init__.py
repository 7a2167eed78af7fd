"""Exact-arithmetic combinatorics of rank-one super modules, their Frobenius
thickenings, orthosymplectic root and flag data, and linkage graphs."""

__version__ = "0.1.0"
