"""Quadratic-programming encoding of the TSP, its reduced form, the
classic Lagrangian dual, and the inverse feasibility search.

The package root re-exports nothing: import each name from the module
that defines it (`tspdual.instance`, `tspdual.formulation`, ...).
"""

__version__ = "0.1.0"
