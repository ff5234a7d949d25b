"""Exact quantum Chevalley calculus on minuscule flag manifolds.

The package builds root systems for all simple types with exact
integer coroot pairings, enumerates minuscule Weyl orbits as graded coset
representatives, constructs the canonical-basis operator
A(q) = sum_{j=0..l} q^[j=0] E-(j) over integer polynomials in q, node 0
the affine root alpha_0 = -theta (E-(0) = E_psi), computes
quantum multiplication by the Schubert divisor class through three
independent routes, checks the type-A wedge (Satake) similarity and the
D-family half-wedge dimension identities, and realizes the exact
dictionary between Toda asymptotic data, alcove points and holomorphic
exponents, whose distinguished point corresponds to A(q).

The package root binds no names: import each one from its module
(``rootsys``, ``weylorbit``, ``minrep``, ``qchev``, ``satake``,
``ttstar`` or ``cli``), its one import path.
"""
