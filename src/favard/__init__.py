"""Favard length, conical energies, anisotropic dyadic lattices, and
Lipschitz-graph extraction on explicit finite set models.

The library works with finite unions of segments and discrete measures in the
plane. Directions live on the torus T = R/Z. The main entry points:

- ``favard.torus``      angles, triadic intervals, cones, tube metrics
- ``favard.sets``       segment unions, dyadic square sets, Cantor generators
- ``favard.projection`` exact projections, Favard quadrature, maximal functions
- ``favard.conical``    conical energies, bad scales, good-direction selection
- ``favard.lattice``    generalized anisotropic lattices and their invariants
- ``favard.tree``       the good-direction tree, packing sums, propagation
- ``favard.graphs``     bad-scale reduction and Lipschitz graph certificates
- ``favard.pipeline``   the end-to-end pipeline: big projections to a graph
- ``favard.cli``        the ``favard`` command line driver
"""

__version__ = "0.1.0"
