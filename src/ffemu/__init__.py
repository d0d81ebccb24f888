"""Fuzzy finite element model updating for mass-spring structures.

Measured modal data with triangular membership functions go in; fuzzy
membership functions of the uncertain stiffness parameters come out, one
constrained interval optimization per alpha-cut level. Continuous ant
colony optimization and particle swarm optimization drive the search, with
a random-walk Metropolis-Hastings sampler as the probabilistic baseline.
"""

__version__ = "0.1.0"
