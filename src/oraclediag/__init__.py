"""Exact-arithmetic machinery for generic-group and random-oracle experiments.

The package provides cylinder-set measures over bit sequences and over
families of group-element encodings, a branching-program machine for
generic algorithms with exact discrete-log / Diffie-Hellman experiment
probabilities, random-oracle test-set construction with exact measure
identities, and the diagonal escape construction that produces finite
prefixes provably outside an enumerated open set of measure below one.
"""

__version__ = "0.1.0"
