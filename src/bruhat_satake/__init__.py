"""Exact combinatorics of parabolic double cosets, Schubert cells over
finite fields, Satake-side determinant identities, p-adic coset
invariants, and ordinary parts of Koszul cohomology.

Import names from their modules (``from bruhat_satake.weyl import type_a``).
"""

from . import flagfq, kernels, ordcoh, padic, roots, satake, weyl

__version__ = "0.1.0"
