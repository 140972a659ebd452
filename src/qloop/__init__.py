"""Exact q-oscillator representations of quantum loop Borel algebras.

The package computes, in exact rational-function arithmetic over the
deformation parameter q, the l-weights of the q-oscillator modules carried by
the positive Borel subalgebra of the quantum loop algebra of sl(l+1), and
verifies them against closed-form rational functions and prefundamental
tensor-product factorizations.
"""

from . import borelrep, exactfield, fock, lweights, rootsys, rootvectors

__version__ = "0.1.0"
