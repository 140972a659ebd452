"""Exact q-oscillator representations of quantum loop Borel algebras.

The package computes, in exact rational-function arithmetic over the
deformation parameter q, the l-weights of the q-oscillator modules carried by
the positive Borel subalgebra of the quantum loop algebra of sl(l+1), and
verifies them against closed-form rational functions and prefundamental
tensor-product factorizations.
"""

from .borelrep import (
    Evaluator,
    OscWord,
    RepSpec,
    get_evaluator,
    image_e,
    image_qh,
    serre_check,
    serre_sum,
    weight_relation_check,
)
from .exactfield import (
    QRational,
    URational,
    USeries,
    ZeroConstantTerm,
    kappa,
    qfactorial,
    qnum,
)
from .fock import FockState, ModePattern
from .lweights import (
    LWeight,
    NotDiagonal,
    Undecided,
    Weight,
    closed_lambda,
    closed_psi,
    factor_check,
    lweight_product,
    oscillator_lweight,
    phi_series,
    prefundamental,
    verify_grid,
)
from .rootsys import CartanExponent, NotAPositiveRoot, RootIndex, bilinear, cartan_entry
from .rootvectors import (
    chi,
    chi_bracket,
    drinfeld_check,
    drinfeld_check_minus,
    e_dual,
    e_prime_imag,
    e_real,
    e_unprimed_imag,
    xi_minus,
    xi_plus,
)

__version__ = "0.1.0"
