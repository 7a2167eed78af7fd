"""Exact-arithmetic combinatorics of rank-one super modules, their Frobenius
thickenings, orthosymplectic root and flag data, and linkage graphs."""

from .padic import Prime, a_val, all_divisible, binom_mod, defect, digits
from .sl2 import decompose_sl2, linked_sl2
from .spo21 import block_of, comp_factors_h0, hom_dim, ker_im_coker_factors
from .frobenius import comp_factors_r, psi_r_ker_im_coker
from .rootdata import GroupShape, chain_of_borels, phi_plus, standard_flag

__all__ = [
    "Prime",
    "a_val",
    "all_divisible",
    "binom_mod",
    "defect",
    "digits",
    "decompose_sl2",
    "linked_sl2",
    "block_of",
    "comp_factors_h0",
    "hom_dim",
    "ker_im_coker_factors",
    "comp_factors_r",
    "psi_r_ker_im_coker",
    "GroupShape",
    "chain_of_borels",
    "phi_plus",
    "standard_flag",
]

__version__ = "0.1.0"
