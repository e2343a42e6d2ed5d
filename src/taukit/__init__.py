"""taukit: exact Schur-series tau functions of hypergeometric type.

The package computes the double Schur series with content-product weights,
its hypergeometric and matrix-model specializations, determinant and
free-fermion representations, and ships independent Monte Carlo / Wick /
quadrature oracles for every identity it claims.
"""

__version__ = "0.1.0"

from .partitions import Partition, enumerate_partitions, from_frobenius
from .symfun import (
    PolyRing,
    PolySeries,
    Poly1,
    Times,
    cauchy_truncated,
    characters,
    exp_series,
    h_list,
    miwa,
    schur,
    schur_expansion,
    schur_from_eigenvalues,
)
from .weights import (
    ConstantOneContent,
    ContentFunction,
    ContentPoleError,
    ContentZeroError,
    LinearContent,
    ProductContent,
    QRationalContent,
    RationalContent,
    TabulatedContent,
    content_product,
    hook_product,
    parse_content,
    pochhammer,
    rational_r_decomposition,
)
from .tau import (
    Eigs,
    Formal,
    QGeo,
    TauSeries,
    TauSpec,
    TInf,
    WeightA,
    baker_akhiezer_dual,
    det_rep_derivatives,
    det_rep_one_side,
    det_rep_two_side,
    hirota_residual,
    hyper_pfs,
    hyper_q,
    hyper_two_arg,
    ode_residual,
    pfs_one_var_coeffs,
    q_difference_residual,
    qphi_one_var_coeffs,
    symmetry_checks,
    tau_series,
)
from .fock import (
    FockOperator,
    FockState,
    FockVector,
    exp_action,
    lemma1_check,
    pair,
    psi_apply,
    schur_of_operators,
    trace_h0,
)
from . import models, oracle
