"""hookpart: cell statistics on integer partitions, verified three ways.

Each cell of a partition's Ferrers diagram carries an arm (cells to its
right), a leg (below), and a left length (to its left).  Over all cells
of all partitions of n, the multiset of (arm, leg) pairs equals the
multiset of (arm, left) pairs; collapsing pairs through c+d+1 identifies
the hook-length and part-length distributions.  This package checks
these identities exhaustively, cross-checks the counts against exact
truncated q-series evaluations of their closed-form generating
functions, and constructs explicit per-n cell matchings that realize
the identity.
"""

from hookpart.anatomy import (
    AnatomyFactors,
    anatomy_factors,
    anatomy_gf,
    corner_count_brute,
    proof_chain,
    verify_anatomy,
)
from hookpart.explorer import CellRef, Matching, canonical_matching, verify_matching
from hookpart.partitions import (
    CellStats,
    box_gf_brute,
    cell_stats,
    cells,
    conjugate,
    count_partitions,
    partitions_of,
)
from hookpart.qseries import (
    QSeries,
    euler_inv,
    gauss_binomial,
    lemma_rhs,
    make_monomial,
    one,
    partial_euler_inv,
    q_pochhammer,
    verify_fact1,
    verify_fact2,
    zero,
)
from hookpart.reports import Discrepancy, VerifyReport
from hookpart.statistics import (
    PairMultiset,
    build_pair_multiset,
    count_pair,
    stat_polynomial,
    verify_fact3,
    verify_fact4,
    verify_identity1,
    verify_lemma,
    verify_theorem1,
)

__version__ = "0.1.0"

__all__ = [
    "AnatomyFactors",
    "CellRef",
    "CellStats",
    "Discrepancy",
    "Matching",
    "PairMultiset",
    "QSeries",
    "VerifyReport",
    "anatomy_factors",
    "anatomy_gf",
    "box_gf_brute",
    "build_pair_multiset",
    "canonical_matching",
    "cell_stats",
    "cells",
    "conjugate",
    "corner_count_brute",
    "count_pair",
    "count_partitions",
    "euler_inv",
    "gauss_binomial",
    "lemma_rhs",
    "make_monomial",
    "one",
    "partial_euler_inv",
    "partitions_of",
    "proof_chain",
    "q_pochhammer",
    "stat_polynomial",
    "verify_anatomy",
    "verify_fact1",
    "verify_fact2",
    "verify_fact3",
    "verify_fact4",
    "verify_identity1",
    "verify_lemma",
    "verify_matching",
    "verify_theorem1",
    "zero",
]
