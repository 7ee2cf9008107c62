"""Tight relative 2-designs on two shells of the binary Hamming scheme H(n,2).

Exact-arithmetic toolkit: spectral primitives (`hamming`), the weighted
design model (`designs`), design verification (`verify`), parameter-row
enumeration (`feasibility`), constructions from symmetric designs, Hadamard
2-designs among them (`constructions`), symmetric designs generated by search
(`symmetric`), the registry of one design per parameter row (`catalog`), and
the refutation pipeline (`nonexistence`).
"""

from .designs import (
    MalformedFile,
    RelationProfile,
    ShellProfile,
    WeightedDesign,
    WrongShellCount,
    complement,
    load,
    relation_profile,
    save,
    shells_of,
)
from .feasibility import ParameterRow, candidate_row, enumerate_rows
from .hamming import BinaryWord, binomial, krawtchouk, shell_intersection
from .nonexistence import (
    PairLambdaSolution,
    PointLambdas,
    Verdict,
    counting_filters,
    csp_search,
    decide,
    pair_lambda_solutions,
    point_lambdas,
)
from .verify import (
    BalancedReport,
    CheckResult,
    MomentsReport,
    TightnessReport,
    balanced_check,
    frame_check,
    full_check,
    moments_check,
    tightness_check,
    weight_constancy_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
