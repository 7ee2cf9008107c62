"""Tight relative 2-designs on two shells of the binary Hamming scheme H(n,2).

Exact-arithmetic toolkit: spectral primitives (`hamming`), the weighted
design model (`designs`), design verification (`verify`), parameter-row
enumeration (`feasibility`), constructions from symmetric designs, Hadamard
2-designs among them (`constructions`), symmetric designs generated by search
(`symmetric`), the registry of one design per parameter row (`catalog`), and
the refutation pipeline (`nonexistence`).
"""
