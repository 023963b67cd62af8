"""Fused vectorized predicate & join-key kernels.

The engine imports the evaluator modules (:mod:`repro.kernels.fused`,
:mod:`repro.kernels.dictionary`) directly where they are used.
"""
