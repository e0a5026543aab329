"""Exact desk-scale simulator for coset-state distinction over S_n.

Modules, which are the API: permgroup (symmetric-group arithmetic and key
classes), qstate (sparse state simulation), qscdcyc (the coset-state primitive
over K_n^m), qscdff (its m = 2 case, the single-bit primitive), graphauto
(automorphism search and the promise-problem bridge), reductions (security
reductions and the advantage harness), pkc (the encryption protocols), seeding
(seed streams), cli (command-line front end), selftest (the acceptance suite).
"""

from . import graphauto, permgroup, pkc, qscdcyc, qscdff, qstate, reductions, seeding, selftest

__version__ = "0.1.0"
