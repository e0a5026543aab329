"""Exact desk-scale simulator for coset-state distinction over S_n.

Subpackages: permgroup (symmetric-group arithmetic and key classes), qstate
(sparse state simulation), qscdcyc (the coset-state primitive over K_n^m),
qscdff (its m = 2 case, the single-bit primitive), graphauto (automorphism
search and the promise-problem bridge), reductions (security reductions and
the advantage harness), pkc (the encryption protocols), cli (command-line
front end), selftest (the acceptance suite).
"""

from .permgroup import (
    Permutation,
    SecurityParam,
    compose,
    inverse,
    sample_cyclic,
    sample_fpf_involution,
    sign,
)
from .qscdcyc import decode_cyc, gen_cyc
from .qscdff import Distinguisher, convert, distinguish, gen_iota, gen_plus
from .qstate import SparseState, basis_state, states_equal
from .graphauto import (
    Graph,
    PromiseInstance,
    PromiseViolation,
    coset_sample,
    group_order,
    koebler_reduce,
    unique_ga_ff_oracle,
)
from .pkc import Ciphertext, KeyPair, decrypt, encrypt_cyc, encrypt_ff, keygen
from .reductions import (
    AttackParams,
    DistinguisherReport,
    estimate_advantage,
    ga_attack,
    hybrid_to_iota,
    randomize_to_average,
)
from .seeding import derive_rng
from .selftest import run_selftest

__version__ = "0.1.0"
