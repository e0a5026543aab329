"""The fixed-point-free scheme: the m = 2 case of the cyclic coset states.

For a hidden key pi in K_n (a fixed-point-free involution, n = 2 mod 4) the
cyclic symbol-0 and symbol-1 states of qscdcyc are the plus and minus
two-point coset states: gen_plus is gen_cyc at m = 2 and symbol 0, and the
trapdoor test is decode_cyc at m = 2 read as YES on symbol 0, each behind
the ff degree check. This module adds what only m = 2 has: the maximally
mixed state iota, and the key-free sign-phase conversion between plus and
minus. It also holds the distinguisher type that the reductions feed with
tuples of bare states drawn from either scheme.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .permgroup import Permutation, random_permutation, require_cyclic_key, require_ff_degree
from .qscdcyc import decode_cyc, gen_cyc
from .qstate import SparseState, basis_state

# A distinguisher maps the visible states plus an RNG handle to a bit.
Distinguisher = Callable[[Sequence[SparseState], np.random.Generator], int]


def gen_plus(pi: Permutation, rng: np.random.Generator) -> SparseState:
    """Fresh draw from the plus mixture for key pi: the symbol-0 coset state.

    The result is (|sigma> + |sigma pi>) / sqrt(2) for a uniform sigma.
    """
    require_ff_degree(pi.n)
    return gen_cyc(pi, 0, 2, rng)


def gen_iota(n: int, rng: np.random.Generator) -> SparseState:
    """Fresh draw from the maximally mixed state: |sigma> for uniform sigma."""
    sigma = random_permutation(n, rng)
    return basis_state(0, sigma, m=1)


def convert(state: SparseState) -> SparseState:
    """Sign-phase flip: maps plus draws to minus draws and fixes iota.

    Works without the key: multiplying each basis amplitude by (-1)^parity
    flips the relative phase of a two-point coset state because the hidden
    involution is odd, so the two support points have opposite parity.
    """
    require_ff_degree(state.n)
    return state.phase_by_sign()


def distinguish(state: SparseState, pi: Permutation, rng: np.random.Generator) -> int:
    """Trapdoor test: 1 (YES, plus) on decoded symbol 0, else 0 (NO, minus)."""
    require_ff_degree(pi.n)
    require_cyclic_key(pi, 2)
    return 1 if decode_cyc(state, pi, rng) == 0 else 0
