"""The fixed-point-free scheme: the m = 2 case of the cyclic coset states.

For a hidden key pi in K_n (a fixed-point-free involution, n = 2 mod 4) the
cyclic symbol-0 and symbol-1 states of qscdcyc are the plus and minus
two-point coset states, and the cyclic decoder is the trapdoor test that
decides plus/minus given pi. This module adds what only m = 2 has: the
maximally mixed state iota, and the key-free sign-phase conversion between
plus and minus. It also holds the distinguisher type that the reductions
feed with tuples of bare states drawn from either scheme.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .permgroup import Permutation, is_cyclic_class, is_ff_degree, random_permutation
from .qscdcyc import decode_cyc, gen_cyc
from .qstate import SparseState, basis_state

# A distinguisher maps the visible states plus an RNG handle to a bit.
Distinguisher = Callable[[Sequence[SparseState], np.random.Generator], int]


def require_ff_key(pi: Permutation) -> None:
    if not is_ff_degree(pi.n):
        raise ValueError(f"degree {pi.n} is not 2 mod 4")
    if not is_cyclic_class(pi, 2):
        raise ValueError("key is not a fixed-point-free involution")


def gen_plus(pi: Permutation, rng: np.random.Generator) -> SparseState:
    """Fresh draw from the plus mixture for key pi: the symbol-0 coset state.

    The result is (|sigma> + |sigma pi>) / sqrt(2) for a uniform sigma.
    """
    require_ff_key(pi)
    return gen_cyc(pi, 0, 2, rng)


def gen_iota(n: int, rng: np.random.Generator) -> SparseState:
    """Fresh draw from the maximally mixed state: |sigma> for uniform sigma."""
    if n < 1:
        raise ValueError("degree must be positive")
    sigma = random_permutation(n, rng)
    return basis_state(0, sigma, m=1)


def convert(state: SparseState) -> SparseState:
    """Sign-phase flip: maps plus draws to minus draws and fixes iota.

    Works without the key: multiplying each basis amplitude by (-1)^parity
    flips the relative phase of a two-point coset state because the hidden
    involution is odd, so the two support points have opposite parity.
    """
    if not is_ff_degree(state.n):
        raise ValueError(f"degree {state.n} is not 2 mod 4")
    return state.phase_by_sign()


def distinguish(state: SparseState, pi: Permutation, rng: np.random.Generator) -> int:
    """Trapdoor test: 1 (YES, plus) on decoded symbol 0, else 0 (NO, minus)."""
    require_ff_key(pi)
    return 1 if decode_cyc(state, pi, rng) == 0 else 0
