"""The coset-state primitive: m-point coset states over keys in K_n^m.

A draw for key pi and symbol s is (1/sqrt(m)) sum_t w^(st) |sigma pi^t> with
w = exp(2 pi i / m) and a uniform hiding translation sigma. The decoder runs
the generalized controlled-key test and recovers s exactly.

The fixed-point-free scheme (qscdff) is the m = 2 case: for a key in K_n,
symbol 0 gives the plus state, symbol 1 the minus state, and the decoder is
the trapdoor test. No key-free conversion between symbols is offered for
m > 2, because none exists: the m = 2 conversion rides on the sign map, the
only homomorphism from S_n onto a cyclic group (its kernel must be a normal
subgroup, and for n > 4 those are just the trivial group, the alternating
group, and S_n itself), so there is no analogous phase trick onto Z_m.

A mixed state is never held as a density matrix: each draw is one pure
SparseState, and nothing else. Which key and symbol it came from is known
only to the caller that drew it, as the paper's adversary sees only states.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .permgroup import Permutation, compose, cycle_type, is_cyclic_class, powers, random_permutation
from .qstate import SparseState


def require_cyclic_key(pi: Permutation, m: int) -> None:
    if m < 2:
        raise ValueError(f"cyclic order must be >= 2, got {m}")
    if not is_cyclic_class(pi, m):
        raise ValueError(f"key is not a product of disjoint {m}-cycles")


def gen_cyc(pi: Permutation, s: int, m: int, rng: np.random.Generator) -> SparseState:
    """Fresh draw encoding symbol s under key pi in K_n^m.

    Draws the hiding translation sigma, then builds the coset superposition
    {|sigma pi^t> : w^(st) / sqrt(m)} over t in Z_m as one state.
    """
    require_cyclic_key(pi, m)
    if not 0 <= s < m:
        raise ValueError(f"symbol {s} out of range for modulus {m}")
    sigma = random_permutation(pi.n, rng)
    scale = 1.0 / math.sqrt(m)
    amps = {
        (0, compose(sigma, power)): scale * cmath.exp(2j * math.pi * s * t / m)
        for t, power in enumerate(powers(pi, m)[:m])
    }
    return SparseState(pi.n, 1, amps)


def _decode_circuit(state: SparseState, pi: Permutation) -> SparseState:
    # Attach a control over Z_m, split it, apply the controlled key and
    # recombine: a symbol-s draw leaves the control in |s>.
    m = cycle_type(pi)[0]
    require_cyclic_key(pi, m)
    state = state.with_control(m)
    state = state.fourier_control("inverse")
    state = state.controlled_power(pi)
    return state.fourier_control("forward")


def decode_cyc(state: SparseState, pi: Permutation, rng: np.random.Generator) -> int:
    """Generalized controlled-key test; returns the measured symbol, a draw
    from the list that ``decode_distribution`` returns."""
    return _decode_circuit(state, pi).measure_control(rng)


def decode_distribution(state: SparseState, pi: Permutation) -> list[float]:
    """Exact outcome distribution of the decoder over Z_m."""
    return _decode_circuit(state, pi).control_probabilities()
