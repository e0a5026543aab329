"""The coset-state primitive: m-point coset states over keys in K_n^m.

A draw for key pi and symbol s is (1/sqrt(m)) sum_t w^(st) |sigma pi^t> with
w = exp(2 pi i / m) and a uniform hiding translation sigma. ``_coset_draw``
builds every such draw in the package: gen_cyc's, gen_plus's, and
``graphauto.coset_sample``'s symbol-0 draws over a cyclic Aut(G); it reads
m from pi, whose cycles all have length m. The decoder runs the generalized
controlled-key test and recovers s exactly. That test is the state-engine
operation ``SparseState.controlled_key_test``, which reads m from the key and
checks it; this module reads out the control register.

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
from functools import cache

import numpy as np

from .permgroup import Permutation, compose, powers, random_permutation, require_cyclic_key
from .qstate import SparseState


def gen_cyc(pi: Permutation, s: int, m: int, rng: np.random.Generator) -> SparseState:
    """Fresh draw encoding symbol s under key pi in K_n^m.

    Draws the hiding translation sigma, then builds the coset superposition
    {|sigma pi^t> : w^(st) / sqrt(m)} over t in Z_m as one state.
    """
    require_cyclic_key(pi, m)
    if not 0 <= s < m:
        raise ValueError(f"symbol {s} out of range for modulus {m}")
    return _coset_draw(pi, s, rng)


def _coset_draw(pi: Permutation, s: int, rng: np.random.Generator) -> SparseState:
    # gen_cyc for a pi whose cycles all have one length m: a checked key, or
    # coset_sample's group generator, the identity or an fpf involution.
    m = pi.cycle_type[0]
    sigma = random_permutation(pi.n, rng)
    amps = {(0, compose(sigma, power)): amp for power, amp in zip(powers(pi, m), _phase_row(s, m))}
    return SparseState(pi.n, 1, amps)


@cache
def _phase_row(s: int, m: int) -> tuple[complex, ...]:
    """The draw amplitudes w^(st) / sqrt(m) for t in Z_m."""
    scale = 1.0 / math.sqrt(m)
    return tuple(scale * cmath.exp(2j * math.pi * s * t / m) for t in range(m))


def decode_cyc(state: SparseState, pi: Permutation, rng: np.random.Generator) -> int:
    """Generalized controlled-key test; returns the measured symbol, a draw
    from the list that ``decode_distribution`` returns."""
    return state.controlled_key_test(pi).measure_control(rng)


def decode_distribution(state: SparseState, pi: Permutation) -> list[float]:
    """Exact outcome distribution of the decoder over Z_m."""
    return state.controlled_key_test(pi).control_probabilities()
