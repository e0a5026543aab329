"""The fixed-point-free scheme: the m = 2 case of the cyclic coset states.

For a hidden key pi in K_n (a fixed-point-free involution, n = 2 mod 4) the
cyclic symbol-0 and symbol-1 states of qscdcyc are the plus and minus
two-point coset states, and the cyclic decoder is the trapdoor test that
decides plus/minus given pi. This module adds what only m = 2 has: the
maximally mixed state iota, and the key-free sign-phase conversion between
plus and minus. It also holds the sample tuples and the distinguisher type
that the reductions feed with draws of either scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .permgroup import Permutation, is_ff_degree, random_permutation
from .qscdcyc import MINUS, PLUS, Provenance, PureSample, decode_cyc, gen_cyc, key_modulus
from .qstate import SparseState, basis_state


@dataclass(frozen=True)
class SampleTuple:
    """An ordered tuple of draws sharing one hidden key (or all iota)."""

    samples: tuple[PureSample, ...]

    def __post_init__(self):
        if not self.samples:
            raise ValueError("need at least one sample")
        degrees = {s.state.n for s in self.samples}
        if len(degrees) != 1:
            raise ValueError(f"samples of mixed degree: {degrees}")

    @property
    def k(self) -> int:
        return len(self.samples)

    @property
    def n(self) -> int:
        return self.samples[0].state.n

    def states(self) -> list[SparseState]:
        """What a distinguisher is allowed to see."""
        return [s.state for s in self.samples]


# A distinguisher maps the visible states plus an RNG handle to a bit.
Distinguisher = Callable[[Sequence[SparseState], np.random.Generator], int]


def require_ff_key(pi: Permutation) -> None:
    # Only the degree and the modulus: the cyclic primitive that every caller
    # goes on to run checks that all cycles have that length.
    if not is_ff_degree(pi.n):
        raise ValueError(f"degree {pi.n} is not 2 mod 4")
    if key_modulus(pi) != 2:
        raise ValueError("key is not a fixed-point-free involution")


def gen_plus(pi: Permutation, rng: np.random.Generator) -> PureSample:
    """Fresh draw from the plus mixture for key pi: the symbol-0 coset state.

    The result is (|sigma> + |sigma pi>) / sqrt(2) for a uniform sigma.
    """
    require_ff_key(pi)
    return gen_cyc(pi, 0, 2, rng)


def gen_iota(n: int, rng: np.random.Generator) -> PureSample:
    """Fresh draw from the maximally mixed state: |sigma> for uniform sigma."""
    if n < 1:
        raise ValueError("degree must be positive")
    sigma = random_permutation(n, rng)
    return PureSample(basis_state(0, sigma, m=1), Provenance.iota())


def convert(sample: PureSample) -> PureSample:
    """Sign-phase flip: maps plus draws to minus draws and fixes iota.

    Works without the key: multiplying each basis amplitude by (-1)^parity
    flips the relative phase of a two-point coset state because the hidden
    involution is odd, so the two support points have opposite parity.
    """
    if not is_ff_degree(sample.state.n):
        raise ValueError(f"degree {sample.state.n} is not 2 mod 4")
    prov = sample.provenance
    if prov.kind == PLUS:
        prov = Provenance.minus(prov.pi)
    elif prov.kind == MINUS:
        prov = Provenance.plus(prov.pi)
    return PureSample(sample.state.phase_by_sign(), prov)


def distinguish(state: SparseState, pi: Permutation, rng: np.random.Generator) -> int:
    """Trapdoor test: 1 (YES, plus) on decoded symbol 0, else 0 (NO, minus)."""
    require_ff_key(pi)
    return 1 if decode_cyc(state, pi, rng) == 0 else 0
