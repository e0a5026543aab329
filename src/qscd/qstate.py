"""Sparse exact simulation of the protocol registers.

A state lives on a control register over Z_m joint with a permutation
register over S_n and is stored as a finite map from (control, permutation)
basis pairs to complex double amplitudes. Nothing ever materializes all of
S_n: every operation touches only the stored support, and the support grows
by at most a factor of m.

Conventions fixed here:
  * amplitudes below 1e-12 in magnitude are pruned;
  * norms and state comparisons use tolerance 1e-9;
  * the Fourier map on the control register is computed exactly in floating
    point (for m = 2 both directions are the Hadamard transformation).

The decoder is one operation here, ``controlled_key_test``: it gives to the
bit what its circuit of ``fourier_control`` and ``controlled_power`` gives.
It shares one grouped Fourier sum with ``fourier_control``, which checks the
result in the pass that builds it. States are validated once, where they enter:
the constructor, ``from_text`` and ``basis_state``. Every operation builds its
result with ``_state``, which runs no check; its docstring says why none is due.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import accumulate

import numpy as np

from .permgroup import (
    Permutation,
    _trusted,
    compose,
    format_permutation,
    int_fields,
    parse_permutation,
    powers,
    read_number,
    require_cyclic_key,
    sign,
)

NORM_TOL = 1e-9
PRUNE_TOL = 1e-12

# Basis vectors are (control value, permutation) pairs.
BasisVector = tuple[int, Permutation]


@dataclass(frozen=True)
class SparseState:
    """Norm-1 sparse amplitude map over (control, permutation) pairs.

    ``m = 1`` means the control register is absent (single control value 0).
    States are immutable values; operations return new states.
    """

    n: int
    m: int
    amps: dict[BasisVector, complex]

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        # The copy reuses the stored hashes; editing in place keeps the order.
        amps = dict(self.amps)
        sizes = []
        try:
            for key, amp in self.amps.items():
                control, perm = key
                if not 0 <= control < self.m:
                    raise ValueError(f"control {control} out of range for modulus {self.m}")
                if len(perm.image) != self.n:
                    raise ValueError(f"entry of degree {perm.n} in a state of degree {self.n}")
                if type(amp) is not complex:
                    amp = amps[key] = complex(amp)
                size = abs(amp)
                if size < PRUNE_TOL:  # NaN is kept, and fails the norm check
                    del amps[key]
                else:
                    sizes.append(size)
        except OverflowError:  # a finite amplitude too large for abs()
            sizes = [math.inf]
        _require_unit_norm(sizes)
        object.__setattr__(self, "amps", amps)

    def fourier_control(self, direction: str) -> SparseState:
        """Fourier map on the control register.

        ``forward``: |r> -> sum_r' w^(r r') |r'> / sqrt(m) with w = exp(2 pi i / m);
        ``inverse`` uses w^(-r r'). The two compose to the identity.
        """
        if direction not in ("forward", "inverse"):
            raise ValueError(f"unknown direction {direction!r}")
        groups: dict[tuple[int, ...], list] = {}
        for (r, perm), amp in self.amps.items():
            groups.setdefault(perm.image, [perm]).append((r, amp))
        return _fourier_state(self.n, self.m, direction, groups)

    def controlled_power(self, pi: Permutation) -> SparseState:
        """|r>|sigma> -> |r>|sigma pi^r>: a bijection for each control value,
        amplitudes unchanged; ``compose`` refuses a pi of another degree."""
        table = powers(pi, self.m)
        out = {
            (r, compose(perm, table[r])): amp
            for (r, perm), amp in self.amps.items()
        }
        return _state(self.n, self.m, out)

    def controlled_key_test(self, pi: Permutation) -> SparseState:
        """The decoder's final state for a key pi in K_n^m; m is pi's cycle length, checked.

        The circuit lifts this state to a control over Z_m in |0>, then runs
        ``fourier_control("inverse")``, ``controlled_power(pi)`` and
        ``fourier_control("forward")``: a symbol-s draw leaves the control in
        |s>. Row 0 of the inverse table is all ones, and 0j + amp * 1 * scale
        equals 0j + amp * scale to the bit, so each entry splits once; a split
        below PRUNE_TOL is dropped before the key acts. Its m keyed terms,
        gathered as ``compose`` gathers, are grouped by image with no
        permutation built for one, and go to the forward map's own sum.
        """
        if self.m != 1:
            raise ValueError("state already has a control register")
        m = pi.cycle_type[0]
        require_cyclic_key(pi, m)
        if pi.n != self.n:
            raise ValueError(f"degree mismatch: {self.n} vs {pi.n}")
        scale = 1.0 / math.sqrt(m)
        # pi^0 is the identity: the r = 0 term keeps the entry's image, and
        # its group the entry's permutation
        gathers = [power._gather for power in powers(pi, m)[1:]]
        groups: dict[tuple[int, ...], list] = {}
        for (_, perm), amp in self.amps.items():
            split = 0j + amp * scale
            if abs(split) < PRUNE_TOL:
                continue
            group = groups.setdefault(perm.image, [perm])
            group[0] = perm
            group.append((0, split))
            for r, gather in enumerate(gathers, 1):
                groups.setdefault(gather(perm.image), [None]).append((r, split))
        return _fourier_state(self.n, m, "forward", groups)

    def phase_by_sign(self) -> SparseState:
        """Multiply each amplitude by (-1)^parity of its permutation. Negation
        keeps every magnitude to the bit, and the entries do not change."""
        out = {
            key: (-amp if sign(key[1]) else amp)
            for key, amp in self.amps.items()
        }
        return _state(self.n, self.m, out)

    def translate(self, tau: Permutation) -> SparseState:
        """Right translation: |r>|sigma> -> |r>|sigma tau>: a bijection, amplitudes
        unchanged; ``compose`` refuses a tau of another degree."""
        out = {(r, compose(perm, tau)): amp for (r, perm), amp in self.amps.items()}
        return _state(self.n, self.m, out)

    def control_probabilities(self) -> list[float]:
        """Born probabilities of the control outcomes 0..m-1."""
        probs = [0.0] * self.m
        for (r, _), amp in self.amps.items():
            probs[r] += abs(amp) ** 2
        return probs

    def measure_control(self, rng: np.random.Generator) -> int:
        """Measure the control register; returns the outcome, a Born draw from
        ``control_probabilities()``. The collapsed state is never built."""
        return _born_draw(self.control_probabilities(), rng)

    def measure_full(self, rng: np.random.Generator) -> tuple[int, Permutation]:
        """Full computational-basis measurement with Born probabilities."""
        keys = sorted(self.amps, key=lambda k: (k[0], k[1].image))
        return keys[_born_draw([abs(self.amps[k]) ** 2 for k in keys], rng)]

    def to_text(self) -> str:
        """Serialize; one ``control re im n: i1 ... in`` line per entry."""
        lines = [f"QSTATE {self.n} {self.m} {len(self.amps)}"]
        for (r, perm) in sorted(self.amps, key=lambda k: (k[0], k[1].image)):
            amp = self.amps[(r, perm)]
            lines.append(f"{r} {amp.real:.17g} {amp.imag:.17g} {format_permutation(perm)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> SparseState:
        """Parse ``to_text`` output; errors name the field and the line, counted
        by ``str.splitlines`` with blank lines included."""
        lines = [(no, line) for no, line in enumerate(text.splitlines(), 1) if line.strip()]
        if not lines:
            raise ValueError("empty state text: no QSTATE header")
        no, head = lines[0]
        header = head.split()
        if len(header) != 4 or header[0] != "QSTATE":
            raise ValueError(f"line {no}: bad state header: {head!r}")
        n, m, count = int_fields(no, header[1:], "degree", "modulus", "entries")
        if len(lines) - 1 != count:
            raise ValueError(f"expected {count} entries, got {len(lines) - 1}")
        amps: dict[BasisVector, complex] = {}
        for no, line in lines[1:]:
            fields = line.split(maxsplit=3)
            if len(fields) != 4 or ":" not in fields[3]:
                raise ValueError(f"line {no}: expected control, re, im, permutation; got {line.strip()!r}")
            key = (read_number(no, "control", fields[0], int), parse_permutation(fields[3], no))
            amp = complex(read_number(no, "re", fields[1], float), read_number(no, "im", fields[2], float))
            if amps.setdefault(key, amp) is not amp:  # one hash per entry
                raise ValueError(f"line {no}: duplicate entry for {key}")
            if not cmath.isfinite(amp):
                raise ValueError(f"line {no}: amplitude is not finite: {line!r}")
        return cls(n, m, amps)


@cache
def _fourier_table(m: int, direction: str) -> tuple[tuple[tuple[complex, ...], ...], float]:
    """Rows w^(r r') for r, r' in Z_m, and the scale 1/sqrt(m)."""
    sgn = 1 if direction == "forward" else -1
    rows = tuple(
        tuple(cmath.exp(sgn * 2j * math.pi * (r * r2 % m) / m) for r2 in range(m)) for r in range(m)
    )
    return rows, 1.0 / math.sqrt(m)


def _fourier_state(n: int, m: int, direction: str, groups: dict[tuple[int, ...], list]) -> SparseState:
    """The Fourier map on the control of (control, amplitude) terms grouped by
    image in order of arrival, each group led by the permutation to reuse for
    its image, or None. Each output amplitude sums its terms from 0j in arrival
    order, and is pruned and its norm checked as the constructor does, in the
    same pass; control range, amplitude type and degree hold by construction,
    and terms of a norm-1 state are too small for abs() to overflow."""
    rows, scale = _fourier_table(m, direction)
    amps: dict[BasisVector, complex] = {}
    sizes = []
    for image, (perm, *terms) in groups.items():
        perm = perm or _trusted(image)
        for r2 in range(m):
            row = rows[r2]  # w^(r r2) = w^(r2 r): the table is symmetric
            total = 0j
            for r, amp in terms:
                total = total + amp * row[r] * scale
            size = abs(total)
            if not size < PRUNE_TOL:  # NaN is kept, and fails the norm check
                amps[(r2, perm)] = total
                sizes.append(size)
    _require_unit_norm(sizes)
    return _state(n, m, amps)


def _state(n: int, m: int, amps: dict[BasisVector, complex]) -> SparseState:
    """The state with these fields and no check: for results that keep the invariants."""
    state = object.__new__(SparseState)
    state.__dict__.update(n=n, m=m, amps=amps)
    return state


def _require_unit_norm(sizes: list[float]) -> None:
    """The norm check of every state, on its kept entries' magnitudes in order."""
    try:
        norm = math.sqrt(sum(size ** 2 for size in sizes))
    except OverflowError:  # a finite magnitude too large to square
        norm = math.inf
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"state norm {norm} not 1 within {NORM_TOL}")


def _born_draw(weights: list[float], rng: np.random.Generator) -> int:
    """Index drawn by weight exactly as ``rng.choice(len(w), p=w / w.sum())`` draws
    it: numpy's pairwise total, the normalized cumsum, one ``rng.random()``."""
    total = float(np.add.reduce(weights))
    cdf = list(accumulate([w / total for w in weights]))
    return bisect_right([c / cdf[-1] for c in cdf], rng.random())


def basis_state(control: int, sigma: Permutation, m: int) -> SparseState:
    """Single-entry state |control>|sigma> with amplitude 1."""
    return SparseState(sigma.n, m, {(control, sigma): 1.0 + 0j})


def inner_product(a: SparseState, b: SparseState) -> complex:
    """<a|b> over the shared basis."""
    if (a.n, a.m) != (b.n, b.m):
        raise ValueError("states live on different registers")
    return sum(a.amps[k].conjugate() * b.amps[k] for k in a.amps.keys() & b.amps.keys())


def states_equal(a: SparseState, b: SparseState, up_to_global_phase: bool = False) -> bool:
    """Entrywise amplitude agreement within 1e-9, optionally after phase alignment."""
    if (a.n, a.m) != (b.n, b.m):
        raise ValueError("states live on different registers")
    phase = 1.0 + 0j
    if up_to_global_phase:
        overlap = inner_product(a, b)
        if abs(overlap) < NORM_TOL:
            return False
        phase = overlap / abs(overlap)
    for key in a.amps.keys() | b.amps.keys():
        if abs(a.amps.get(key, 0j) * phase - b.amps.get(key, 0j)) > NORM_TOL:
            return False
    return True
