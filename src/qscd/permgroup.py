"""Exact arithmetic over the symmetric group S_n and its special key classes.

Points are 1-based throughout: a permutation of degree n acts on {1,...,n}.
The key class K_n^m holds the products of n/m disjoint m-cycles; its m = 2
case K_n = K_n^2 holds the fixed-point-free involutions.
Admissible degrees for the fixed-point-free setting are n = 2(2k+1), i.e.
n = 2, 6, 10, ...; for those degrees every element of K_n is odd.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

FF = "ff"
CYC = "cyc"


@dataclass(frozen=True)
class Permutation:
    """Immutable permutation of {1..n}, stored as the tuple of images.

    ``image[i-1]`` is where point ``i`` maps. Only the constructor checks for a
    bijection (see ``_trusted``); cycle type and powers are cached on the instance.
    """

    image: tuple[int, ...]

    def __post_init__(self):
        image = tuple(int(x) for x in self.image)
        object.__setattr__(self, "image", image)
        n = len(image)
        if n < 1:
            raise ValueError("permutation degree must be positive")
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {image}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, point: int) -> int:
        return self.image[point - 1]

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"

    @cached_property
    def _cycle_type(self) -> tuple[int, ...]:
        seen, lengths = set(), []
        for start in self.image:
            length, point = 0, start
            while point not in seen:
                seen.add(point)
                length, point = length + 1, self.image[point - 1]
            if length:
                lengths.append(length)
        return tuple(sorted(lengths))

    @cached_property
    def _powers(self) -> list[Permutation]:
        return [identity(self.n)]


def _trusted(image: tuple[int, ...]) -> Permutation:
    """Permutation on an image of plain ints that is a bijection by construction."""
    perm = object.__new__(Permutation)
    object.__setattr__(perm, "image", image)
    return perm


def identity(n: int) -> Permutation:
    return _trusted(tuple(range(1, n + 1)))


def from_cycles(n: int, cycles: list[tuple[int, ...]]) -> Permutation:
    """Permutation of degree n from disjoint cycles, e.g. [(1, 2, 3)]."""
    image = list(range(1, n + 1))
    seen: set[int] = set()
    for cycle in cycles:
        for point in cycle:
            if not 1 <= point <= n:
                raise ValueError(f"point {point} is not in 1..{n}")
            if point in seen:
                raise ValueError(f"point {point} appears in two cycles")
            seen.add(point)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a - 1] = b
    return Permutation(tuple(image))


def cycle_type(sigma: Permutation) -> tuple[int, ...]:
    """Sorted cycle lengths including fixed points (cached on sigma)."""
    return sigma._cycle_type


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """(sigma tau)(i) = sigma(tau(i)); right-multiplying sigma by pi is compose(sigma, pi)."""
    image = sigma.image
    if len(image) != len(tau.image):
        raise ValueError(f"degree mismatch: {sigma.n} vs {tau.n}")
    return _trusted(tuple([image[t - 1] for t in tau.image]))


def inverse(sigma: Permutation) -> Permutation:
    image = [0] * sigma.n
    for i, t in enumerate(sigma.image, start=1):
        image[t - 1] = i
    return _trusted(tuple(image))


def powers(sigma: Permutation, count: int) -> list[Permutation]:
    """The table sigma^0, sigma^1, ... cached on sigma, extended to at least
    count entries, each power composed once. Do not modify it."""
    table = sigma._powers
    while len(table) < count:
        table.append(compose(table[-1], sigma))
    return table


def perm_pow(sigma: Permutation, r: int) -> Permutation:
    """sigma composed with itself r times (r >= 0)."""
    if r < 0:
        raise ValueError("negative power not supported")
    r %= math.lcm(*cycle_type(sigma))
    return powers(sigma, r + 1)[r]


def sign(sigma: Permutation) -> int:
    """Parity bit: 0 for even permutations, 1 for odd."""
    return (sigma.n - len(cycle_type(sigma))) % 2


def conjugate(pi: Permutation, tau: Permutation) -> Permutation:
    """tau^-1 pi tau; preserves cycle type, so maps K_n into K_n."""
    return compose(compose(inverse(tau), pi), tau)


def is_ff_degree(n: int) -> bool:
    """Membership in the admissible degree set {2(2k+1)} = {2, 6, 10, ...}."""
    return n >= 2 and n % 4 == 2


def is_cyclic_class(sigma: Permutation, m: int) -> bool:
    """Membership in K_n^m: disjoint n/m cycles, all of length m (K_n is m = 2)."""
    return all(l == m for l in cycle_type(sigma))


@dataclass(frozen=True)
class SecurityParam:
    """Degree plus key-class selector for the two schemes.

    ``ff`` keys live in K_n and need n in {2, 6, 10, ...}; ``cyc`` keys live
    in K_n^m and need m >= 2 dividing n.
    """

    n: int
    kind: str
    m: int = 2

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"degree must be >= 1, got {self.n}")
        if self.kind == FF:
            if not is_ff_degree(self.n):
                raise ValueError(f"ff degree must be 2 mod 4, got {self.n}")
            if self.m != 2:
                raise ValueError("ff mode has control modulus 2")
        elif self.kind == CYC:
            if self.m < 2:
                raise ValueError(f"cyclic order must be >= 2, got {self.m}")
            if self.n % self.m != 0:
                raise ValueError(f"{self.m} does not divide {self.n}")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    @classmethod
    def ff(cls, n: int) -> "SecurityParam":
        return cls(n=n, kind=FF)

    @classmethod
    def cyc(cls, n: int, m: int) -> "SecurityParam":
        return cls(n=n, kind=CYC, m=m)


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    return _trusted(tuple((rng.permutation(n) + 1).tolist()))


def sample_fpf_involution(param: SecurityParam, rng: np.random.Generator) -> Permutation:
    """Uniform element of K_n = K_n^2 via a random perfect matching.

    Repeatedly pairs the smallest unmatched point with a uniformly random
    other unmatched point, which hits every perfect matching with equal
    probability. ``sample_cyclic`` at m = 2 is as uniform but draws otherwise;
    this sampler stays so that every seed keeps its ff key.
    """
    if param.kind != FF:
        raise ValueError("sample_fpf_involution needs an ff parameter")
    unmatched = list(range(1, param.n + 1))
    image = [0] * param.n
    while unmatched:
        a = unmatched.pop(0)
        b = unmatched.pop(int(rng.integers(len(unmatched))))
        image[a - 1] = b
        image[b - 1] = a
    return _trusted(tuple(image))


def sample_cyclic(param: SecurityParam, rng: np.random.Generator) -> Permutation:
    """Uniform element of K_n^m.

    Shuffles {1..n}, cuts the shuffle into n/m blocks of m points, and turns
    each block into one m-cycle. Every element of K_n^m arises from exactly
    m^(n/m) * (n/m)! shuffles, so the output is uniform.
    """
    if param.kind != CYC:
        raise ValueError("sample_cyclic needs a cyc parameter")
    points = (rng.permutation(param.n) + 1).tolist()
    image = [0] * param.n
    for start in range(0, param.n, param.m):
        block = points[start:start + param.m]
        for a, b in zip(block, block[1:] + block[:1]):
            image[a - 1] = b
    return _trusted(tuple(image))


def cyclic_class(n: int, m: int) -> list[Permutation]:
    """All of K_n^m (K_n is m = 2), cycle by cycle: the smallest free point a
    opens (a b_1 ... b_{m-1}) for every ordered choice of m - 1 free points, in
    increasing order; each cycle is listed once, from its smallest point."""
    out: list[Permutation] = []
    image = list(range(1, n + 1))

    def extend(free: tuple[int, ...]) -> None:
        if not free:
            out.append(_trusted(tuple(image)))
            return
        a, rest = free[0], free[1:]
        for chosen in itertools.permutations(rest, m - 1):
            cycle = (a, *chosen)
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                image[x - 1] = y
            extend(tuple(p for p in rest if p not in chosen))

    extend(tuple(range(1, n + 1)))
    return out


def format_permutation(sigma: Permutation) -> str:
    """Text form ``n: i1 i2 ... in`` with 1-based images."""
    return f"{sigma.n}: " + " ".join(str(x) for x in sigma.image)


def parse_permutation(text: str) -> Permutation:
    head, _, tail = text.strip().partition(":")
    if not tail:
        raise ValueError(f"missing ':' in permutation text: {text!r}")
    n = int(head)
    image = tuple(int(x) for x in tail.split())
    if len(image) != n:
        raise ValueError(f"expected {n} images, got {len(image)}")
    return Permutation(image)


def int_fields(line_no: int, fields: list[str], *names: str) -> list[int]:
    """One integer per name from a text line's fields; errors name the line and the field."""
    if len(fields) != len(names):
        raise ValueError(f"line {line_no}: expected {', '.join(names)}; got {' '.join(fields)!r}")
    values = []
    for name, field in zip(names, fields):
        try:
            values.append(int(field))
        except ValueError:
            raise ValueError(f"line {line_no}: {name} {field!r} is not an integer") from None
    return values
