"""The single-bit and multi-bit public-key encryption protocols.

Bob samples a secret key from K_n (single-bit mode) or K_n^m (multi-bit
mode) and hands out state copies as encryption keys. Alice encrypts by
either sign-converting a plus copy (bit 1) or sending it untouched (bit 0);
in multi-bit mode Bob sends the full symbol series and Alice picks the copy
for her symbol. Decryption runs the cyclic controlled-key test in both
modes; the single-bit scheme is its m = 2 case, where bit b is symbol b.

Key copies are single-use: encrypting through a copy consumes it, which is
what keeps a classical simulation honest about no-cloning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .permgroup import (
    CYC,
    FF,
    Permutation,
    SecurityParam,
    format_permutation,
    int_fields,
    parse_permutation,
    require_cyclic_key,
    sample_cyclic,
    sample_fpf_involution,
)
from .qscdcyc import decode_cyc, gen_cyc
from .qscdff import convert, gen_plus
from .qstate import SparseState


@dataclass(frozen=True)
class KeyPair:
    secret: Permutation
    params: SecurityParam

    def __post_init__(self):
        if self.secret.n != self.params.n:
            raise ValueError("secret degree does not match parameters")
        require_cyclic_key(self.secret, self.params.m)


@dataclass
class KeyCopy:
    """A single-use encryption-key state; ``symbol`` is the public series label."""

    state: SparseState
    symbol: int | None = None
    consumed: bool = False


@dataclass(frozen=True)
class Ciphertext:
    state: SparseState
    mode: str
    m: int = 2


def keygen(params: SecurityParam, rng: np.random.Generator) -> KeyPair:
    if params.kind == FF:
        secret = sample_fpf_involution(params, rng)
    else:
        secret = sample_cyclic(params, rng)
    return KeyPair(secret, params)


def issue_key_copy(kp: KeyPair, rng: np.random.Generator) -> KeyCopy:
    """One fresh single-bit encryption-key draw."""
    if kp.params.kind != FF:
        raise ValueError("cyc key copies come only as a series: use issue_key_series")
    return KeyCopy(gen_plus(kp.secret, rng))


def issue_key_series(kp: KeyPair, rng: np.random.Generator) -> list[KeyCopy]:
    """The full multi-bit key series, one fresh copy per symbol of Z_m."""
    if kp.params.kind != CYC:
        raise ValueError("key series is a cyc-mode notion")
    return [KeyCopy(gen_cyc(kp.secret, s, kp.params.m, rng), symbol=s) for s in range(kp.params.m)]


def _consume(copy: KeyCopy) -> SparseState:
    if copy.consumed:
        raise ValueError("key copy already consumed")
    copy.consumed = True
    return copy.state


def encrypt_ff(bit: int, key_copy: KeyCopy) -> Ciphertext:
    """Bit 0 sends the plus copy untouched; bit 1 sign-converts it first."""
    if bit not in (0, 1):
        raise ValueError(f"message bit must be 0 or 1, got {bit}")
    if key_copy.symbol is not None:
        raise ValueError("not a single-bit key copy")
    state = _consume(key_copy)
    if bit == 1:
        state = convert(state)
    return Ciphertext(state, FF, 2)


def encrypt_cyc(s: int, key_copies: list[KeyCopy]) -> Ciphertext:
    """Pick (and consume) the copy for symbol s; the rest of the series is spent."""
    copies = list(key_copies)
    if not copies:
        raise ValueError("need a full multi-bit key series")
    # Every copy is a coset state of the key's cyclic group, spanning m points.
    m = len(copies[0].state.amps)
    if [c.symbol for c in copies] != list(range(m)):
        raise ValueError("key series must carry symbols 0..m-1 in order")
    if not 0 <= s < m:
        raise ValueError(f"symbol {s} out of range for modulus {m}")
    chosen = None
    for copy in copies:
        state = _consume(copy)
        if copy.symbol == s:
            chosen = state
    return Ciphertext(chosen, CYC, m)


def decrypt(kp: KeyPair, c: Ciphertext, rng: np.random.Generator) -> int:
    """Recover the message bit (ff) or symbol (cyc) with the secret key."""
    if kp.params.kind != c.mode:
        raise ValueError(f"mode mismatch: key {kp.params.kind}, ciphertext {c.mode}")
    if kp.params.m != c.m:
        raise ValueError(f"modulus mismatch: key {kp.params.m}, ciphertext {c.m}")
    return decode_cyc(c.state, kp.secret, rng)


def format_key(kp: KeyPair) -> str:
    if kp.params.kind == FF:
        head = f"FF {kp.params.n}"
    else:
        head = f"CYC {kp.params.n} {kp.params.m}"
    return head + "\n" + format_permutation(kp.secret) + "\n"


def parse_key(text: str) -> KeyPair:
    lines = [(no, line) for no, line in enumerate(text.splitlines(), 1) if line.strip()]
    if len(lines) != 2:
        raise ValueError("key file needs a mode line and a permutation line")
    (no, head), (secret_no, secret) = lines
    mode, *fields = head.split()
    if mode == "FF":
        params = SecurityParam.ff(*int_fields(no, fields, "degree"))
    elif mode == "CYC":
        params = SecurityParam.cyc(*int_fields(no, fields, "degree", "cycle length"))
    else:
        raise ValueError(f"line {no}: bad key mode {mode!r}: need FF or CYC")
    return KeyPair(parse_permutation(secret, secret_no), params)


def format_ciphertext(c: Ciphertext) -> str:
    tag = "FF" if c.mode == FF else "CYC"
    return f"CIPHERTEXT {tag} {c.m}\n" + c.state.to_text()


def parse_ciphertext(text: str) -> Ciphertext:
    lines = text.splitlines() or [""]
    no = next((no for no, line in enumerate(lines, 1) if line.strip()), 1)
    head, lines[no - 1] = lines[no - 1], ""  # the state's errors keep their file line numbers
    fields = head.split()
    if len(fields) != 3 or fields[0] != "CIPHERTEXT" or fields[1] not in ("FF", "CYC"):
        raise ValueError(f"line {no}: bad ciphertext header: {head!r}")
    mode = FF if fields[1] == "FF" else CYC
    (m,) = int_fields(no, fields[2:], "modulus")
    if mode == FF and m != 2:
        raise ValueError("ff ciphertexts have modulus 2")
    return Ciphertext(SparseState.from_text("\n".join(lines)), mode, m)
