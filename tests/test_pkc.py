import numpy as np
import pytest

from qscd.permgroup import (
    SecurityParam,
    sample_fpf_involution,
)
from qscd.pkc import (
    Ciphertext,
    KeyPair,
    decrypt,
    encrypt_cyc,
    encrypt_ff,
    format_ciphertext,
    format_key,
    issue_key_copy,
    issue_key_series,
    keygen,
    parse_ciphertext,
    parse_key,
)
from qscd.qscdcyc import decode_cyc
from qscd.qscdff import distinguish, gen_iota, gen_plus
from qscd.qstate import SparseState, states_equal
from qscd.reductions import basis_measure_distinguisher

from oracles import StubRng, brute_fpf_involutions, from_cycles

FF6 = SecurityParam.ff(6)
CYC63 = SecurityParam.cyc(6, 3)
PI6 = from_cycles(6, [(1, 2), (3, 4), (5, 6)])
PI10 = from_cycles(10, [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)])


class TestKeygen:
    def test_ff_n2_is_the_swap(self):
        kp = keygen(SecurityParam.ff(2), np.random.default_rng(90))
        assert kp.secret == from_cycles(2, [(1, 2)])

    def test_ff_n6_lands_in_the_key_class(self):
        rng = np.random.default_rng(91)
        oracle = brute_fpf_involutions(6)
        for _ in range(50):
            assert keygen(FF6, rng).secret.image in oracle

    def test_cyc_cycle_structure(self):
        rng = np.random.default_rng(92)
        for _ in range(20):
            assert keygen(CYC63, rng).secret.cycle_type == (3, 3)

    def test_keypair_validates_secret(self):
        with pytest.raises(ValueError):
            KeyPair(from_cycles(6, [(1, 2)]), FF6)
        with pytest.raises(ValueError):
            KeyPair(from_cycles(6, [(1, 2), (3, 4), (5, 6)]), CYC63)


class TestKeyCopies:
    def test_ff_copy_passes_the_trapdoor_test(self):
        rng = np.random.default_rng(93)
        kp = keygen(FF6, rng)
        copy = issue_key_copy(kp, rng)
        assert distinguish(copy.state, kp.secret, rng) == 1

    def test_cyc_copy_decodes_to_its_symbol(self):
        rng = np.random.default_rng(94)
        kp = keygen(CYC63, rng)
        for s, copy in enumerate(issue_key_series(kp, rng)):
            assert copy.symbol == s
            assert decode_cyc(copy.state, kp.secret, rng) == s

    def test_cyc_copy_requires_symbol(self):
        # a cyc key's copies come only as a series, each with its symbol
        rng = np.random.default_rng(95)
        kp = keygen(CYC63, rng)
        with pytest.raises(ValueError, match="^cyc key copies come only as a series: use issue_key_series$"):
            issue_key_copy(kp, rng)

    def test_series_covers_every_symbol(self):
        rng = np.random.default_rng(96)
        series = issue_key_series(keygen(CYC63, rng), rng)
        assert [c.symbol for c in series] == [0, 1, 2]

    def test_fresh_copies_are_independent(self):
        rng = np.random.default_rng(97)
        kp = keygen(FF6, rng)
        same = sum(
            set(issue_key_copy(kp, rng).state.amps)
            == set(issue_key_copy(kp, rng).state.amps)
            for _ in range(100)
        )
        assert same <= 2


class TestEncryptFF:
    def test_bit_zero_leaves_the_state_alone(self):
        rng = np.random.default_rng(98)
        kp = keygen(FF6, rng)
        copy = issue_key_copy(kp, rng)
        ct = encrypt_ff(0, copy)
        assert ct.state.amps == copy.state.amps

    def test_bit_one_flips_exactly_one_sign(self):
        rng = np.random.default_rng(99)
        kp = keygen(FF6, rng)
        copy = issue_key_copy(kp, rng)
        ct = encrypt_ff(1, copy)
        flipped = [
            key
            for key, amp in ct.state.amps.items()
            if (copy.state.amps[key] - amp) != 0
        ]
        assert len(flipped) == 1

    def test_copy_is_single_use(self):
        rng = np.random.default_rng(100)
        copy = issue_key_copy(keygen(FF6, rng), rng)
        encrypt_ff(0, copy)
        with pytest.raises(ValueError):
            encrypt_ff(1, copy)

    def test_rejects_bad_bit(self):
        rng = np.random.default_rng(101)
        with pytest.raises(ValueError):
            encrypt_ff(2, issue_key_copy(keygen(FF6, rng), rng))

    def test_rejects_cyc_key_copy(self):
        rng = np.random.default_rng(115)
        for params in (CYC63, SecurityParam.cyc(6, 2)):
            copy = issue_key_series(keygen(params, rng), rng)[0]
            with pytest.raises(ValueError):
                encrypt_ff(0, copy)
            assert not copy.consumed


class TestEncryptCyc:
    def test_roundtrip_every_symbol(self):
        rng = np.random.default_rng(102)
        kp = keygen(CYC63, rng)
        for s in range(3):
            ct = encrypt_cyc(s, issue_key_series(kp, rng))
            assert decrypt(kp, ct, rng) == s

    def test_selection_does_not_modify_the_state(self):
        rng = np.random.default_rng(103)
        kp = keygen(CYC63, rng)
        series = issue_key_series(kp, rng)
        chosen = series[1].state
        ct = encrypt_cyc(1, series)
        assert ct.state.amps == chosen.amps

    def test_whole_series_is_spent(self):
        rng = np.random.default_rng(104)
        kp = keygen(CYC63, rng)
        series = issue_key_series(kp, rng)
        encrypt_cyc(0, series)
        assert all(c.consumed for c in series)
        with pytest.raises(ValueError):
            encrypt_cyc(1, series)

    def test_rejects_incomplete_or_mislabeled_series(self):
        rng = np.random.default_rng(105)
        kp = keygen(CYC63, rng)
        series = issue_key_series(kp, rng)
        with pytest.raises(ValueError):
            encrypt_cyc(0, series[:2])
        with pytest.raises(ValueError):
            encrypt_cyc(3, issue_key_series(kp, rng))

    def test_rejects_series_of_ff_copies(self):
        rng = np.random.default_rng(116)
        kp = keygen(FF6, rng)
        for count in (1, 2, 3):
            with pytest.raises(ValueError):
                encrypt_cyc(0, [issue_key_copy(kp, rng) for _ in range(count)])

    def test_m2_scheme_matches_ff_scheme(self):
        # same hidden key and forced sigma=id on both paths: the two-symbol
        # cyclic ciphertexts coincide with the single-bit ones
        pi = from_cycles(6, [(1, 2), (3, 4), (5, 6)])
        kp_ff = KeyPair(pi, FF6)
        kp_cyc = KeyPair(pi, SecurityParam.cyc(6, 2))
        for message in (0, 1):
            ct_ff = encrypt_ff(message, issue_key_copy(kp_ff, StubRng()))
            ct_cyc = encrypt_cyc(message, issue_key_series(kp_cyc, StubRng()))
            assert states_equal(ct_ff.state, ct_cyc.state, up_to_global_phase=True)


class TestDecrypt:
    def test_ff_roundtrips(self):
        rng = np.random.default_rng(106)
        for n in (2, 6):
            params = SecurityParam.ff(n)
            for _ in range(100):
                kp = keygen(params, rng)
                bit = int(rng.integers(2))
                assert decrypt(kp, encrypt_ff(bit, issue_key_copy(kp, rng)), rng) == bit

    def test_mode_mismatch(self):
        rng = np.random.default_rng(107)
        kp_ff = keygen(FF6, rng)
        kp_cyc = keygen(CYC63, rng)
        ct = encrypt_ff(0, issue_key_copy(kp_ff, rng))
        with pytest.raises(ValueError):
            decrypt(kp_cyc, ct, rng)

    def test_modulus_mismatch(self):
        rng = np.random.default_rng(117)
        kp63 = keygen(CYC63, rng)
        kp62 = keygen(SecurityParam.cyc(6, 2), rng)
        ct = encrypt_cyc(0, issue_key_series(kp63, rng))
        with pytest.raises(ValueError):
            decrypt(kp62, ct, rng)
        with pytest.raises(ValueError):
            decrypt(kp63, Ciphertext(ct.state, ct.mode, 2), rng)

    def test_wrong_key_is_unreliable(self):
        rng = np.random.default_rng(108)
        kp = keygen(FF6, rng)
        other = sample_fpf_involution(FF6, rng)
        while other == kp.secret:
            other = sample_fpf_involution(FF6, rng)
        wrong = KeyPair(other, FF6)
        correct = sum(
            decrypt(wrong, encrypt_ff(1, issue_key_copy(kp, rng)), rng) == 1
            for _ in range(300)
        )
        assert correct < 300


class TestAdversaryView:
    def test_omniscient_ceiling(self):
        rng = np.random.default_rng(110)
        kp = keygen(FF6, rng)
        hits = 0
        for _ in range(200):
            bit = int(rng.integers(2))
            ct = encrypt_ff(bit, issue_key_copy(kp, rng))
            for _ in range(2):  # the interceptor's key copies, unused here
                issue_key_copy(kp, rng)
            guess = 0 if distinguish(ct.state, kp.secret, rng) == 1 else 1
            hits += guess == bit
        assert hits == 200

    def test_basis_measuring_adversary_is_blind(self):
        rng = np.random.default_rng(111)
        kp = keygen(FF6, rng)
        dist = basis_measure_distinguisher()
        acc = [0, 0]
        trials = 1000
        for bit in (0, 1):
            for _ in range(trials):
                ct = encrypt_ff(bit, issue_key_copy(kp, rng))
                states = [ct.state, *(issue_key_copy(kp, rng).state for _ in range(3))]
                acc[bit] += dist(states, rng)
        assert abs(acc[0] - acc[1]) / trials < 0.06


class TestFileFormats:
    def test_key_roundtrip(self):
        rng = np.random.default_rng(113)
        for params in (FF6, CYC63):
            kp = keygen(params, rng)
            assert parse_key(format_key(kp)) == kp

    def test_key_format_shape(self):
        kp = KeyPair(from_cycles(2, [(1, 2)]), SecurityParam.ff(2))
        assert format_key(kp) == "FF 2\n2: 2 1\n"

    def test_ciphertext_roundtrip_exact(self):
        rng = np.random.default_rng(114)
        kp = keygen(FF6, rng)
        ct = encrypt_ff(1, issue_key_copy(kp, rng))
        back = parse_ciphertext(format_ciphertext(ct))
        assert back.mode == ct.mode and back.m == ct.m
        assert back.state.amps == ct.state.amps
        kp3 = keygen(CYC63, rng)
        ct3 = encrypt_cyc(2, issue_key_series(kp3, rng))
        back3 = parse_ciphertext(format_ciphertext(ct3))
        assert back3.m == 3 and back3.state.amps == ct3.state.amps

    def test_rejects_malformed_files(self):
        with pytest.raises(ValueError):
            parse_key("FF 6 3\n6: 1 2 3 4 5 6\n")
        with pytest.raises(ValueError):
            parse_key("FF 6\n")
        with pytest.raises(ValueError):
            parse_ciphertext("WRONG FF 2\nQSTATE 2 1 0\n")


def _plus6():
    return gen_plus(PI6, np.random.default_rng(115))


# Each rule is checked in one place: compose refuses a permutation of
# another degree, SparseState a degree below 1, require_cyclic_key a key
# outside its class. These entry points rely on the callee's check.
@pytest.mark.parametrize("call, message", [
    (lambda rng: _plus6().translate(PI10), "degree mismatch: 6 vs 10"),
    (lambda rng: SparseState(6, 2, {(1, PI6): 1.0}).controlled_power(PI10), "degree mismatch: 6 vs 10"),
    (lambda rng: _plus6().controlled_key_test(PI10), "degree mismatch: 6 vs 10"),
    (lambda rng: decode_cyc(_plus6(), PI10, rng), "degree mismatch: 6 vs 10"),
    (lambda rng: distinguish(_plus6(), PI10, rng), "degree mismatch: 6 vs 10"),
    (lambda rng: gen_plus(from_cycles(4, [(1, 2), (3, 4)]), rng), "degree 4 is not 2 mod 4"),
    (lambda rng: gen_iota(0, rng), "need n >= 1"),
    (lambda rng: gen_iota(-1, rng), "need n >= 1"),
    (lambda rng: KeyPair(PI10, FF6), "secret degree does not match parameters"),
    (lambda rng: KeyPair(from_cycles(6, [(1, 2), (3, 4, 5, 6)]), FF6), "not a product of disjoint 2-cycles"),
], ids=[
    "translate", "controlled_power", "controlled_key_test", "decode_cyc", "distinguish",
    "gen_plus-degree-4", "gen_iota-0", "gen_iota-minus-1", "keypair-degree-10", "keypair-cycle-type-2-4",
])
def test_refusal_made_by_the_callee(call, message):
    with pytest.raises(ValueError, match=message):
        call(np.random.default_rng(116))
