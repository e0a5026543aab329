import cmath
import math
import timeit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscd.permgroup import (
    Permutation,
    SecurityParam,
    compose,
    identity,
    perm_pow,
    random_permutation,
    sample_cyclic,
    sample_fpf_involution,
    sign,
)
from qscd import qscdcyc, qstate
from qscd.graphauto import coset_sample
from qscd.qscdcyc import decode_cyc, decode_distribution, gen_cyc
from qscd.qscdff import convert, distinguish, gen_plus
from qscd.qstate import PRUNE_TOL, SparseState, _born_draw, basis_state, inner_product, states_equal
from qscd.selftest import planted_no_instance, planted_yes_instance

from oracles import DenseSymmetricGroup, StubRng, brute_cyclic_class, decoder_circuit, from_cycles, norm
from test_qstate import KEYS6, operations, small_states

PI33 = from_cycles(3, [(1, 2, 3)])
PI63 = from_cycles(6, [(1, 2, 3), (4, 5, 6)])
PI6 = from_cycles(6, [(1, 2), (3, 4), (5, 6)])


class TestGenCyc:
    def test_symbol_zero_is_flat(self):
        rng = np.random.default_rng(50)
        sample = gen_cyc(PI63, 0, 3, rng)
        assert len(sample.amps) == 3
        for amp in sample.amps.values():
            assert amp == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_small_case_amplitude_row(self):
        # n=3, m=3, forced sigma=id, s=1: amplitudes (1, w, w^2)/sqrt(3)
        # on id, (1 2 3), (1 3 2), straight from the defining formula.
        w = cmath.exp(2j * math.pi / 3)
        sample = gen_cyc(PI33, 1, 3, StubRng())
        expected = {
            (0, identity(3)): 1 / math.sqrt(3),
            (0, PI33): w / math.sqrt(3),
            (0, from_cycles(3, [(1, 3, 2)])): w * w / math.sqrt(3),
        }
        assert set(sample.amps) == set(expected)
        for key, amp in expected.items():
            assert sample.amps[key] == pytest.approx(amp, abs=1e-9)

    def test_support_is_the_cyclic_coset(self):
        rng = np.random.default_rng(51)
        sample = gen_cyc(PI63, 2, 3, rng)
        perms = {perm for _, perm in sample.amps}
        # the support is closed under right-multiplication by the key
        assert {compose(p, PI63) for p in perms} == perms

    def test_rejects_wrong_key_class(self):
        with pytest.raises(ValueError):
            gen_cyc(from_cycles(6, [(1, 2)]), 0, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gen_cyc(PI63, 0, 2, np.random.default_rng(0))

    def test_rejects_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            gen_cyc(PI63, 3, 3, np.random.default_rng(0))


class TestM2Coincidence:
    # Forced sigma = id: the plus state (|id> + |pi>) / sqrt(2), written out.
    PLUS6 = SparseState(6, 1, {(0, identity(6)): 1 / math.sqrt(2), (0, PI6): 1 / math.sqrt(2)})

    def test_symbol_zero_matches_plus_generation(self):
        cyc = gen_cyc(PI6, 0, 2, StubRng())
        assert states_equal(cyc, self.PLUS6)
        assert states_equal(gen_plus(PI6, StubRng()), self.PLUS6)

    def test_symbol_one_matches_converted_plus(self):
        cyc = gen_cyc(PI6, 1, 2, StubRng())
        minus = convert(self.PLUS6)
        assert states_equal(cyc, minus, up_to_global_phase=True)

    def test_decoder_agrees_with_trapdoor_test(self):
        rng = np.random.default_rng(52)
        params = SecurityParam.ff(6)
        for _ in range(1000):
            pi = sample_fpf_involution(params, rng)
            s = int(rng.integers(2))
            sample = gen_cyc(pi, s, 2, rng)
            decoded = decode_cyc(sample, pi, rng)
            via_ff = 0 if distinguish(sample, pi, rng) == 1 else 1
            assert decoded == via_ff == s


class TestDecode:
    def test_roundtrip_all_symbols(self):
        rng = np.random.default_rng(53)
        for s in range(3):
            for _ in range(200):
                sample = gen_cyc(PI63, s, 3, rng)
                assert decode_cyc(sample, PI63, rng) == s

    def test_wrong_outcome_probability_negligible(self):
        rng = np.random.default_rng(54)
        for s in range(3):
            sample = gen_cyc(PI63, s, 3, rng)
            probs = decode_distribution(sample, PI63)
            assert 1.0 - probs[s] < 1e-12

    def test_sampled_keys_roundtrip(self):
        rng = np.random.default_rng(55)
        for n, m in [(6, 3), (8, 4), (12, 6)]:
            params = SecurityParam.cyc(n, m)
            for _ in range(20):
                pi = sample_cyclic(params, rng)
                assert perm_pow(pi, m) == identity(n)
                s = int(rng.integers(m))
                assert decode_cyc(gen_cyc(pi, s, m, rng), pi, rng) == s

    def test_outcome_is_a_draw_from_the_distribution(self):
        # Unequal weights on two points of a coset spread the outcome over
        # Z_m; two equal generators must give the same symbol and end equal,
        # one rng.random() per decode.
        keys = {2: PI6, 3: PI63, 6: from_cycles(6, [(1, 3, 5, 2, 4, 6)])}
        for m, pi in keys.items():
            for seed in range(40):
                sigma = Permutation(tuple(int(x) + 1 for x in np.random.default_rng(seed).permutation(6)))
                state = SparseState(6, 1, {(0, sigma): 0.6, (0, compose(sigma, pi)): 0.8j})
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                want = _born_draw(decode_distribution(state, pi), rng_b)
                assert decode_cyc(state, pi, rng_a) == want, (m, seed)
                assert rng_a.random() == rng_b.random()

    def test_degree_mismatch(self):
        rng = np.random.default_rng(56)
        sample = gen_cyc(PI33, 0, 3, rng)
        with pytest.raises(ValueError):
            decode_cyc(sample, PI63, rng)

    @pytest.mark.parametrize("key, message", [
        (from_cycles(6, [(1, 2), (3, 4, 5, 6)]), "not a product of disjoint 2-cycles"),
        (identity(6), "cyclic order must be >= 2, got 1"),
    ], ids=["cycle-type-2-4", "identity"])
    def test_refuses_a_key_outside_every_cyclic_class(self, key, message):
        # The decoder reads m from the key's cycles, so a key whose cycles
        # differ in length, or have length 1, is refused, not decoded.
        state = gen_plus(PI6, np.random.default_rng(56))
        with pytest.raises(ValueError, match=message):
            state.controlled_key_test(key)
        with pytest.raises(ValueError, match=message):
            decode_distribution(state, key)


class TestStructure:
    def test_orthogonality_between_symbols(self):
        for s in range(3):
            for t in range(s + 1, 3):
                a = gen_cyc(PI63, s, 3, StubRng())
                b = gen_cyc(PI63, t, 3, StubRng())
                assert abs(inner_product(a, b)) < 1e-9

    def test_basis_distribution_independent_of_symbol(self):
        states = [gen_cyc(PI63, s, 3, StubRng()) for s in range(3)]
        supports = [set(state.amps) for state in states]
        assert supports[0] == supports[1] == supports[2]
        for state in states:
            for amp in state.amps.values():
                assert abs(amp) == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_draw_is_a_phased_left_coset(self):
        # From any support point a, the draw holds a pi^t with amplitude
        # w^(st) times that of a: the support is a left coset sigma <pi>.
        rng = np.random.default_rng(57)
        w = cmath.exp(2j * math.pi / 3)
        for s in range(3):
            for _ in range(20):
                state = gen_cyc(PI63, s, 3, rng)
                a = next(iter(state.amps))[1]
                expected = {
                    (0, compose(a, perm_pow(PI63, t))): state.amps[(0, a)] * w ** (s * t)
                    for t in range(3)
                }
                assert set(state.amps) == set(expected)
                for key, amp in expected.items():
                    assert state.amps[key] == pytest.approx(amp, abs=1e-9)


def exact_entries(state: SparseState) -> list:
    # repr tells -0.0 from 0.0, which == does not and ciphertext text does
    return [(r, perm.image, repr(amp)) for (r, perm), amp in state.amps.items()]


def circuit_entries(state: SparseState, pi: Permutation, m: int) -> list:
    """The entries of the four-operation circuit of tests/oracles.py, as exact_entries lists them."""
    return [(r, image, repr(amp)) for (r, image), amp in decoder_circuit(state.amps, pi.image, m).items()]


def assert_rebuilds(out: SparseState, label) -> None:
    """The constructor, run on a result built without it, finds nothing to
    prune, coerce or refuse."""
    rebuilt = SparseState(out.n, out.m, dict(out.amps))
    assert (rebuilt.n, rebuilt.m) == (out.n, out.m), label
    assert exact_entries(rebuilt) == exact_entries(out), label


class TestOnePassDecode:
    """The one-pass decoder equals the four-operation circuit to the bit, in key order."""

    @settings(max_examples=150, deadline=None)
    @given(small_states(ms=(1,)), st.sampled_from(sorted(KEYS6)))
    def test_matches_the_circuit_on_random_states(self, state, m):
        pi = KEYS6[m]
        assert exact_entries(state.controlled_key_test(pi)) == circuit_entries(state, pi, m)

    def test_matches_the_circuit_on_coset_draws(self):
        rng = np.random.default_rng(58)
        for m in (2, 3, 6):
            params = SecurityParam.cyc(6, m)
            for _ in range(10):
                pi, other = sample_cyclic(params, rng), sample_cyclic(params, rng)
                for s in range(m):
                    draw = gen_cyc(pi, s, m, rng)
                    for key in (pi, other):  # the draw's key, and mostly a wrong one
                        want = circuit_entries(draw, key, m)
                        assert exact_entries(draw.controlled_key_test(key)) == want, (m, s)

    def test_split_terms_under_the_prune_tolerance_are_dropped_first(self):
        # A tiny entry on the draw's coset: its split terms land just under
        # (or just over) PRUNE_TOL. Dropped, they leave the sums alone; kept,
        # they move the low bits of the amplitudes they meet after the key.
        sigma = from_cycles(6, [(1, 4, 2), (3, 6)])
        for m, pi in KEYS6.items():
            for factor in (0.99, 1.01):
                tiny = factor * PRUNE_TOL * math.sqrt(m)
                state = SparseState(6, 1, {(0, sigma): math.sqrt(1 - tiny**2), (0, compose(sigma, pi)): tiny})
                assert len(state.amps) == 2
                want = circuit_entries(state, pi, m)
                assert exact_entries(state.controlled_key_test(pi)) == want, (m, factor)

    @settings(max_examples=150, deadline=None)
    @given(small_states(ms=(1,)), st.sampled_from(sorted(KEYS6)))
    def test_rebuilding_the_result_changes_nothing_on_random_states(self, state, m):
        assert_rebuilds(state.controlled_key_test(KEYS6[m]), m)

    def test_rebuilding_the_result_changes_nothing_on_coset_draws(self):
        # The decoder checks its result as it builds it and skips the constructor.
        rng = np.random.default_rng(63)
        for m in (2, 3, 6):
            params = SecurityParam.cyc(6, m)
            for _ in range(10):
                pi, other = sample_cyclic(params, rng), sample_cyclic(params, rng)
                for s in range(m):
                    draw = gen_cyc(pi, s, m, rng)
                    for key in (pi, other):
                        out = draw.controlled_key_test(key)
                        assert (out.n, out.m) == (6, m)
                        assert_rebuilds(out, (m, s))

    def test_the_inline_norm_check_is_live(self, monkeypatch):
        # A forward table scaled by 1.01 scales the result's norm by 1.01,
        # which the decoder's own pass must refuse.
        rows, scale = qstate._fourier_table(3, "forward")
        monkeypatch.setattr(qstate, "_fourier_table", lambda m, direction: (rows, 1.01 * scale))
        state = gen_cyc(PI63, 1, 3, np.random.default_rng(64))
        with pytest.raises(ValueError, match=r"^state norm 1\.01\d* not 1 within 1e-09$"):
            state.controlled_key_test(PI63)

    def test_output_entries_under_the_prune_tolerance_are_dropped(self):
        # A symbol-0 draw with a tiny symbol-1 part: the decoder leaves each
        # coset point an entry at control 1 of magnitude factor * PRUNE_TOL,
        # dropped just under the tolerance and kept just over it.
        sigma = from_cycles(6, [(1, 4, 2), (3, 6)])
        for m, pi in KEYS6.items():
            coset = [compose(sigma, perm_pow(pi, t)) for t in range(m)]
            w = cmath.exp(2j * math.pi / m)
            for factor, kept in ((0.99, m), (1.01, 2 * m)):
                tiny = factor * PRUNE_TOL * math.sqrt(m)
                big = math.sqrt(1 - tiny**2)
                state = SparseState(6, 1, {
                    (0, perm): (big + tiny * w**t) / math.sqrt(m) for t, perm in enumerate(coset)
                })
                out = state.controlled_key_test(pi)
                assert len(out.amps) == kept, (m, factor)
                assert exact_entries(out) == circuit_entries(state, pi, m), (m, factor)
                assert all(abs(amp) >= PRUNE_TOL for amp in out.amps.values())

    def test_result_is_a_validated_state(self):
        state = gen_cyc(PI63, 1, 3, np.random.default_rng(59))
        out = state.controlled_key_test(PI63)
        assert (out.n, out.m) == (6, 3)
        assert abs(norm(out) - 1.0) <= 1e-9
        assert all(abs(amp) >= PRUNE_TOL for amp in out.amps.values())

    def test_refuses_a_state_with_a_control_register(self):
        with pytest.raises(ValueError, match="control register"):
            SparseState(6, 3, {(0, identity(6)): 1.0}).controlled_key_test(PI63)


class TestCheckedAtTheBoundary:
    """States are checked where they enter; draws, sign conversions and
    translations build theirs without the constructor and skip no check."""

    def test_rebuilding_a_draw_changes_nothing(self):
        rng = np.random.default_rng(65)
        for n, m in ((6, 2), (6, 3), (6, 6), (12, 6)):
            params = SecurityParam.cyc(n, m)
            for _ in range(10):
                pi = sample_cyclic(params, rng)
                for s in range(m):
                    assert_rebuilds(gen_cyc(pi, s, m, rng), (n, m, s))
        for _ in range(20):
            assert_rebuilds(gen_plus(PI6, rng), "gen_plus")

    def test_rebuilding_a_promise_draw_changes_nothing(self):
        rng = np.random.default_rng(66)
        for inst in (planted_yes_instance(), planted_no_instance()):
            for _ in range(20):
                assert_rebuilds(coset_sample(inst, rng), len(inst.aut_elements()))

    def test_rebuilding_a_moved_draw_changes_nothing(self):
        rng = np.random.default_rng(67)
        for m, pi in KEYS6.items():
            for s in range(m):
                draw = gen_cyc(pi, s, m, rng)
                assert_rebuilds(convert(draw), ("convert", m, s))
                assert_rebuilds(draw.translate(random_permutation(6, rng)), ("translate", m, s))
                lifted = SparseState(6, m, {(0, perm): amp for (_, perm), amp in draw.amps.items()})
                split = lifted.fourier_control("inverse")
                assert_rebuilds(split.controlled_power(pi), ("controlled_power", m, s))

    @settings(max_examples=150, deadline=None)
    @given(small_states())
    def test_rebuilding_any_operation_result_changes_nothing(self, state):
        for name, moved in operations(state).items():
            assert_rebuilds(moved, name)
        assert_rebuilds(convert(state), "convert")

    def test_the_row_norm_check_is_live(self):
        # A row scaled by 1.01 has norm 1.01. The draw runs no constructor,
        # so only the check where the row is cached can refuse it.
        class ScaledMath:
            pi = math.pi

            @staticmethod
            def sqrt(x):
                return math.sqrt(x) / 1.01

        qscdcyc._phase_row.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(qscdcyc, "math", ScaledMath)
                with pytest.raises(ValueError, match=r"^state norm 1\.01\d* not 1 within 1e-09$"):
                    gen_cyc(PI63, 1, 3, np.random.default_rng(68))
        finally:
            qscdcyc._phase_row.cache_clear()
        assert abs(norm(gen_cyc(PI63, 1, 3, np.random.default_rng(68))) - 1.0) <= 1e-9

    def test_the_trial_path_runs_no_constructor(self, monkeypatch):
        # Every state of a trial is a draw, a conversion, a translation or a
        # decoder result: the same entries and symbols come out when the
        # constructor raises, and the entry points still run it.
        yes, no = planted_yes_instance(), planted_no_instance()
        key14 = yes.hidden_key()

        def trials():
            rng = np.random.default_rng(69)
            pi12 = sample_cyclic(SecurityParam.cyc(12, 6), rng)
            out = []
            for _ in range(10):
                plus, draw = gen_plus(PI6, rng), gen_cyc(pi12, 5, 6, rng)
                minus, moved = convert(plus), draw.translate(random_permutation(12, rng))
                yes_draw, no_draw = coset_sample(yes, rng), coset_sample(no, rng)
                symbols = [
                    decode_cyc(plus, PI6, rng), decode_cyc(minus, PI6, rng),
                    decode_cyc(draw, pi12, rng), decode_cyc(moved, pi12, rng),
                    decode_cyc(yes_draw, key14, rng), decode_cyc(no_draw, key14, rng),
                ]
                states = (plus, draw, minus, moved, yes_draw, no_draw)
                out.append(([exact_entries(state) for state in states], symbols))
            return out

        want = trials()
        text = gen_plus(PI6, np.random.default_rng(70)).to_text()

        def refuse(self):
            raise AssertionError("a state went through the constructor")

        monkeypatch.setattr(SparseState, "__post_init__", refuse)
        assert trials() == want
        with pytest.raises(AssertionError, match="through the constructor"):
            basis_state(0, PI6, 1)
        with pytest.raises(AssertionError, match="through the constructor"):
            SparseState.from_text(text)


class TestDenseDecodeOracle:
    def test_every_key_and_symbol_matches_the_dense_circuit(self):
        # Every key of K_6^m, found by the oracle's own scan of S_6, and
        # every symbol: the sparse distribution equals the dense circuit's,
        # and each wrong outcome stays below 1e-12 in both.
        dense = DenseSymmetricGroup(6)
        rng = np.random.default_rng(60)
        for m in (2, 3, 6):
            keys = sorted(brute_cyclic_class(6, m))
            assert len(keys) == {2: 15, 3: 40, 6: 120}[m]
            for image in keys:
                pi = Permutation(image)
                for s in range(m):
                    draw = gen_cyc(pi, s, m, rng)
                    got = np.array(decode_distribution(draw, pi))
                    want = dense.decode_distribution(draw.amps, image, m)
                    assert np.abs(got - want).max() <= 1e-12, (image, s)
                    wrong = np.arange(m) != s
                    assert got[wrong].max() < 1e-12 and want[wrong].max() < 1e-12, (image, s)

    def test_dense_circuit_spreads_an_off_coset_state(self):
        # Two entries off any one coset: both engines must see the spread.
        dense = DenseSymmetricGroup(6)
        sigma = from_cycles(6, [(1, 4, 2), (3, 6)])
        state = SparseState(6, 1, {(0, identity(6)): 0.6, (0, sigma): 0.8j})
        for m, pi in KEYS6.items():
            got = np.array(decode_distribution(state, pi))
            want = dense.decode_distribution(state.amps, pi.image, m)
            assert np.abs(got - want).max() <= 1e-12 and want.max() < 1 - 1e-3, m


@pytest.mark.slow
def test_distinguish_timing():
    # Not a gate: prints the best of 7 for one trapdoor test on a two-entry
    # n = 6 state, and for decode_cyc on the draws that make the protocol
    # workload's tail: a (12,6) coset draw and an ff n = 14 draw.
    # pytest -m slow -s tests/test_qscdcyc.py -k timing
    rng = np.random.default_rng(61)
    state = gen_plus(PI6, rng)
    pi12 = sample_cyclic(SecurityParam.cyc(12, 6), rng)
    pi14 = sample_fpf_involution(SecurityParam.ff(14), rng)
    draw12, draw14 = gen_cyc(pi12, 5, 6, rng), gen_plus(pi14, rng)
    number = 2000
    timings = {
        "distinguish, two-entry n = 6 state": lambda: distinguish(state, PI6, rng),
        "decode_cyc, (12,6) coset draw": lambda: decode_cyc(draw12, pi12, rng),
        "decode_cyc, ff n = 14 draw": lambda: decode_cyc(draw14, pi14, rng),
    }
    print()
    for name, run in timings.items():
        best = min(timeit.repeat(run, number=number, repeat=7)) / number
        print(f"{name}: {best * 1e6:.1f} us (best of 7 runs of {number})")
    assert distinguish(state, PI6, rng) == 1
    assert decode_cyc(draw12, pi12, rng) == 5 and decode_cyc(draw14, pi14, rng) == 0


@pytest.mark.slow
def test_permgroup_kernel_timing():
    # Not a gate: prints the best of 7 for the kernels on every draw and
    # decode at n = 6, and for the draws and state operations of a trial.
    # pytest -m slow -s tests/test_qscdcyc.py -k timing
    rng = np.random.default_rng(62)
    sigma, tau = random_permutation(6, rng), random_permutation(6, rng)
    pi12 = sample_cyclic(SecurityParam.cyc(12, 6), rng)
    draw = gen_plus(PI6, rng)
    number = 20000
    perms = []

    def fresh_draws():  # new draws each run: a cycle type cached by a run before would be read
        perms[:] = [random_permutation(6, rng) for _ in range(number)]

    def sign_each():
        for p in perms:
            sign(p)

    timings = {
        "compose, reused right factor, n = 6": timeit.repeat(lambda: compose(sigma, tau), number=number, repeat=7),
        "sign, fresh permutation, n = 6": timeit.repeat(sign_each, fresh_draws, number=1, repeat=7),
        "random_permutation, n = 6": timeit.repeat(lambda: random_permutation(6, rng), number=number, repeat=7),
        "gen_plus, ff n = 6": timeit.repeat(lambda: gen_plus(PI6, rng), number=number, repeat=7),
        "gen_cyc, (12,6)": timeit.repeat(lambda: gen_cyc(pi12, 5, 6, rng), number=number, repeat=7),
        "convert, n = 6 draw": timeit.repeat(lambda: convert(draw), number=number, repeat=7),
        "translate, n = 6 draw": timeit.repeat(lambda: draw.translate(tau), number=number, repeat=7),
    }
    print()
    for name, runs in timings.items():
        print(f"{name}: {min(runs) / number * 1e6:.2f} us (best of 7 runs of {number})")
    assert sign(compose(sigma, tau)) == sign(sigma) ^ sign(tau)
