import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscd.permgroup import Permutation, compose, conjugate, from_cycles, identity
from qscd.qstate import SparseState, _born_draw, basis_state, inner_product, states_equal

SQ2 = 1.0 / math.sqrt(2.0)


def plus_state(sigma, pi):
    return SparseState(
        sigma.n, 1, {(0, sigma): SQ2, (0, compose(sigma, pi)): SQ2}
    )


def minus_state(sigma, pi):
    return SparseState(
        sigma.n, 1, {(0, sigma): SQ2, (0, compose(sigma, pi)): -SQ2}
    )


def random_state(rng, n=4, m=3, support=5):
    perms = set()
    while len(perms) < support:
        perms.add(Permutation(tuple(int(x) + 1 for x in rng.permutation(n))))
    amps = {}
    for perm in perms:
        control = int(rng.integers(m))
        amps[(control, perm)] = complex(rng.normal(), rng.normal())
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return SparseState(n, m, {k: v / norm for k, v in amps.items()})


PI6 = from_cycles(6, [(1, 2), (3, 4), (5, 6)])


class TestConstruction:
    def test_basis_state_is_normalized_single_entry(self):
        state = basis_state(0, identity(3), 2)
        assert state.amps == {(0, identity(3)): 1.0 + 0j}
        assert abs(state.norm() - 1.0) < 1e-9

    def test_control_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(2, identity(3), 2)
        with pytest.raises(ValueError):
            SparseState(3, 2, {(3, identity(3)): 1.0})

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            SparseState(3, 1, {(0, identity(3)): 0.5})

    def test_prunes_tiny_amplitudes(self):
        state = SparseState(3, 1, {(0, identity(3)): 1.0, (0, from_cycles(3, [(1, 2)])): 1e-14})
        assert len(state.amps) == 1

    def test_degree_mismatch_entry(self):
        with pytest.raises(ValueError):
            SparseState(3, 1, {(0, identity(4)): 1.0})


class TestFourierControl:
    def test_m2_splits_the_start_state(self):
        state = basis_state(0, identity(6), 2).fourier_control("forward")
        assert state.amps == pytest.approx(
            {(0, identity(6)): SQ2, (1, identity(6)): SQ2}
        )

    def test_forward_then_inverse_is_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            state = random_state(rng)
            back = state.fourier_control("forward").fourier_control("inverse")
            assert states_equal(state, back)

    def test_m3_row_on_control_one(self):
        # Direct evaluation of the transform row: |1> gets amplitudes
        # (1, w, w^2)/sqrt(3) with w = exp(2 pi i / 3).
        w = cmath.exp(2j * math.pi / 3)
        state = basis_state(1, identity(3), 3).fourier_control("forward")
        expected = {
            (0, identity(3)): 1 / math.sqrt(3),
            (1, identity(3)): w / math.sqrt(3),
            (2, identity(3)): w * w / math.sqrt(3),
        }
        for key, amp in expected.items():
            assert state.amps[key] == pytest.approx(amp, abs=1e-9)

    def test_m2_directions_agree(self):
        rng = np.random.default_rng(11)
        state = random_state(rng, m=2)
        assert states_equal(state.fourier_control("forward"), state.fourier_control("inverse"))

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            basis_state(0, identity(2), 2).fourier_control("sideways")


class TestControlledPower:
    def test_control_zero_untouched(self):
        sigma = from_cycles(6, [(1, 3, 5)])
        state = basis_state(0, sigma, 2).controlled_power(PI6)
        assert state.amps == {(0, sigma): 1.0 + 0j}

    def test_involution_applied_twice_is_identity(self):
        state = basis_state(1, identity(6), 2)
        back = state.controlled_power(PI6).controlled_power(PI6)
        assert states_equal(state, back)

    def test_m3_square_of_three_cycle(self):
        # pi = (1 2 3): applying it twice from the right lands on (1 3 2).
        pi = from_cycles(3, [(1, 2, 3)])
        state = basis_state(2, identity(3), 3).controlled_power(pi)
        assert state.amps == {(2, from_cycles(3, [(1, 3, 2)])): 1.0 + 0j}

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            basis_state(0, identity(3), 2).controlled_power(identity(4))


class TestPhaseBySign:
    def test_involution_exact(self):
        rng = np.random.default_rng(12)
        state = random_state(rng)
        assert state.phase_by_sign().phase_by_sign().amps == state.amps

    def test_identity_unchanged(self):
        state = basis_state(0, identity(6), 1)
        assert states_equal(state.phase_by_sign(), state)

    def test_flips_plus_to_minus(self):
        sigma = identity(6)  # even, so sigma pi is odd
        flipped = plus_state(sigma, PI6).phase_by_sign()
        assert states_equal(flipped, minus_state(sigma, PI6))


class TestTranslate:
    def test_identity_translation(self):
        rng = np.random.default_rng(13)
        state = random_state(rng)
        assert states_equal(state.translate(identity(4)), state)

    def test_right_translation_conjugates_the_coset(self):
        rng = np.random.default_rng(14)
        sigma = Permutation(tuple(int(x) + 1 for x in rng.permutation(6)))
        tau = Permutation(tuple(int(x) + 1 for x in rng.permutation(6)))
        moved = plus_state(sigma, PI6).translate(tau)
        new_sigma = compose(sigma, tau)
        expected = {(0, new_sigma), (0, compose(new_sigma, conjugate(PI6, tau)))}
        assert set(moved.amps) == expected

    def test_right_then_inverse_roundtrip(self):
        rng = np.random.default_rng(15)
        state = random_state(rng)
        tau = Permutation(tuple(int(x) + 1 for x in rng.permutation(4)))
        from qscd.permgroup import inverse

        back = state.translate(tau).translate(inverse(tau))
        assert states_equal(state, back)


class TestMeasurement:
    def test_definite_control(self):
        rng = np.random.default_rng(16)
        state = SparseState(6, 2, {(0, identity(6)): SQ2, (0, PI6): SQ2})
        assert [state.measure_control(rng) for _ in range(50)] == [0] * 50

    def test_uniform_control_frequencies(self):
        rng = np.random.default_rng(17)
        state = basis_state(0, identity(4), 2).fourier_control("forward")
        hits = sum(state.measure_control(rng) for _ in range(4000))
        assert abs(hits / 4000 - 0.5) < 0.05

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            state = random_state(rng)
            assert abs(sum(state.control_probabilities()) - 1.0) < 1e-9

    def test_full_measurement_on_basis_state(self):
        rng = np.random.default_rng(19)
        sigma = from_cycles(5, [(1, 4)])
        assert basis_state(1, sigma, 3).measure_full(rng) == (1, sigma)

    def test_two_point_frequencies(self):
        rng = np.random.default_rng(20)
        state = plus_state(identity(6), PI6)
        hits = sum(state.measure_full(rng)[1] == identity(6) for _ in range(4000))
        assert abs(hits / 4000 - 0.5) < 0.05

    def test_phase_invisible_to_full_measurement(self):
        plus = plus_state(identity(6), PI6)
        minus = minus_state(identity(6), PI6)
        probs_plus = {k: abs(a) ** 2 for k, a in plus.amps.items()}
        probs_minus = {k: abs(a) ** 2 for k, a in minus.amps.items()}
        assert probs_plus == pytest.approx(probs_minus)


class TestStatesEqual:
    def test_reflexive(self):
        rng = np.random.default_rng(21)
        state = random_state(rng)
        assert states_equal(state, state)

    def test_global_phase_flag(self):
        state = plus_state(identity(6), PI6)
        negated = SparseState(6, 1, {k: -v for k, v in state.amps.items()})
        assert not states_equal(state, negated)
        assert states_equal(state, negated, up_to_global_phase=True)

    def test_plus_and_minus_differ_either_way(self):
        plus = plus_state(identity(6), PI6)
        minus = minus_state(identity(6), PI6)
        assert not states_equal(plus, minus)
        assert not states_equal(plus, minus, up_to_global_phase=True)

    def test_orthogonality_via_inner_product(self):
        plus = plus_state(identity(6), PI6)
        minus = minus_state(identity(6), PI6)
        assert abs(inner_product(plus, minus)) < 1e-9


class TestUnitarity:
    def test_operations_preserve_norm(self):
        rng = np.random.default_rng(22)
        tau = from_cycles(4, [(1, 2, 3, 4)])
        for _ in range(10):
            state = random_state(rng)
            for moved in (
                state.fourier_control("forward"),
                state.fourier_control("inverse"),
                state.controlled_power(tau),
                state.phase_by_sign(),
                state.translate(tau),
            ):
                assert abs(moved.norm() - 1.0) < 1e-9


class TestRegisters:
    def test_with_control_attaches_zero(self):
        state = basis_state(0, identity(6), 1)
        lifted = state.with_control(3)
        assert lifted.m == 3
        assert lifted.amps == state.amps

    def test_with_control_rejects_existing(self):
        with pytest.raises(ValueError):
            basis_state(0, identity(3), 2).with_control(3)


class TestSerialization:
    def test_roundtrip_is_bit_faithful(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            state = random_state(rng)
            back = SparseState.from_text(state.to_text())
            assert back.n == state.n and back.m == state.m
            assert set(back.amps) == set(state.amps)
            for key, amp in state.amps.items():
                assert back.amps[key] == amp  # exact float equality

    def test_known_rendering(self):
        text = basis_state(0, Permutation((2, 1)), 2).to_text()
        assert text == "QSTATE 2 2 1\n0 1 0 2: 2 1\n"

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            SparseState.from_text("NOTASTATE 1 1 1\n")

    def test_rejects_duplicate_entries(self):
        text = "QSTATE 2 1 2\n0 0.8 0 2: 1 2\n0 0.6 0 2: 1 2\n"
        with pytest.raises(ValueError):
            SparseState.from_text(text)

    def test_rejects_entry_count_mismatch(self):
        with pytest.raises(ValueError):
            SparseState.from_text("QSTATE 2 1 2\n0 1 0 2: 1 2\n")

    @pytest.mark.parametrize("text", ["", "\n", "  \n\n"])
    def test_rejects_empty_text(self, text):
        with pytest.raises(ValueError, match="empty"):
            SparseState.from_text(text)

    @pytest.mark.parametrize("re_s, im_s", [("nan", "0"), ("0", "nan"), ("inf", "0"), ("0", "-inf")])
    def test_rejects_non_finite_amplitudes(self, re_s, im_s):
        # Without the check a NaN entry would be pruned and the rest accepted.
        text = f"QSTATE 2 1 2\n0 1 0 2: 1 2\n0 {re_s} {im_s} 2: 2 1\n"
        with pytest.raises(ValueError, match="not finite"):
            SparseState.from_text(text)


class TestNonFiniteAmplitudes:
    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0, float("nan"))])
    def test_constructor_refuses(self, bad):
        with pytest.raises(ValueError, match="norm"):
            SparseState(2, 1, {(0, identity(2)): 1.0, (0, Permutation((2, 1))): bad})


class TestBornDraw:
    """_born_draw must draw exactly as Generator.choice with p = w / w.sum()."""

    def test_matches_generator_choice(self):
        # Lengths from 8 up, where numpy sums pairwise rather than in order,
        # included; zero weights and weights of very different scales too.
        # The two generators must stay in step after every draw.
        for seed in range(2000):
            weights_rng = np.random.default_rng([seed, 1])
            ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            for length in range(1, 41):
                weights = weights_rng.random(length) ** 3 * 10.0 ** weights_rng.integers(-6, 6)
                if length > 1 and seed % 5 == 0:
                    weights[weights_rng.integers(length)] = 0.0
                got = _born_draw(weights.tolist(), ours)
                want = int(numpys.choice(length, p=weights / weights.sum()))
                assert got == want, (seed, length)
                assert ours.random() == numpys.random(), (seed, length)

    def test_boundaries_match_numpy_arithmetic(self):
        # A uniform draw that lands exactly on a cumulative boundary tells
        # cumulative sums apart that differ in the last bit.
        class Fixed:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        for seed in range(100):
            weights_rng = np.random.default_rng([seed, 2])
            for length in range(1, 41):
                weights = weights_rng.random(length) ** 3
                cdf = (weights / weights.sum()).cumsum()
                cdf /= cdf[-1]
                for u in cdf:
                    want = int(cdf.searchsorted(u, side="right"))
                    assert _born_draw(weights.tolist(), Fixed(float(u))) == want, (seed, length)


# Random small states over n = 6 with a control register over Z_m.
@st.composite
def small_states(draw, ms=(2, 3, 6)):
    m = draw(st.sampled_from(ms))
    images = draw(st.lists(st.permutations(range(1, 7)), min_size=1, max_size=6, unique_by=tuple))
    amps = {}
    for image in images:
        control = draw(st.integers(0, m - 1))
        size = draw(st.floats(0.05, 1.0))
        angle = draw(st.floats(0.0, 2 * math.pi))
        amps[(control, Permutation(tuple(image)))] = size * cmath.exp(1j * angle)
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return SparseState(6, m, {k: a / norm for k, a in amps.items()})


KEYS6 = {2: PI6, 3: from_cycles(6, [(1, 2, 3), (4, 5, 6)]), 6: from_cycles(6, [(1, 3, 5, 2, 4, 6)])}


def operations(state):
    """Every state operation applied to the state, by name."""
    tau = from_cycles(6, [(1, 4, 2), (3, 6)])
    moved = {
        "forward": state.fourier_control("forward"),
        "inverse": state.fourier_control("inverse"),
        "controlled key": state.controlled_power(KEYS6[state.m]),
        "controlled other": state.controlled_power(tau),
        "sign": state.phase_by_sign(),
        "right": state.translate(tau),
    }
    return moved


class TestStateProperties:
    @settings(max_examples=150, deadline=None)
    @given(small_states())
    def test_inverse_fourier_undoes_forward(self, state):
        back = state.fourier_control("forward").fourier_control("inverse")
        assert states_equal(back, state)
        back = state.fourier_control("inverse").fourier_control("forward")
        assert states_equal(back, state)

    @settings(max_examples=150, deadline=None)
    @given(small_states())
    def test_operations_preserve_norm(self, state):
        for name, moved in operations(state).items():
            assert abs(moved.norm() - 1.0) <= 1e-9, name

    @settings(max_examples=150, deadline=None)
    @given(small_states())
    def test_support_grows_at_most_m_fold(self, state):
        for name, moved in operations(state).items():
            assert len(moved.amps) <= state.m * len(state.amps), name

    @settings(max_examples=150, deadline=None)
    @given(small_states())
    def test_fourier_matches_entrywise_sum(self, state):
        # Reference: one entry at a time, each term added as it comes.
        m, scale = state.m, 1.0 / math.sqrt(state.m)
        for direction, sgn in (("forward", 1), ("inverse", -1)):
            roots = [cmath.exp(sgn * 2j * math.pi * k / m) for k in range(m)]
            out = {}
            for (r, perm), amp in state.amps.items():
                for r2 in range(m):
                    out[(r2, perm)] = out.get((r2, perm), 0j) + amp * roots[r * r2 % m] * scale
            want = SparseState(state.n, m, out)
            got = state.fourier_control(direction)
            assert list(got.amps.items()) == list(want.amps.items())
            assert got.to_text() == want.to_text()

    @settings(max_examples=150, deadline=None)
    @given(small_states(ms=(1, 2, 3, 6)))
    def test_text_roundtrip_is_exact(self, state):
        back = SparseState.from_text(state.to_text())
        assert (back.n, back.m) == (state.n, state.m)
        assert back.amps == state.amps
        assert back.to_text() == state.to_text()
