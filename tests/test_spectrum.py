"""Casimir values, the two-term eigenvalue recursion, and sign classification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spherehess.errors import DomainError, InconsistentSystem
from spherehess.ktypes import KType
from spherehess.spectrum import (
    _solve_lattice,
    HessianKind,
    classify_hessian,
    closed_form_table,
    kappa,
    kappa_inner_product,
    recursion_matches_closed_form,
    spectrum_generate,
    spectrum_generate3,
    t0_eigenvalue,
)


_NONZERO = st.builds(Fraction, st.integers(-10**9, 10**9).filter(bool),
                     st.integers(1, 10**9))


def _all_q(n):
    return (-2, -1, 0, 1, 2) if n == 3 else (0, 1, 2)


class TestKappa:
    @given(st.integers(3, 12), st.integers(0, 50))
    def test_closed_formula_matches_inner_product_oracle(self, n, j):
        for q in _all_q(n):
            t = KType(n, j, q)
            assert kappa(t) == kappa_inner_product(t)

    def test_frozen_value(self):
        # (n + j + 1)(j + 2) + q(n + q - 3) at n=4, j=1, q=2
        assert kappa(KType(4, 1, 2)) == 6 * 3 + 2 * 3

    def test_step_identities(self):
        # The edge increments that _solve_lattice hardcodes.
        for n in (3, 4, 7):
            for j in range(5):
                for q in _all_q(n):
                    t = KType(n, j, q)
                    assert kappa(KType(n, j + 1, q)) - kappa(t) == n + 2 * j + 4
                    if q < 2:
                        assert kappa(KType(n, j, q + 1)) - kappa(t) == n + 2 * q - 2


class TestRecursion:
    def test_spec_example_n4(self):
        table = spectrum_generate(4, 1, Fraction(2880))
        assert table.value(0, 2) == 2880
        assert table.value(1, 2) == 8640

    def test_forced_zeros(self):
        table = spectrum_generate(5, 4, Fraction(1))
        for j in range(5):
            assert table.value(j, 0) == 0
            assert table.value(j, 1) == 0

    def test_scale_freedom_is_linear(self):
        one = spectrum_generate(6, 3, Fraction(1))
        seven = spectrum_generate(6, 3, Fraction(7))
        for j in range(4):
            for q in (0, 1, 2):
                assert seven.value(j, q) == 7 * one.value(j, q)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 9), st.integers(0, 20))
    def test_j_ratio_law(self, n, j):
        table = closed_form_table(n, j + 1)
        assert table.value(j + 1, 2) * (j + 2) == table.value(j, 2) * (n + j + 2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12])
    def test_recursion_matches_closed_form(self, n):
        assert recursion_matches_closed_form(n, 25)

    def test_three_sphere_five_branches(self):
        plus = t0_eigenvalue(KType(3, 0, 2))
        minus = t0_eigenvalue(KType(3, 0, -2))
        assert (plus, minus) == (144, -144)
        table = spectrum_generate3(20, plus, minus)
        for j in range(21):
            for q in (-2, -1, 0, 1, 2):
                assert table.value(j, q) == t0_eigenvalue(KType(3, j, q))

    def test_rational_seed_scales_the_unit_table(self):
        # a seed with a denominator, so the integer re-check sees one
        unit = spectrum_generate(6, 30, Fraction(1)).entries
        scaled = spectrum_generate(6, 30, Fraction(3, 7)).entries
        assert scaled == {t: Fraction(3, 7) * v for t, v in unit.items()}

    def test_warm_workload_identity(self):
        table = spectrum_generate(12, 800, t0_eigenvalue(KType(12, 0, 2)))
        assert closed_form_table(12, 800).entries == table.entries

    def test_recheck_catches_a_seed_against_a_forced_zero(self):
        # (0, 0) is forced to zero by its degenerate edge; a nonzero seed
        # there wins the sweep and must fail the re-check
        with pytest.raises(InconsistentSystem, match="edge relation violated"):
            _solve_lattice(5, 3, {0: Fraction(1), 2: Fraction(1)})

    def test_no_seed_leaves_modes_unreached(self):
        # (0, 2) is cut off from the forced zeros by the degenerate edge
        # from q = 1; the message names the j = 0 mode of its column
        with pytest.raises(InconsistentSystem,
                           match=r"unreached modes: \[KType\(dim_n=5, j=0, q=2\)\]"):
            _solve_lattice(5, 3, {})

    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 16), st.integers(0, 60), _NONZERO, _NONZERO)
    def test_sweep_is_the_seeded_closed_form(self, n, j_max, plus, minus):
        # j_max = 0 leaves no column to fill; on S^3 the seed at (0, -2)
        # scales the q < 0 branch and the one at (0, 2) the rest
        closed = closed_form_table(n, j_max).entries
        if n == 3:
            table = spectrum_generate3(j_max, plus, minus)
        else:
            table = spectrum_generate(n, j_max, plus)
        scale_plus = plus / closed[KType(n, 0, 2)]
        scale_minus = minus / closed[KType(n, 0, -2)] if n == 3 else None
        assert table.entries == {
            t: (scale_minus if t.q < 0 else scale_plus) * v for t, v in closed.items()
        }

    def test_value_requires_tabulated_mode(self):
        table = spectrum_generate(4, 2, Fraction(1))
        with pytest.raises(DomainError):
            table.value(3, 2)


class TestClosedForm:
    def test_rising_product_structure(self):
        # rising(j+2, n) * rising(q-1, n) at n=4, j=0, q=2: 2*3*4*5 * 1*2*3*4
        assert t0_eigenvalue(KType(4, 0, 2)) == 120 * 24

    @given(st.integers(4, 12), st.integers(0, 60))
    def test_kernel_at_low_q(self, n, j):
        assert t0_eigenvalue(KType(n, j, 0)) == 0
        assert t0_eigenvalue(KType(n, j, 1)) == 0
        assert t0_eigenvalue(KType(n, j, 2)) > 0

    @pytest.mark.parametrize("n", range(3, 14))
    def test_table_is_the_pointwise_formula(self, n):
        expect = {}
        for j in range(61):
            for q in _all_q(n):
                value = Fraction(1)
                for i in range(n):
                    value *= Fraction(j + 2 + i) * (q - 1 + i)
                expect[KType(n, j, q)] = value
        assert closed_form_table(n, 60).entries == expect

    def test_three_sphere_mirror_zero(self):
        assert t0_eigenvalue(KType(3, 5, -1)) == 0


class TestClassification:
    def test_positive_semidefinite(self):
        c = classify_hessian(5, Fraction(3))
        assert c.kind is HessianKind.POSITIVE_SEMIDEFINITE
        assert "conformal Killing" in c.kernel_description

    def test_negative_and_zero(self):
        assert classify_hessian(5, Fraction(-2)).kind is HessianKind.NEGATIVE_SEMIDEFINITE
        assert classify_hessian(5, Fraction(0)).kind is HessianKind.ZERO

    def test_three_sphere_pairs(self):
        pos = classify_hessian(3, (Fraction(2), Fraction(-3)))
        assert pos.kind is HessianKind.POSITIVE_SEMIDEFINITE
        neg = classify_hessian(3, (Fraction(-2), Fraction(3)))
        assert neg.kind is HessianKind.NEGATIVE_SEMIDEFINITE
        mixed = classify_hessian(3, (Fraction(2), Fraction(3)))
        assert mixed.kind is HessianKind.INDEFINITE
        zero = classify_hessian(3, (Fraction(0), Fraction(0)))
        assert zero.kind is HessianKind.ZERO

    def test_argument_shape_enforced(self):
        with pytest.raises(DomainError):
            classify_hessian(3, Fraction(1))
        with pytest.raises(DomainError):
            classify_hessian(5, (Fraction(1), Fraction(1)))
