"""Dominant weights, restriction interlacing, and tensor mode families."""

import pytest
from hypothesis import given, settings, strategies as st

from spherehess.errors import DomainError, RankMismatch, UnsupportedSigma
from spherehess.ktypes import (
    DominantWeight,
    KType,
    branches,
    bundle_ktypes_bruteforce,
    bundle_weights,
    dominant_weights_upto,
    is_dominant,
    pad_weight,
    q_range,
)


class TestDominantWeight:
    def test_shape_validation(self):
        with pytest.raises(DomainError):
            DominantWeight((2, 1, 0), group_rank=5)  # SO(5) has rank 2
        with pytest.raises(DomainError):
            DominantWeight((2,), group_rank=1)

    def test_odd_group_requires_nonnegative_tail(self):
        assert is_dominant(DominantWeight((3, 1), group_rank=5))
        assert not is_dominant(DominantWeight((3, -1), group_rank=5))
        assert not is_dominant(DominantWeight((1, 3), group_rank=5))

    def test_even_group_allows_negative_last(self):
        assert is_dominant(DominantWeight((3, -1), group_rank=4))
        assert is_dominant(DominantWeight((3, 1), group_rank=4))
        assert not is_dominant(DominantWeight((1, -3), group_rank=4))

    def test_pad_weight(self):
        w = pad_weight((2, 1), group_rank=9)
        assert w.entries == (2, 1, 0, 0)


def _interlaces_odd_to_even(beta, sigma):
    # SO(2m+1) -> SO(2m): b1 >= s1 >= b2 >= ... >= bm >= |sm|
    m = len(beta)
    ok = all(beta[i] >= sigma[i] for i in range(m))
    ok = ok and all(sigma[i] >= beta[i + 1] for i in range(m - 1))
    return ok and beta[m - 1] >= abs(sigma[m - 1])


def _interlaces_even_to_odd(beta, sigma):
    # SO(2m) -> SO(2m-1): b1 >= s1 >= b2 >= ... >= s_{m-1} >= |bm|
    m = len(beta)
    ok = all(beta[i] >= sigma[i] for i in range(m - 1))
    ok = ok and all(sigma[i] >= beta[i + 1] for i in range(m - 2))
    return ok and sigma[m - 2] >= abs(beta[m - 1])


class TestBranching:
    def test_rank_mismatch(self):
        beta = DominantWeight((2, 1), group_rank=5)
        sigma = DominantWeight((1,), group_rank=3)
        with pytest.raises(RankMismatch):
            branches(beta, sigma)

    def test_exhaustive_so5_to_so4(self):
        for b1 in range(5):
            for b2 in range(b1 + 1):
                beta = DominantWeight((b1, b2), group_rank=5)
                for s1 in range(5):
                    for s2 in range(-s1, s1 + 1):
                        sigma = DominantWeight((s1, s2), group_rank=4)
                        expect = _interlaces_odd_to_even((b1, b2), (s1, s2))
                        assert branches(beta, sigma) == expect

    def test_exhaustive_so6_to_so5(self):
        for b1 in range(4):
            for b2 in range(b1 + 1):
                for b3 in range(-b2, b2 + 1):
                    beta = DominantWeight((b1, b2, b3), group_rank=6)
                    for s1 in range(4):
                        for s2 in range(s1 + 1):
                            sigma = DominantWeight((s1, s2), group_rank=5)
                            expect = _interlaces_even_to_odd(
                                (b1, b2, b3), (s1, s2)
                            )
                            assert branches(beta, sigma) == expect


class TestKType:
    def test_weight_head(self):
        t = KType(5, j=3, q=1)
        assert t.weight.entries[:2] == (5, 1)
        assert all(e == 0 for e in t.weight.entries[2:])

    def test_q_range_high_dimensions(self):
        KType(4, 0, 0), KType(4, 0, 2)
        with pytest.raises(DomainError):
            KType(4, 0, -1)
        with pytest.raises(DomainError):
            KType(4, 0, 3)

    def test_three_sphere_allows_negative_q(self):
        assert KType(3, 2, -2).weight.entries == (4, -2)
        with pytest.raises(DomainError):
            KType(3, 0, -3)

    @given(st.integers(4, 10), st.integers(0, 30), st.integers(0, 2))
    def test_weight_is_dominant(self, n, j, q):
        assert is_dominant(KType(n, j, q).weight)


class TestEnumeration:
    @pytest.mark.parametrize("n", [3, 5])
    def test_tensor_family_is_the_ktype_lattice(self, n):
        # the tensor bundle carries exactly the modes (2+j, q), q in q_range(n)
        got = bundle_weights(pad_weight((2,), n), n, first_max=5)
        assert got == {(2 + j, q) for j in range(4) for q in q_range(n)}
        assert all(KType(n, a - 2, b).weight.entries[:2] == (a, b) for a, b in got)

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("s", range(4))
    def test_bruteforce_matches_family_small(self, n, s):
        sigma = pad_weight((s,), n)
        got = bundle_ktypes_bruteforce(sigma, n, first_max=12)
        assert got == bundle_weights(sigma, n, first_max=12)

    def test_family_shapes(self):
        assert bundle_weights(pad_weight((1,), 6), 6, 4) == {
            (first, r) for first in range(1, 5) for r in (0, 1)
        }
        assert bundle_weights(pad_weight((2,), 6), 6, 4) == {
            (first, q) for first in range(2, 5) for q in (0, 1, 2)
        }
        # SO(4) has rank two: the second entry carries a sign on S^3
        assert bundle_weights(pad_weight((1,), 3), 3, 3) == {
            (first, r) for first in range(1, 4) for r in (-1, 0, 1)
        }
        assert bundle_weights(pad_weight((2,), 3), 3, 3) == {
            (first, q) for first in (2, 3) for q in (-2, -1, 0, 1, 2)
        }

    def test_sigma_validation(self):
        with pytest.raises(DomainError):
            bundle_weights(pad_weight((2,), 2), 2, 4)
        with pytest.raises(RankMismatch):
            bundle_weights(pad_weight((2,), 5), 6, 4)
        with pytest.raises(UnsupportedSigma):
            bundle_weights(pad_weight((2, 1), 6), 6, 4)


class TestDominantGenerator:
    def test_counts_small(self):
        # SO(5), rank 2, odd: 3 >= b1 >= b2 >= 0
        assert len(list(dominant_weights_upto(5, 3))) == 10
        # SO(4), rank 2, even: b1 >= |b2|
        assert len(list(dominant_weights_upto(4, 3))) == 16

    @settings(max_examples=40)
    @given(st.integers(4, 7), st.integers(0, 5))
    def test_all_generated_are_dominant(self, group_rank, bound):
        for w in dominant_weights_upto(group_rank, bound):
            assert is_dominant(w)
