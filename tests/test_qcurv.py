"""Exact rational symbol calculus for the linearized curvature operators."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spherehess import qcurv
from spherehess.errors import (
    DomainError,
    ParityError,
    PreconditionViolation,
    ZeroCovector,
)
from spherehess.qcurv import (
    _check_even,
    _check_symmetric,
    _require_tt,
    _validated,
    ahlfors_symbol,
    as_matrix,
    as_vector,
    frobenius,
    hessian_symbol,
    identity,
    laplacian_symbol,
    lin_obstruction_symbol,
    lin_obstruction_symbol_direct,
    lin_ricci_symbol,
    lin_scalar_symbol,
    lin_schouten_from_ricci,
    lin_schouten_symbol,
    mat_add,
    mat_apply,
    mat_scale,
    mat_trace,
    outer,
    project_tt,
    q_hessian_expected,
    q_hessian_symbol,
    q_symbol_identity_holds,
    xi_norm_sq,
)

small_frac = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)


def _vec(entries):
    return as_vector([Fraction(e) for e in entries])


def _sym(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    return as_matrix([[mat[i][j] + mat[j][i] for j in range(len(mat))]
                      for i in range(len(mat))])


def _symmetric(mat):
    return all(mat[i][j] == mat[j][i] for i in range(len(mat)) for j in range(i))


def _tt_sample(rng_ints, n):
    """Build a transverse trace-free rational matrix from an integer seed."""
    if not any(rng_ints):
        raise ValueError("seed data must contain a nonzero entry")
    it = itertools.cycle(rng_ints)
    while True:
        xi = tuple(Fraction(next(it)) for _ in range(n))
        if any(xi):
            break
    raw = [[Fraction(next(it)) for _ in range(n)] for _ in range(n)]
    sym = [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
    return xi, project_tt(xi, as_matrix(sym))


class TestConventions:
    def test_laplacian_symbol_is_minus_norm_squared(self):
        xi = _vec((1, 2, 2))
        assert laplacian_symbol(xi) == -9

    def test_hessian_symbol_is_minus_outer(self):
        xi = _vec((1, 2))
        assert hessian_symbol(xi) == ((-1, -2), (-2, -4))


class TestScalarAndRicci:
    def test_scalar_formula(self):
        xi = _vec((1, 0, 0, 0))
        k = _sym([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
        # -xi.k xi + |xi|^2 tr k = -2 + 20
        assert lin_scalar_symbol(4, xi, k) == 18

    def test_scalar_vanishes_on_tt(self):
        xi, k = _tt_sample([1, 2, -1, 3, 0, 1, -2, 4, 1, 0, 2, -3, 1, 1, 0,
                            2, -1, 3, 2, 0, 1], 4)
        assert lin_scalar_symbol(4, xi, k) == 0

    def test_ricci_is_symmetric_and_traces_to_scalar(self):
        xi = _vec((1, 2, 0, -1))
        k = _sym([[2, 1, 0, 0], [1, -1, 3, 0], [0, 3, 0, 1], [0, 0, 1, 2]])
        ric = lin_ricci_symbol(4, xi, k)
        assert all(ric[i][j] == ric[j][i] for i in range(4) for j in range(4))
        # the trace of the Ricci linearization recovers the scalar one
        scal = lin_scalar_symbol(4, xi, k)
        assert mat_trace(ric) == scal


class TestSchouten:
    def test_dual_routes_agree(self):
        data = [3, 1, -2, 0, 2, 1, 4, -1, 0, 2, 1, -3, 2, 0, 1, 1, -2, 3,
                0, 1, 2, -1, 0, 4, 1]
        for n in (4, 6):
            xi, k = _tt_sample(data, n)
            a = lin_schouten_symbol(n, xi, k)
            b = lin_schouten_from_ricci(n, xi, k)
            assert a == b

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([4, 6]), st.lists(st.integers(-4, 4), min_size=42,
                                             max_size=42), st.integers(1, 4))
    def test_ricci_route_scalar_part_on_non_tt_input(self, n, data, den):
        # lin_schouten_from_ricci takes its scalar part from the trace of the
        # Ricci symbol, not from the integer chain's lin_scalar_symbol; off
        # TT input, where that part does not vanish, the two must agree.
        xi = _vec(Fraction(v, den) for v in data[:n])
        if not any(xi):
            xi = _vec((1, *xi[1:]))
        k = _sym([[Fraction(data[n + n * i + j], den + 1) for j in range(n)]
                  for i in range(n)])
        ricci = lin_ricci_symbol(n, xi, k)
        scal = lin_scalar_symbol(n, xi, k)
        assert mat_trace(ricci) == scal
        want = mat_scale(Fraction(1, n - 2), mat_add(
            ricci, mat_scale(-Fraction(1, 2 * (n - 1)) * scal, identity(n))))
        assert lin_schouten_from_ricci(n, xi, k) == want

    def test_tt_value(self):
        xi, k = _tt_sample([2, 0, -1, 1, 3, -2, 0, 1, 2, 4, -1, 0, 1, 2, 0,
                            3, 1, -1, 0, 2], 4)
        got = lin_schouten_symbol(4, xi, k)
        want = mat_scale(xi_norm_sq(xi) * Fraction(1, 2 * (4 - 2)), k)
        assert got == want

    def test_requires_tt_input(self):
        xi = _vec((1, 0, 0, 0))
        k = _sym([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(PreconditionViolation):
            lin_schouten_symbol(4, xi, k)


class TestObstruction:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_assembled_equals_direct_equals_closed_form(self, n):
        data = list(range(1, n * n + n + 5))
        xi, k = _tt_sample(data, n)
        assembled = lin_obstruction_symbol(n, xi, k)
        direct = lin_obstruction_symbol_direct(n, xi, k)
        closed = mat_scale(
            Fraction((-1) ** (n // 2 + 1), 2 * (n - 2)) * xi_norm_sq(xi) ** (n // 2),
            k,
        )
        assert assembled == direct == closed

    def test_odd_dimension_rejected(self):
        xi, k = _tt_sample([1, 0, 1, 2, -1, 0, 3, 1, 0, 2, 1, -1, 0, 1, 2], 3)
        with pytest.raises((ParityError, DomainError)):
            lin_obstruction_symbol(3, xi, k)


class TestQHessian:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([4, 6]), st.lists(st.integers(-4, 4), min_size=60,
                                             max_size=60))
    def test_identity_random(self, n, data):
        if not any(data[:n]):
            data = [1] + data
        xi, k = _tt_sample(data, n)
        got = q_hessian_symbol(n, xi, k)
        want = q_hessian_expected(n, xi, k)
        assert got == want
        assert got == mat_scale(
            -Fraction(1, 4) * xi_norm_sq(xi) ** (n // 2), k
        )


class TestAhlfors:
    def test_trace_free(self):
        xi = _vec((1, 2, -1, 0))
        vec = _vec((3, 0, 1, -2))
        s = ahlfors_symbol(4, xi, vec)
        assert mat_trace(s) == 0
        assert _symmetric(s)

    def test_adjoint_identity_on_tt(self):
        # <S(xi, X), k> = <X, 2 k xi> for trace-free transverse k
        xi, k = _tt_sample([1, -1, 2, 0, 3, 1, 0, -2, 1, 2, 0, 1, 3, -1, 0,
                            1, 2, 0, -1, 1], 4)
        vec = _vec((2, -1, 0, 3))
        s = ahlfors_symbol(4, xi, vec)
        lhs = frobenius(s, k)
        rhs = sum(
            2 * v * kv for v, kv in zip(vec, mat_apply(k, xi))
        )
        assert lhs == rhs


class TestProjectTT:
    def test_output_is_tt(self):
        xi = _vec((1, 2, 2, 0))
        m = _sym([[5, 1, 0, 2], [1, -3, 1, 0], [0, 1, 2, 1], [2, 0, 1, 1]])
        k = project_tt(xi, m)
        assert mat_trace(k) == 0
        assert all(v == 0 for v in mat_apply(k, xi))

    def test_idempotent(self):
        xi = _vec((1, 0, -1))
        m = _sym([[2, 1, 0], [1, 0, 1], [0, 1, -2]])
        once = project_tt(xi, m)
        assert project_tt(xi, once) == once

    def test_zero_covector(self):
        with pytest.raises(ZeroCovector):
            project_tt(_vec((0, 0, 0)), identity(3))

    @pytest.mark.parametrize("xi_len, m_len", [(3, 2), (2, 3)])
    def test_size_mismatch_is_a_domain_error(self, xi_len, m_len):
        xi = _vec((1, 2, 0)[:xi_len])
        with pytest.raises(DomainError, match="^xi and m must have the same size$"):
            project_tt(xi, identity(m_len))


# ---------------------------------------------------------------------------
# Rational references for the integer route: project_tt and the assembled
# chain as they were computed on Fraction matrices, entry by entry.
# ---------------------------------------------------------------------------


def _ref_mat_mul(a, b):
    size = len(a)
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(size)), Fraction(0))
              for j in range(size))
        for i in range(size)
    )


def _ref_project_tt(xi, m):
    xi_v = as_vector(xi)
    m_m = as_matrix(m)
    _check_symmetric(m_m)
    n = len(xi_v)
    nrm2 = xi_norm_sq(xi_v)
    if nrm2 == 0:
        raise ZeroCovector("xi must be nonzero")
    proj = mat_add(identity(n), mat_scale(-1 / nrm2, outer(xi_v, xi_v)))
    pmp = _ref_mat_mul(proj, _ref_mat_mul(m_m, proj))
    return mat_add(pmp, mat_scale(-mat_trace(pmp) / (n - 1), proj))


def _ref_scalar(n, xi, k):
    xi_v, k_m = _validated(n, xi, k)
    div_div = -sum(
        (xi_v[i] * k_m[i][j] * xi_v[j] for i in range(n) for j in range(n)),
        Fraction(0),
    )
    return div_div - laplacian_symbol(xi_v) * mat_trace(k_m)


def _ref_schouten(n, xi, k):
    xi_v, k_m = _validated(n, xi, k)
    _require_tt(xi_v, k_m)
    return mat_scale(-Fraction(1, 2 * (n - 2)) * laplacian_symbol(xi_v), k_m)


def _ref_obstruction(n, xi, k):
    _check_even(n)
    xi_v, k_m = _validated(n, xi, k)
    _require_tt(xi_v, k_m)
    lap = laplacian_symbol(xi_v)
    inner = mat_add(
        mat_scale(lap, _ref_schouten(n, xi_v, k_m)),
        mat_scale(-Fraction(1, 2 * (n - 1)) * _ref_scalar(n, xi_v, k_m),
                  hessian_symbol(xi_v)),
    )
    return mat_scale(lap ** (n // 2 - 2), inner)


def _ref_q_hessian(n, xi, k):
    _check_even(n)
    return mat_scale(Fraction((-1) ** (n // 2) * (n - 2), 2),
                     _ref_obstruction(n, xi, k))


_CHAIN = [
    (lin_scalar_symbol, _ref_scalar),
    (lin_schouten_symbol, _ref_schouten),
    (lin_obstruction_symbol, _ref_obstruction),
    (q_hessian_symbol, _ref_q_hessian),
]

# Rationals with mixed denominators, ints, and floats (dyadic, so exact).
_entry = st.one_of(
    st.builds(Fraction, st.integers(-36, 36), st.sampled_from([2, 3, 4, 5, 6, 12])),
    st.integers(-6, 6),
    st.integers(-48, 48).map(lambda v: v / 8),
)


@st.composite
def _symbol_inputs(draw):
    n = draw(st.sampled_from([4, 6, 8, 10, 12]))
    xi = draw(st.lists(_entry, min_size=n, max_size=n).filter(any))
    upper = iter(draw(st.lists(_entry, min_size=n * (n + 1) // 2,
                               max_size=n * (n + 1) // 2)))
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(upper)
    return n, xi, m


def _all_fractions(value):
    if isinstance(value, tuple):
        return all(_all_fractions(v) for v in value)
    return type(value) is Fraction


class TestIntegerRoute:
    @settings(max_examples=20, deadline=None)
    @given(_symbol_inputs())
    def test_equals_fraction_reference(self, data):
        n, xi, m = data
        k = project_tt(xi, m)
        assert k == _ref_project_tt(xi, m)
        assert _all_fractions(k)
        got = lin_scalar_symbol(n, xi, m)
        assert got == _ref_scalar(n, xi, m)
        assert type(got) is Fraction
        # The same TT direction as Fractions, as ints, and as floats.
        scale = math.lcm(*(v.denominator for row in k for v in row))
        k_int = [[int(v * scale) for v in row] for row in k]
        variants = [k, k_int]
        if all(abs(v) < 2**52 for row in k_int for v in row):
            variants.append([[v / 2 for v in row] for row in k_int])
        for kk in variants:
            for fn, ref in _CHAIN:
                got = fn(n, xi, kk)
                assert got == ref(n, xi, kk)
                assert _all_fractions(got)
                if fn is not lin_scalar_symbol:
                    assert _symmetric(got)
        # The Fraction routes the chain is checked against, on TT input
        # (lin_ricci_symbol and lin_schouten_from_ricci also off it).
        for fn in (lin_ricci_symbol, lin_schouten_from_ricci,
                   lin_obstruction_symbol_direct, q_hessian_expected):
            assert _symmetric(fn(n, xi, k))
        for fn in (lin_ricci_symbol, lin_schouten_from_ricci):
            assert _symmetric(fn(n, xi, m))

    @pytest.mark.parametrize("fn, args, error, message", [
        (project_tt, ((1, 2, 0), ((1, 2, 0), (0, 1, 0), (0, 0, 1))),
         DomainError, "matrix must be symmetric"),
        *[(fn, (4, (1, 2, 0, 1), ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                                   (0, 0, 0, 1))),
           DomainError, "matrix must be symmetric") for fn, _ in _CHAIN],
        *[(fn, (4, (1, 0, 0, 0), identity(4)),
           PreconditionViolation, "k must be trace free") for fn, _ in _CHAIN[1:]],
        *[(fn, (4, (1, 0, 0, 0), ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 0),
                                   (0, 0, 0, 0))),
           PreconditionViolation, "k must be transverse (k xi = 0)")
          for fn, _ in _CHAIN[1:]],
        (project_tt, ((0, Fraction(0), 0.0), identity(3)),
         ZeroCovector, "xi must be nonzero"),
        *[(fn, (5, (1, 0, 0, 0, 0), identity(5)), ParityError, "n must be even, got 5")
          for fn, _ in _CHAIN[2:]],
    ])
    def test_errors_are_the_references(self, fn, args, error, message):
        ref = dict(_CHAIN + [(project_tt, _ref_project_tt)])[fn]
        for call in (fn, ref):
            with pytest.raises(error) as exc:
                call(*args)
            assert str(exc.value) == message


# ---------------------------------------------------------------------------
# The finite check q_symbol_identity_holds and the three properties its
# argument rests on: linearity in k, O(n)-equivariance and homogeneity of
# degree n in xi, each tested here as an exact identity.
# ---------------------------------------------------------------------------

_Q_ROUTES = [q_hessian_symbol, q_hessian_expected]


def _transpose(m):
    return tuple(zip(*m))


def _inverse(m):
    """Gauss-Jordan inverse in Fraction arithmetic."""
    size = len(m)
    rows = [list(row) + list(e) for row, e in zip(as_matrix(m), identity(size))]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    return tuple(tuple(row[size:]) for row in rows)


def _cayley(upper, n):
    """(I - K)^-1 (I + K) for the skew K with the given upper triangle:
    a rational orthogonal matrix."""
    it = iter(upper)
    skew = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            skew[i][j] = next(it)
            skew[j][i] = -skew[i][j]
    return _ref_mat_mul(_inverse(mat_add(identity(n), mat_scale(-1, skew))),
                        mat_add(identity(n), skew))


def _tt_basis(n):
    """The TT matrices at e_1 by position (i, j), 0 < i <= j < n but not
    (n-1, n-1): E_ij + E_ji off the diagonal, E_ii - E_(n-1)(n-1) on it."""
    basis = {}
    for i in range(1, n - 1):
        for j in range(i, n):
            m = [[0] * n for _ in range(n)]
            m[i][j] = m[j][i] = 1
            if i == j:
                m[-1][-1] = -1
            basis[i, j] = as_matrix(m)
    return basis


_small = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def _symmetric_matrix(draw, n):
    upper = iter(draw(st.lists(_small, min_size=n * (n + 1) // 2,
                               max_size=n * (n + 1) // 2)))
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(upper)
    return m


@st.composite
def _tt_input(draw, n):
    xi = draw(st.lists(_small, min_size=n, max_size=n).filter(any))
    return as_vector(xi), project_tt(xi, draw(_symmetric_matrix(n)))


class TestFiniteIdentityCheck:
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_holds(self, n):
        assert q_symbol_identity_holds(n)

    @pytest.mark.parametrize("n, error", [(5, ParityError), (2, DomainError)])
    def test_dimension_is_checked(self, n, error):
        # n = 2 has an empty basis, which must not pass vacuously.
        with pytest.raises(error):
            q_symbol_identity_holds(n)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_basis_spans_the_tt_matrices_at_e1(self, n):
        # Symmetric, trace free and first row zero: n(n-1)/2 - 1 dimensions.
        # Each matrix is the only one nonzero at its own position, so they
        # are independent.
        basis = _tt_basis(n)
        e1 = as_vector((1,) + (0,) * (n - 1))
        assert len(basis) == n * (n - 1) // 2 - 1
        assert [[b[i][j] for i, j in basis] for b in basis.values()] == [
            list(row) for row in identity(len(basis))]
        for b in basis.values():
            assert _symmetric(b)
            _require_tt(e1, b)

    @pytest.mark.parametrize("n", [4, 6, 8])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_equivariance_under_cayley_rotations(self, n, data):
        q = _cayley(data.draw(st.lists(_small, min_size=n * (n - 1) // 2,
                                       max_size=n * (n - 1) // 2)), n)
        assert _ref_mat_mul(q, _transpose(q)) == identity(n)
        xi, k = data.draw(_tt_input(n))
        q_xi = mat_apply(q, xi)
        q_k = _ref_mat_mul(q, _ref_mat_mul(k, _transpose(q)))
        for route in _Q_ROUTES:
            assert route(n, q_xi, q_k) == _ref_mat_mul(
                q, _ref_mat_mul(route(n, xi, k), _transpose(q)))

    @pytest.mark.parametrize("n", [4, 6, 8])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_linear_in_k(self, n, data):
        xi, k = data.draw(_tt_input(n))
        other = project_tt(xi, data.draw(_symmetric_matrix(n)))
        t = data.draw(_small)
        for route in _Q_ROUTES:
            assert route(n, xi, mat_add(k, mat_scale(t, other))) == mat_add(
                route(n, xi, k), mat_scale(t, route(n, xi, other)))

    @pytest.mark.parametrize("n", [4, 6, 8])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_homogeneous_of_degree_n(self, n, data):
        t = data.draw(_small.filter(bool))
        xi, k = data.draw(_tt_input(n))
        for route in _Q_ROUTES:
            assert route(n, [t * v for v in xi], k) == mat_scale(t**n, route(n, xi, k))

    @pytest.mark.parametrize("i, j", list(_tt_basis(6)))
    def test_a_defect_on_one_basis_direction_fails(self, monkeypatch, i, j):
        # k[i][j] is 1 on the basis matrix (i, j) and 0 on every other one,
        # so this defect shows in one comparison of the 14 at n = 6.
        def defective(n, xi, k):
            shift = Fraction(1, 10**30) * as_matrix(k)[i][j]
            return mat_add(q_hessian_symbol(n, xi, k), mat_scale(shift, identity(n)))

        monkeypatch.setattr(qcurv, "q_hessian_symbol", defective)
        assert not q_symbol_identity_holds(6)

    @pytest.mark.parametrize("defect", ["extra-norm-squared", "schouten-denominator"])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_a_defect_invisible_at_a_unit_covector_fails(self, monkeypatch, defect, n):
        if defect == "extra-norm-squared":
            def defective(n, xi, k):
                return mat_scale(xi_norm_sq(as_vector(xi)), q_hessian_symbol(n, xi, k))
            monkeypatch.setattr(qcurv, "q_hessian_symbol", defective)
        else:
            schouten = qcurv._schouten

            def defective(c):  # drops d^2 from the denominator
                num, den = schouten(c)
                return num, den // c.d**2
            monkeypatch.setattr(qcurv, "_schouten", defective)
        # At xi = e_1 (|xi| = 1, denominator 1) the defect passes on every
        # basis matrix; at the check's 3/2 e_1 it does not.
        e1 = (1,) + (0,) * (n - 1)
        assert all(qcurv.q_hessian_symbol(n, e1, b) == q_hessian_expected(n, e1, b)
                   for b in _tt_basis(n).values())
        assert not q_symbol_identity_holds(n)
