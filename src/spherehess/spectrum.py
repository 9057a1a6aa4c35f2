"""Eigenvalue bookkeeping for the universal second-variation operator.

Every conformal functional on the round n-sphere has, at its critical point,
a second variation acting as a scalar on each tensor mode ``(2+j, q)``.  The
scalars obey a two-term recursion in the Casimir-type quantity ``kappa``:
stepping from mode ``beta`` to an adjacent mode ``gamma``,

    mu_gamma * (d - n) = mu_beta * (d + n),      d = kappa(gamma) - kappa(beta)

(after clearing the half-integer shift ``nu = n/2``).  Propagating this
relation over the whole mode lattice pins the full table up to one overall
scale (two scales on the 3-sphere, whose mode lattice carries a sign), and
the closed form is a product of two rising factorials.  This module builds
the table both ways and classifies the resulting quadratic form.  The
recursion is solved along the lattice: one sweep each way along the j = 0
row of q-modes, then one exact product per step up each j-column.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd

from ._record import dataclass
from .errors import DomainError, InconsistentSystem
from .exact import rising
from .ktypes import KType, q_range

__all__ = [
    "kappa",
    "kappa_inner_product",
    "SpectrumTable",
    "spectrum_generate",
    "spectrum_generate3",
    "t0_eigenvalue",
    "closed_form_table",
    "recursion_table",
    "recursion_matches_closed_form",
    "opposite_signs_at_q_pm2",
    "HessianKind",
    "Classification",
    "classify_hessian",
]


def kappa(t: KType) -> int:
    """Casimir-type number of the mode: (n+j+1)(j+2) + q(n+q-3)."""
    n, j, q = t.dim_n, t.j, t.q
    return (n + j + 1) * (j + 2) + q * (n + q - 3)


def kappa_inner_product(t: KType) -> int:
    """Independent evaluation of kappa as <beta + 2 rho, beta>.

    ``beta = (2+j, q, 0, ...)`` is the highest weight of SO(n+1) and
    ``2 rho = (n-1, n-3, ...)`` twice the half-sum of its positive roots.
    Must agree with :func:`kappa` for every valid mode.
    """
    n = t.dim_n
    beta = t.weight.entries
    two_rho = tuple(n - 1 - 2 * i for i in range(len(beta)))
    return sum(b * (b + r) for b, r in zip(beta, two_rho))


@dataclass
class SpectrumTable:
    """Eigenvalue table of the universal second variation on a mode lattice."""

    dim_n: int
    entries: dict[KType, Fraction]

    def value(self, j: int, q: int) -> Fraction:
        key = KType(dim_n=self.dim_n, j=j, q=q)
        if key not in self.entries:
            raise DomainError(f"mode (j={j}, q={q}) is outside the tabulated lattice")
        return self.entries[key]


def _lowest_terms(a: int, b: int) -> tuple[int, int]:
    """a / b (b != 0) as (numerator, denominator) in lowest terms, denominator > 0."""
    g = gcd(a, b) if b > 0 else -gcd(a, b)
    return a // g, b // g


def _solve_lattice(n: int, j_max: int, seeds: dict[int, Fraction]) -> SpectrumTable:
    """Solve mu_gamma (d - n) = mu_beta (d + n) on the lattice j <= j_max.

    Every edge joins ``beta`` to ``gamma`` one unit step up in j or q, with
    ``d = kappa(gamma) - kappa(beta)``; since 2 nu = n both factors are
    integers.  ``seeds`` maps q to the value at (j=0, q).  The lattice is
    the j = 0 row of q-edges plus one j-column per q, and d depends on the
    step only (n + 2q - 2 along q, n + 2j + 4 along j), so every row has the
    j = 0 row's degenerate edges.  A q-edge with one zero factor forces a
    zero at the endpoint whose factor is nonzero; the seeds and those zeros
    go on the j = 0 row, and one pass up and one pass down along its
    nondegenerate q-edges fill every mode they reach.  No j-edge is
    degenerate: its factors 2j + 4 and 2n + 2j + 4 are positive, so each
    column is its j = 0 value times one exact product per step, and a
    forced zero stays zero up its column.  Every edge relation is then
    re-checked exactly.

    Values are carried as pairs of ints (numerator, denominator) in lowest
    terms with a positive denominator, and the re-check is the
    cross-multiplied relation num_gamma lo den_beta == num_beta hi den_gamma,
    the same relation in Q because both denominators are positive.  Only the
    returned entries are ``Fraction``s.

    Raises:
        InconsistentSystem: a j = 0 mode, and with it its column, is reached
            from no seed or forced zero ("unreached modes"), or a value
            breaks an edge relation ("edge relation violated").
    """
    if j_max < 0:
        raise DomainError("j_max must be >= 0")
    qs = q_range(n)
    seeded = {q: (v.numerator, v.denominator) for q, v in seeds.items()}
    row = [seeded.get(q) for q in qs]
    # q-edge i joins q = qs[i] to qs[i + 1] and has d = n + 2q - 2.
    factors = [(2 * q - 2, 2 * n + 2 * q - 2) for q in qs[:-1]]
    for i, (lo, hi) in enumerate(factors):
        if lo == 0 and row[i] is None:
            row[i] = (0, 1)
        elif hi == 0 and row[i + 1] is None:
            row[i + 1] = (0, 1)
    for i, (lo, hi) in enumerate(factors):
        if lo and hi and row[i] is not None and row[i + 1] is None:
            row[i + 1] = _lowest_terms(row[i][0] * hi, row[i][1] * lo)
    for i, (lo, hi) in reversed(list(enumerate(factors))):
        if lo and hi and row[i + 1] is not None and row[i] is None:
            row[i] = _lowest_terms(row[i + 1][0] * lo, row[i + 1][1] * hi)
    missing = [KType(dim_n=n, j=0, q=q) for q, v in zip(qs, row) if v is None]
    if missing:
        raise InconsistentSystem(f"unreached modes: {missing} with their j-columns")

    values = {}
    for q, (num, den) in zip(qs, row):
        values[0, q] = num, den
        # the j-edge up from j has d = n + 2j + 4: mu_{j+1} = mu_j (n+j+2)/(j+2)
        for j in range(j_max):
            num, den = _lowest_terms(num * (n + j + 2), den * (j + 2))
            values[j + 1, q] = num, den
    nodes = {(j, q): KType(dim_n=n, j=j, q=q) for j in range(j_max + 1) for q in qs}
    for (j, q), beta in nodes.items():
        num_b, den_b = values[j, q]
        for key in ((j + 1, q), (j, q + 1)):
            if key in nodes:
                d = kappa(nodes[key]) - kappa(beta)
                num_g, den_g = values[key]
                if num_g * (d - n) * den_b != num_b * (d + n) * den_g:
                    raise InconsistentSystem(
                        f"edge relation violated between (j={j}, q={q}) "
                        f"and (j={key[0]}, q={key[1]})"
                    )
    return SpectrumTable(
        dim_n=n, entries={t: Fraction(*values[key]) for key, t in nodes.items()}
    )


def spectrum_generate(n: int, j_max: int, base_value: Fraction) -> SpectrumTable:
    """Solve the recursion on the mode lattice of an n-sphere, n >= 4.

    ``base_value`` seeds the mode (j=0, q=2); zeros at q in {0, 1} are forced
    by the degenerate edges, and after propagation every edge relation is
    re-checked exactly.
    """
    if n < 4:
        raise DomainError("use spectrum_generate3 for the 3-sphere")
    return _solve_lattice(n, j_max, {2: base_value})


def spectrum_generate3(
    j_max: int,
    base_value_plus: Fraction,
    base_value_minus: Fraction,
) -> SpectrumTable:
    """Solve the recursion on the five-branch mode lattice of the 3-sphere.

    The lattice q in {-2,...,2} decouples into a q=2 branch, a q=-2 branch,
    and a forced-zero middle band q in {-1, 0, 1}, so two independent scales
    remain; they seed (0, 2) and (0, -2).
    """
    return _solve_lattice(3, j_max, {2: base_value_plus, -2: base_value_minus})


def t0_eigenvalue(t: KType) -> Fraction:
    """Closed-form eigenvalue rising(j+2, n) * rising(q-1, n), exact.

    The second factor crosses zero precisely for q in {0, 1}; on the
    3-sphere it is negative at q = -2 and positive at q = 2.
    """
    n = t.dim_n
    return rising(t.j + 2, n) * rising(t.q - 1, n)


def closed_form_table(n: int, j_max: int) -> SpectrumTable:
    """The closed-form eigenvalue table over the full mode lattice."""
    entries = {
        t: t0_eigenvalue(t)
        for j in range(j_max + 1)
        for q in q_range(n)
        for t in (KType(dim_n=n, j=j, q=q),)
    }
    return SpectrumTable(dim_n=n, entries=entries)


def recursion_table(n: int, j_max: int) -> SpectrumTable:
    """The recursion table seeded with the closed form at (0, 2), and on the
    3-sphere also at (0, -2)."""
    if n == 3:
        return spectrum_generate3(j_max, t0_eigenvalue(KType(dim_n=3, j=0, q=2)),
                                  t0_eigenvalue(KType(dim_n=3, j=0, q=-2)))
    return spectrum_generate(n, j_max, t0_eigenvalue(KType(dim_n=n, j=0, q=2)))


def recursion_matches_closed_form(n: int, j_max: int) -> bool:
    """Exact pointwise equality of the recursion table with the closed form."""
    return recursion_table(n, j_max).entries == closed_form_table(n, j_max).entries


def opposite_signs_at_q_pm2(table: SpectrumTable) -> bool:
    """True when a 3-sphere table's values at q = 2 and -2 differ in sign at every j."""
    return all(v * table.value(t.j, -2) < 0 for t, v in table.entries.items() if t.q == 2)


class HessianKind(enum.Enum):
    POSITIVE_SEMIDEFINITE = "POSITIVE_SEMIDEFINITE"
    NEGATIVE_SEMIDEFINITE = "NEGATIVE_SEMIDEFINITE"
    INDEFINITE = "INDEFINITE"
    ZERO = "ZERO"


_KERNEL_NOTE = (
    "modes with q in {0, 1} (the gauge directions, i.e. the image of the "
    "conformal Killing operator) plus the conformal directions"
)
_KERNEL_NOTE_3 = (
    "modes with q in {-1, 0, 1} (the gauge directions, i.e. the image of "
    "the conformal Killing operator) plus the conformal directions"
)


@dataclass(frozen=True)
class Classification:
    kind: HessianKind
    kernel_description: str


def classify_hessian(
    n: int,
    c: Fraction | int | tuple[Fraction | int, Fraction | int],
) -> Classification:
    """Definiteness of c * (eigenvalue table) as a quadratic form.

    For n >= 4 a single scale ``c`` decides everything by its sign.  On the
    3-sphere a pair ``(c_plus, c_minus)`` scales the two branches; the form
    is semidefinite exactly when the two products with the branch signs
    (+ at q=2, - at q=-2) agree.
    """
    if n < 3:
        raise DomainError(f"n must be >= 3, got {n}")
    if n == 3:
        if not isinstance(c, tuple):
            raise DomainError("the 3-sphere needs a pair (c_plus, c_minus)")
        c_plus, c_minus = (Fraction(x) for x in c)
        # Nonzero eigenvalues have the sign of the branch: +1 at q=2 and
        # -1 at q=-2, so the form's values have signs (c_plus, -c_minus).
        signs = {x for x in (c_plus, -c_minus) if x != 0}
        kernel = _KERNEL_NOTE_3
        if not signs:
            return Classification(HessianKind.ZERO, "every mode")
        if any(x > 0 for x in signs) and any(x < 0 for x in signs):
            return Classification(HessianKind.INDEFINITE, kernel)
        if all(x > 0 for x in signs):
            return Classification(HessianKind.POSITIVE_SEMIDEFINITE, kernel)
        return Classification(HessianKind.NEGATIVE_SEMIDEFINITE, kernel)
    if isinstance(c, tuple):
        raise DomainError("a single scale decides the form for n >= 4")
    scale = Fraction(c)
    if scale == 0:
        return Classification(HessianKind.ZERO, "every mode")
    if scale > 0:
        return Classification(HessianKind.POSITIVE_SEMIDEFINITE, _KERNEL_NOTE)
    return Classification(HessianKind.NEGATIVE_SEMIDEFINITE, _KERNEL_NOTE)
