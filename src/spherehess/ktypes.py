"""Highest-weight bookkeeping for the rotation groups acting on a round sphere.

Irreducible representations of SO(N) are labeled by weakly decreasing integer
tuples of length floor(N/2); when N is even the last entry may be negative.
Restriction from SO(n+1) to SO(n) is multiplicity free and governed by an
interlacing condition between the two weight vectors.  The tensor modes that
matter for second variations on the n-sphere sit in two-parameter families of
such weights, which this module enumerates both directly and by brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError, RankMismatch, UnsupportedSigma

__all__ = [
    "DominantWeight",
    "KType",
    "is_dominant",
    "branches",
    "bundle_weights",
    "bundle_ktypes_bruteforce",
    "dominant_weights_upto",
]


@dataclass(frozen=True)
class DominantWeight:
    """A dominant integral weight of SO(group_rank).

    ``entries`` has length floor(group_rank / 2).  For odd ``group_rank`` all
    entries are nonnegative; for even ``group_rank`` the final entry may be
    negative (the two spin orientations), bounded by the preceding entry.
    """

    entries: tuple[int, ...]
    group_rank: int

    def __post_init__(self) -> None:
        if self.group_rank < 2:
            raise DomainError(f"group rank must be >= 2, got {self.group_rank}")
        if len(self.entries) != self.group_rank // 2:
            raise DomainError(
                f"weight for SO({self.group_rank}) needs {self.group_rank // 2} "
                f"entries, got {len(self.entries)}"
            )
        if any(not isinstance(e, int) for e in self.entries):
            raise DomainError("weight entries must be integers")


def _weight(entries: tuple[int, ...], group_rank: int) -> DominantWeight:
    return DominantWeight(entries=tuple(entries), group_rank=group_rank)


def pad_weight(head: tuple[int, ...], group_rank: int) -> DominantWeight:
    """Extend ``head`` with zeros to a full weight vector for SO(group_rank)."""
    rank = group_rank // 2
    if len(head) > rank:
        raise DomainError(f"{head} has more than {rank} entries")
    return _weight(tuple(head) + (0,) * (rank - len(head)), group_rank)


def is_dominant(w: DominantWeight) -> bool:
    """True iff ``w`` satisfies the dominance (weak decrease + parity) rules."""
    e = w.entries
    if w.group_rank % 2 == 1:
        return all(e[i] >= e[i + 1] for i in range(len(e) - 1)) and (
            not e or e[-1] >= 0
        )
    # Even group rank: all comparisons except the last use the plain entry;
    # the final entry participates through its absolute value.
    if len(e) == 1:
        return True
    if any(e[i] < e[i + 1] for i in range(len(e) - 2)):
        return False
    return e[-2] >= abs(e[-1])


def branches(beta: DominantWeight, sigma: DominantWeight) -> bool:
    """True iff ``sigma`` occurs in the restriction of ``beta`` one rank down.

    ``beta`` is a weight of SO(N), ``sigma`` of SO(N-1); the branching is
    multiplicity free and holds iff the two weight vectors interlace.
    """
    if beta.group_rank != sigma.group_rank + 1:
        raise RankMismatch(
            f"restriction needs adjacent group ranks, got SO({beta.group_rank}) "
            f"and SO({sigma.group_rank})"
        )
    if not (is_dominant(beta) and is_dominant(sigma)):
        return False
    return _interlaces(beta.entries, sigma.entries, beta.group_rank % 2 == 1)


def _interlaces(b: tuple[int, ...], s: tuple[int, ...], odd: bool) -> bool:
    """The branching rule on dominant entry tuples of SO(N) and SO(N-1).

    ``odd`` says whether N is odd.
    """
    m = len(b)
    if odd:
        # SO(2m+1) -> SO(2m), both rank m: b1 >= s1 >= b2 >= ... >= bm >= |sm|
        for i in range(m - 1):
            if not (b[i] >= s[i] >= b[i + 1]):
                return False
        return b[m - 1] >= abs(s[m - 1])
    # SO(2m) -> SO(2m-1), ranks m and m-1:
    # b1 >= s1 >= b2 >= s2 >= ... >= s_{m-1} >= |bm|
    for i in range(m - 1):
        if not b[i] >= s[i]:
            return False
        if i + 1 < m - 1 and not s[i] >= b[i + 1]:
            return False
    if m >= 2 and not s[m - 2] >= abs(b[m - 1]):
        return False
    return True


def q_range(n: int) -> tuple[int, ...]:
    """The second weight entries q of the tensor modes (2+j, q) on S^n.

    (0, 1, 2) for n >= 4; on the 3-sphere SO(4) has rank two and the mirror
    values -2, -1 occur as well.  Tables list them in this ascending order.
    """
    return (-2, -1, 0, 1, 2) if n == 3 else (0, 1, 2)


@dataclass(frozen=True)
class KType:
    """A two-parameter tensor mode (2+j, q) of SO(n+1) acting on the n-sphere.

    ``j >= 0`` indexes the polynomial degree direction; ``q`` the second
    weight entry.  For ``dim_n >= 4`` only ``q`` in {0, 1, 2} occurs; for
    ``dim_n == 3`` the group SO(4) has rank two and the mirror values
    ``q`` in {-2, -1} appear as well.
    """

    dim_n: int
    j: int
    q: int

    def __post_init__(self) -> None:
        if self.dim_n < 3:
            raise DomainError(f"dim_n must be >= 3, got {self.dim_n}")
        if self.j < 0:
            raise DomainError(f"j must be >= 0, got {self.j}")
        valid_q = q_range(self.dim_n)
        if self.q not in valid_q:
            raise DomainError(
                f"q={self.q} invalid for dim_n={self.dim_n} "
                f"(allowed: {list(valid_q)})"
            )

    @property
    def weight(self) -> DominantWeight:
        """The highest weight (2+j, q, 0, ...) of SO(dim_n + 1)."""
        return pad_weight((2 + self.j, self.q), self.dim_n + 1)


def bundle_weights(
    sigma: DominantWeight, n: int, first_max: int
) -> set[tuple[int, int]]:
    """Leading two weight entries (a, b) of all SO(n+1)-types over ``sigma``.

    For sigma = (s, 0, ...) interlacing gives a >= s >= b, and b >= 0 for
    n >= 4; on the 3-sphere SO(4) has rank two and b runs over -s..s.  So the
    family is {(a, b) : s <= a <= first_max, b in range(-s if n == 3 else 0,
    s + 1)}: for s = 2 the tensor modes (2+j, q) with q in :func:`q_range`.
    """
    if n < 3:
        raise DomainError(f"n must be >= 3, got {n}")
    (s,) = _sigma_head(sigma, n)
    return {
        (a, b)
        for a in range(s, first_max + 1)
        for b in range(-s if n == 3 else 0, s + 1)
    }


def _sigma_head(sigma: DominantWeight, n: int) -> tuple[int, ...]:
    """Validate that sigma is an SO(n) weight of shape (s, 0, ...) and return (s,)."""
    if sigma.group_rank != n:
        raise RankMismatch(
            f"sigma must be a weight of SO({n}), got SO({sigma.group_rank})"
        )
    if not is_dominant(sigma):
        raise UnsupportedSigma(f"sigma {sigma.entries} is not dominant")
    if any(e != 0 for e in sigma.entries[1:]):
        raise UnsupportedSigma(
            f"sigma {sigma.entries} has support beyond the first entry"
        )
    return sigma.entries[:1]


def dominant_weights_upto(group_rank: int, bound: int) -> Iterator[DominantWeight]:
    """All dominant weights of SO(group_rank) with every |entry| <= bound."""
    for entries in _dominant_entries(group_rank, bound):
        yield _weight(entries, group_rank)


def _dominant_entries(group_rank: int, bound: int) -> Iterator[tuple[int, ...]]:
    """The entry tuples of :func:`dominant_weights_upto`, in the same order."""
    rank = group_rank // 2
    even = group_rank % 2 == 0

    def rec(prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == rank:
            yield tuple(prefix)
            return
        cap = prefix[-1] if prefix else bound
        is_last = len(prefix) == rank - 1
        lo = -cap if (even and is_last) else 0
        for value in range(lo, cap + 1):
            prefix.append(value)
            yield from rec(prefix)
            prefix.pop()

    return rec([])


def bundle_ktypes_bruteforce(
    sigma: DominantWeight, n: int, first_max: int
) -> set[tuple[int, int]]:
    """Leading two entries of every bounded SO(n+1)-weight branching to ``sigma``.

    Exhaustive search over all dominant weights with entries bounded by
    ``first_max``; the result must coincide with :func:`bundle_weights` and
    in particular every branching weight is supported on its first two slots.
    The search runs on entry tuples, which are dominant by construction, as
    ``sigma`` is once validated.
    """
    _sigma_head(sigma, n)
    s, odd = sigma.entries, (n + 1) % 2 == 1
    found: set[tuple[int, int]] = set()
    for b in _dominant_entries(n + 1, first_max):
        if _interlaces(b, s, odd):
            if any(e != 0 for e in b[2:]):
                raise DomainError(
                    f"branching weight {b} has unexpected support "
                    "beyond the first two entries"
                )
            found.add((b[0], b[1] if len(b) > 1 else 0))
    return found
