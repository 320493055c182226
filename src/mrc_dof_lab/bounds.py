"""Cut-set degrees-of-freedom bounds and the five-regime comparison table.

The cut around any single intended receiver limits the streams it can be
served per channel use to min(N, M); summing the K receiver cuts gives the
network total K * min(N, M). The regime table compares that value (reached
with common messages) against the best known total with private messages
only, as a function of the antenna ratio N/M.

All bound values are exact rationals (``fractions.Fraction``) so regime
boundaries never suffer float ties; convert to float for display only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import NamedTuple

Number = int | Fraction


class RegimeError(ValueError):
    """The five-regime table is defined for K >= 3 only."""


@dataclass(frozen=True)
class DofAllocation:
    """Stream counts: private[j][i] from user j to user i, common[j] from
    user j to all others.

    Entries are nonnegative rationals; fractional values appear when a
    per-block allocation is expressed per time slot under symbol extension.
    """

    private: tuple[tuple[Number, ...], ...]
    common: tuple[Number, ...]

    def __post_init__(self) -> None:
        k = len(self.common)
        if len(self.private) != k or any(len(row) != k for row in self.private):
            raise ValueError("private must be K x K with K matching common")
        for j, row in enumerate(self.private):
            if row[j] != 0:
                raise ValueError("no private streams from a user to itself")
            if any(x < 0 for x in row):
                raise ValueError("stream counts must be nonnegative")
        if any(x < 0 for x in self.common):
            raise ValueError("stream counts must be nonnegative")

    @property
    def K(self) -> int:
        return len(self.common)


def common_only_allocation(K: int, per_user: Number) -> DofAllocation:
    """Every user sends ``per_user`` common streams and nothing private."""
    return DofAllocation(private=tuple((0,) * K for _ in range(K)), common=(per_user,) * K)


class CutViolation(NamedTuple):
    receiver: int  # 1-based user index
    cut_sum: Number
    limit: int


def total_dof(alloc: DofAllocation, K: int) -> Number:
    """Network total: private streams count once, common streams K-1 times
    (one delivery per receiving user)."""
    if alloc.K != K:
        raise ValueError("allocation size does not match K")
    private = sum(sum(row) for row in alloc.private)
    common = sum(alloc.common)
    total = private + (K - 1) * common
    return int(total) if Fraction(total).denominator == 1 else Fraction(total)


def cutset_dof(K: int, M: int, N: int) -> int:
    """Cut-set ceiling on the total DoF: K * min(N, M)."""
    if K < 2 or M < 1 or N < 1:
        raise ValueError("need K >= 2 and positive antenna counts")
    return K * min(N, M)


def check_percut_bounds(
    alloc: DofAllocation, K: int, M: int, N: int
) -> tuple[bool, list[CutViolation]]:
    """Check every receiver cut: sum over senders j != i of (d_ji + d_jc)
    must not exceed min(N, M).

    Returns (all_pass, violations); each violation names the receiver and
    its cut sum.
    """
    if alloc.K != K:
        raise ValueError("allocation size does not match K")
    limit = min(N, M)
    violations = []
    for i in range(K):
        cut = sum(alloc.private[j][i] + alloc.common[j] for j in range(K) if j != i)
        if cut > limit:
            violations.append(CutViolation(receiver=i + 1, cut_sum=cut, limit=limit))
    return (not violations, violations)


@cache
def regime_thresholds(K: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four boundary ratios of N/M at this K, in nondecreasing order:
    1, (2K^2-2K)/(K^2-K+2), K/2, (K^2-3K+3)/(K-1).

    Cached per K, since every regime lookup reads them: the tuple and its
    Fractions are immutable. K < 3 raises on every call."""
    if K < 3:
        raise RegimeError("regime table needs K >= 3")
    return (
        Fraction(1),
        Fraction(2 * K * K - 2 * K, K * K - K + 2),
        Fraction(K, 2),
        Fraction(K * K - 3 * K + 3, K - 1),
    )


def classify_regime(K: int, M: int, N: int) -> int:
    """The case number, 1 to 5, of the regime N/M falls in; the boundary
    ratios at each K are ``regime_thresholds(K)``.

    Intervals are lower-inclusive: N <= M is case 1, then case c covers
    ratios up to (but excluding) its upper threshold, and case 5 is
    everything at or above the last threshold. At K = 3 all interior
    thresholds coincide at 3/2, which collapses cases 3 and 4 to empty
    intervals.
    """
    thresholds = regime_thresholds(K)
    if M < 1 or N < 1:
        raise ValueError("antenna counts must be positive")
    ratio = Fraction(N, M)
    if ratio <= thresholds[0]:
        return 1
    if ratio < thresholds[1]:
        return 2
    if ratio < thresholds[2]:
        return 3
    if ratio < thresholds[3]:
        return 4
    return 5


def private_only_dof(K: int, M: int, N: int) -> Fraction:
    """Best known total DoF with private messages only, by regime.

    Case 4 evaluates K(K-1)/(K^2-K+2) * (2N + (4-K)M); with that reading
    the five case formulas agree at every shared boundary.
    """
    case = classify_regime(K, M, N)
    denom = K * K - K + 2
    if case in (1, 2):
        return Fraction(2 * N)
    if case == 3:
        return Fraction((4 * K * K - 4 * K) * M, denom)
    if case == 4:
        return Fraction(K * (K - 1) * (2 * N + (4 - K) * M), denom)
    return Fraction(K * M)


class BoundRow(NamedTuple):
    K: int
    M: int
    N: int
    case_index: int
    private_only: Fraction
    cutset: int
    gain: Fraction  # cutset - private_only: what common messages add, never negative


def bound_row(K: int, M: int, N: int) -> BoundRow:
    """One regime-table row; the shared code path for CLI and analysis."""
    private = private_only_dof(K, M, N)
    cut = cutset_dof(K, M, N)
    return BoundRow(K, M, N, classify_regime(K, M, N), private, cut, Fraction(cut) - private)


__all__ = [
    "Number",
    "RegimeError",
    "DofAllocation",
    "common_only_allocation",
    "CutViolation",
    "total_dof",
    "cutset_dof",
    "check_percut_bounds",
    "regime_thresholds",
    "classify_regime",
    "private_only_dof",
    "BoundRow",
    "bound_row",
]
