"""Tests for the cut-set bounds, regime classifier, and DoF accounting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrc_dof_lab.bounds import (
    DofAllocation,
    RegimeError,
    bound_row,
    check_percut_bounds,
    classify_regime,
    common_gain,
    common_only_allocation,
    cutset_dof,
    private_only_dof,
    regime_thresholds,
    total_dof,
    zero_allocation,
)


class TestTotalDof:
    def test_zero_allocation(self):
        assert total_dof(zero_allocation(3), 3) == 0

    def test_common_only_k3(self):
        # one common stream per user, each delivered to K-1 = 2 users
        assert total_dof(common_only_allocation(3, 1), 3) == 6

    def test_private_only_k4(self):
        private = tuple(tuple(0 if i == j else 1 for i in range(4)) for j in range(4))
        alloc = DofAllocation(private=private, common=(0, 0, 0, 0))
        assert total_dof(alloc, 4) == 12

    def test_fractional_common(self):
        alloc = common_only_allocation(3, Fraction(3, 2))
        assert total_dof(alloc, 3) == 9


class TestAllocationValidation:
    def test_rejects_nonzero_diagonal(self):
        private = ((1, 0), (0, 0))
        with pytest.raises(ValueError):
            DofAllocation(private=private, common=(0, 0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            common_only_allocation(3, -1)


class TestCutsetDof:
    @pytest.mark.parametrize("k,m,n,expected", [(3, 2, 3, 6), (5, 4, 4, 20), (4, 6, 3, 12)])
    def test_values(self, k, m, n, expected):
        assert cutset_dof(k, m, n) == expected


class TestPercutBounds:
    def test_scheme_allocation_saturates(self):
        # d_jc = N/(K-1) with M > N: each receiver cut equals N
        ok, violations = check_percut_bounds(common_only_allocation(3, 1), 3, 3, 2)
        assert ok and violations == []

    def test_overloaded_receiver_fails(self):
        private = [[0, 0, 0], [2, 0, 0], [2, 0, 0]]
        alloc = DofAllocation(private=tuple(map(tuple, private)), common=(0, 0, 0))
        ok, violations = check_percut_bounds(alloc, 3, 2, 2)
        assert not ok
        assert len(violations) == 1
        assert violations[0].receiver == 1 and violations[0].cut_sum == 4

    def test_zero_allocation_passes(self):
        ok, violations = check_percut_bounds(zero_allocation(4), 4, 3, 3)
        assert ok

    def test_monotone_under_stream_removal(self):
        # dropping a stream can never turn a passing allocation failing
        import random

        rnd = random.Random(4)
        for _ in range(200):
            k = rnd.randint(2, 5)
            private = [[0 if i == j else rnd.randint(0, 3) for i in range(k)] for j in range(k)]
            common = [rnd.randint(0, 2) for _ in range(k)]
            alloc = DofAllocation(tuple(map(tuple, private)), tuple(common))
            m, n = rnd.randint(1, 6), rnd.randint(1, 6)
            ok, _ = check_percut_bounds(alloc, k, m, n)
            if not ok:
                continue
            j = rnd.randrange(k)
            if common[j] > 0:
                common[j] -= 1
            else:
                i = rnd.randrange(k)
                if i != j and private[j][i] > 0:
                    private[j][i] -= 1
            smaller = DofAllocation(tuple(map(tuple, private)), tuple(common))
            assert check_percut_bounds(smaller, k, m, n)[0]


class TestClassifyRegime:
    def test_thresholds_at_k4(self):
        assert regime_thresholds(4) == (
            Fraction(1),
            Fraction(12, 7),
            Fraction(2),
            Fraction(7, 3),
        )

    def test_thresholds_nondecreasing(self):
        for k in range(3, 12):
            t = regime_thresholds(k)
            assert t[0] <= t[1] <= t[2] <= t[3]

    def test_case1(self):
        assert classify_regime(4, 2, 1).case_index == 1

    def test_case4_at_lower_boundary(self):
        # ratio 2 equals K/2 at K = 4, interval is lower inclusive
        assert classify_regime(4, 1, 2).case_index == 4

    def test_case5_when_all_thresholds_coincide(self):
        # at K = 3 every interior threshold is 3/2
        assert classify_regime(3, 2, 3).case_index == 5

    def test_rejects_small_k(self):
        with pytest.raises(RegimeError):
            classify_regime(2, 1, 1)

    def test_partition_is_total(self):
        for k in range(3, 9):
            for m in range(1, 13):
                for n in range(1, 13):
                    assert classify_regime(k, m, n).case_index in (1, 2, 3, 4, 5)


class TestPrivateOnlyDof:
    @pytest.mark.parametrize(
        "k,m,n,expected",
        [
            (4, 3, 2, Fraction(4)),  # case 1: 2N
            (3, 2, 3, Fraction(6)),  # case 5: KM
            (4, 7, 14, Fraction(24)),  # case 4: (12/14) * (2N + 0*M)
        ],
    )
    def test_values(self, k, m, n, expected):
        assert private_only_dof(k, m, n) == expected

    def test_case_formulas_agree_at_boundaries(self):
        # evaluate adjacent case formulas at exact threshold ratios
        for k in range(3, 9):
            t = regime_thresholds(k)
            denom = k * k - k + 2

            def case_value(case, m, n):
                if case in (1, 2):
                    return Fraction(2 * n)
                if case == 3:
                    return Fraction((4 * k * k - 4 * k) * m, denom)
                if case == 4:
                    return Fraction(k * (k - 1) * (2 * n + (4 - k) * m), denom)
                return Fraction(k * m)

            for pair, ratio in [((1, 2), t[0]), ((2, 3), t[1]), ((3, 4), t[2]), ((4, 5), t[3])]:
                m, n = ratio.denominator, ratio.numerator
                lo = case_value(pair[0], m, n)
                hi = case_value(pair[1], m, n)
                assert lo == hi, (k, pair, ratio)


class TestCommonGain:
    @pytest.mark.parametrize(
        "k,m,n,expected",
        [
            (4, 3, 2, Fraction(4)),
            (3, 2, 3, Fraction(0)),
            (6, 2, 2, Fraction(8)),  # (K-2)N at the case 1/2 boundary
        ],
    )
    def test_values(self, k, m, n, expected):
        assert common_gain(k, m, n) == expected

    def test_gain_nonnegative_over_grid(self):
        # common messages never lose DoF relative to private only
        for k in range(3, 9):
            for m in range(1, 13):
                for n in range(1, 13):
                    assert private_only_dof(k, m, n) <= cutset_dof(k, m, n)


class TestBoundRow:
    def test_row_matches_components(self):
        row = bound_row(4, 3, 2)
        assert row.case_index == 1
        assert row.private_only == 4
        assert row.cutset == 8
        assert row.gain == 4


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(k=st.integers(3, 8), m=st.integers(1, 40), n=st.integers(1, 40))
def test_private_only_never_beats_cutset(k, m, n):
    assert private_only_dof(k, m, n) <= cutset_dof(k, m, n)
    assert common_gain(k, m, n) >= 0


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(k=st.integers(3, 8), boundary=st.integers(0, 3), scale=st.integers(1, 6))
def test_case_formulas_meet_at_every_threshold(k, boundary, scale):
    # at N/M = threshold, the case formulas below and above it agree (2N,
    # 4K(K-1)M/(K^2-K+2) or KM), and private_only_dof, which picks one
    # side, returns that common value
    ratio = regime_thresholds(k)[boundary]
    m = scale * ratio.denominator
    n = scale * ratio.numerator
    denom = k * k - k + 2
    formulas = {
        1: Fraction(2 * n),
        2: Fraction(2 * n),
        3: Fraction(4 * k * (k - 1) * m, denom),
        4: Fraction(k * (k - 1) * (2 * n + (4 - k) * m), denom),
        5: Fraction(k * m),
    }
    assert formulas[boundary + 1] == formulas[boundary + 2] == private_only_dof(k, m, n)
