"""Tests for the complex-matrix kernels."""

import numpy as np
import pytest

from mrc_dof_lab.linalg import (
    cmatrix,
    numeric_rank,
    orthonormal_columns,
    pseudo_inverse,
    pseudo_inverse_and_rank,
    random_gaussian_matrix,
    random_gaussian_stack,
    random_gaussian_vector,
    subspace_distance,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestRandomGaussian:
    def test_same_seed_same_matrix(self):
        a = random_gaussian_matrix(2, 3, rng(123))
        b = random_gaussian_matrix(2, 3, rng(123))
        assert np.array_equal(a, b)

    def test_square_draw_is_full_rank(self):
        a = random_gaussian_matrix(5, 5, rng(7))
        assert numeric_rank(a, 1e-10) == 5

    def test_unit_power_entries(self):
        # law of large numbers over 1e5 draws: E|a_ij|^2 = 1
        a = random_gaussian_matrix(1, 10**5, rng(42))
        assert abs(np.mean(np.abs(a) ** 2) - 1.0) < 0.02

    def test_bit_reproducible(self):
        a = random_gaussian_matrix(4, 4, rng(2024)).tobytes()
        b = random_gaussian_matrix(4, 4, rng(2024)).tobytes()
        assert a == b

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            random_gaussian_matrix(0, 3, rng())

    def test_stack_equals_draws_one_after_another(self):
        # one standard_normal call per generator gives the bits of drawing
        # each array's real and imaginary part in turn, and row s of a
        # stack comes from generator s alone
        got = random_gaussian_stack(3, (2, 4), [rng(5), rng(6)])
        assert got.shape == (2, 3, 2, 4)
        for s, seed in enumerate((5, 6)):
            g = rng(seed)
            for i in range(3):
                re = g.standard_normal((2, 4))
                im = g.standard_normal((2, 4))
                assert np.array_equal(got[s, i], (re + 1j * im) / np.sqrt(2.0))
        vectors = random_gaussian_stack(2, (3,), rng(7))
        g = rng(7)
        assert np.array_equal(vectors, [random_gaussian_vector(3, g) for _ in range(2)])


class TestCmatrix:
    def test_accepts_nested_rows(self):
        a = cmatrix([[1, 2], [3, 4]])
        assert a.shape == (2, 2) and a.dtype == np.complex128

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            cmatrix([[np.inf, 0.0]])

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            cmatrix([1.0, 2.0])

    def test_result_is_readonly(self):
        a = cmatrix([[1.0]])
        with pytest.raises(ValueError):
            a[0, 0] = 2.0


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-12)

    def test_right_inverse_for_wide_matrix(self):
        a = random_gaussian_matrix(3, 5, rng(1))
        assert np.allclose(a @ pseudo_inverse(a), np.eye(3), atol=1e-10)

    def test_closed_form_1x2(self):
        # A^H (A A^H)^{-1} for A = [[2, 0]] gives [[0.5], [0]]
        a = cmatrix([[2.0, 0.0]])
        oracle = a.conj().T @ np.linalg.inv(a @ a.conj().T)
        assert np.allclose(oracle, [[0.5], [0.0]], atol=1e-15)
        assert np.allclose(pseudo_inverse(a), [[0.5], [0.0]], atol=1e-12)

    def test_penrose_identities_random_shapes(self):
        # A A+ A = A and A+ A A+ = A+ across aspect ratios up to 32
        shapes = [(1, 1), (2, 5), (5, 2), (8, 8), (32, 7), (7, 32), (32, 32)]
        for i, (r, c) in enumerate(shapes):
            a = random_gaussian_matrix(r, c, rng(100 + i))
            p = pseudo_inverse(a)
            assert np.linalg.norm(a @ p @ a - a) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(p @ a @ p - p) <= 1e-10 * np.linalg.norm(p)

    def test_rank_deficient_input(self):
        a = cmatrix([[1.0, 1.0], [1.0, 1.0]])
        p = pseudo_inverse(a)
        assert np.allclose(a @ p @ a, a, atol=1e-10)


class TestPseudoInverseAndRank:
    def test_stack_matches_one_at_a_time(self):
        g = rng(31)
        for r, c in [(3, 3), (5, 2), (2, 5)]:
            stack = np.stack([random_gaussian_matrix(r, c, g) for _ in range(4)])
            pinv, rank = pseudo_inverse_and_rank(stack)
            assert pinv.shape == (4, c, r) and rank.shape == (4,)
            for a, p, k in zip(stack, pinv, rank):
                assert np.allclose(p, pseudo_inverse(a), atol=1e-12)
                assert k == numeric_rank(a) == min(r, c)

    def test_rank_decided_per_matrix(self):
        # a rank-one member does not change its full-rank neighbours
        full = random_gaussian_matrix(3, 3, rng(32))
        col = random_gaussian_matrix(3, 1, rng(33))
        low = col @ col.conj().T
        pinv, rank = pseudo_inverse_and_rank(np.stack([full, low, np.zeros((3, 3))]))
        assert rank.tolist() == [3, 1, 0]
        assert np.allclose(pinv[0] @ full, np.eye(3), atol=1e-10)
        assert np.allclose(low @ pinv[1] @ low, low, atol=1e-10)
        assert np.array_equal(pinv[2], np.zeros((3, 3)))

    def test_single_matrix(self):
        a = random_gaussian_matrix(4, 4, rng(34))
        pinv, rank = pseudo_inverse_and_rank(a)
        assert int(rank) == 4
        assert np.allclose(pinv, np.linalg.inv(a), atol=1e-10)
        assert not pinv.flags.writeable


class TestNumericRank:
    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((3, 4), dtype=complex), 1e-10) == 0

    def test_identity(self):
        assert numeric_rank(np.eye(5), 1e-10) == 5

    def test_generic_wide(self):
        assert numeric_rank(random_gaussian_matrix(4, 7, rng(9)), 1e-10) == 4

    def test_stack_matches_one_at_a_time(self):
        g = rng(10)
        full = random_gaussian_matrix(4, 3, g)
        low = random_gaussian_matrix(4, 1, g) @ random_gaussian_matrix(1, 3, g)
        stack = np.stack([full, low, np.zeros((4, 3), dtype=complex), full[:, :2] @ full[:2]])
        ranks = numeric_rank(stack, 1e-10)
        assert ranks.shape == (4,)
        assert ranks.tolist() == [numeric_rank(a, 1e-10) for a in stack] == [3, 1, 0, 2]


class TestSubspaceDistance:
    def test_span_invariance(self):
        a = random_gaussian_matrix(6, 3, rng(11))
        c = random_gaussian_matrix(3, 3, rng(12))  # invertible almost surely
        assert subspace_distance(a, a @ c) <= 1e-12

    def test_orthogonal_spans(self):
        e1 = cmatrix([[1.0], [0.0]])
        e2 = cmatrix([[0.0], [1.0]])
        assert subspace_distance(e1, e2) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            subspace_distance(np.eye(3), np.eye(4))

    def test_symmetry_and_triangle(self):
        g = rng(31)
        for _ in range(50):
            a = random_gaussian_matrix(6, 2, g)
            b = random_gaussian_matrix(6, 2, g)
            c = random_gaussian_matrix(6, 2, g)
            dab = subspace_distance(a, b)
            dba = subspace_distance(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab <= subspace_distance(a, c) + subspace_distance(c, b) + 1e-9
            assert 0.0 <= dab <= 1.0 + 1e-12


class TestOrthonormalColumns:
    def test_orthonormal_and_same_span(self):
        a = random_gaussian_matrix(5, 3, rng(21))
        q = orthonormal_columns(a)
        assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
        assert subspace_distance(a, q) <= 1e-12

    def test_stack_matches_one_at_a_time(self):
        g = rng(22)
        stack = np.stack([random_gaussian_matrix(6, 2, g) for _ in range(4)])
        q = orthonormal_columns(stack)
        assert q.shape == (4, 6, 2)
        for qi, a in zip(q, stack):
            assert np.allclose(qi, orthonormal_columns(a), rtol=0, atol=1e-14)
