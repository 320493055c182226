"""Tests for the complex-matrix kernels."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrc_dof_lab import channel
from mrc_dof_lab.linalg import (
    BOUND_MARGIN,
    RANK_TOL,
    pseudo_inverse_and_bound,
    pseudo_inverse_and_rank,
    subspace_distance,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def gaussian_stack(count, shape, g):
    """``count`` CN(0, 1) arrays of the given shape, drawn on from
    generator g by the channel draw's one fill."""
    out = np.empty((count, *shape), dtype=complex)
    channel._fill([(g, ((count, shape),), [out])])
    return out


def gaussian(shape, g):
    """One CN(0, 1) array of the given shape from generator g."""
    return gaussian_stack(1, shape, g)[0]


def pinv(a):
    """The pseudoinverse alone, of one matrix or a stack."""
    return pseudo_inverse_and_rank(a)[0]


class TestRandomGaussian:
    """The CN(0, 1) draw of ``channel._fill`` from one generator."""

    def test_same_seed_same_matrix(self):
        a = gaussian_stack(1, (2, 3), rng(123))
        b = gaussian_stack(1, (2, 3), rng(123))
        assert np.array_equal(a, b)

    def test_square_draw_is_full_rank(self):
        a = gaussian_stack(1, (5, 5), rng(7))[0]
        assert pseudo_inverse_and_rank(a)[1] == 5

    def test_unit_power_entries(self):
        # law of large numbers over 1e5 draws: E|a_ij|^2 = 1
        a = gaussian_stack(1, (1, 10**5), rng(42))
        assert abs(np.mean(np.abs(a) ** 2) - 1.0) < 0.02

    def test_bit_reproducible(self):
        a = gaussian_stack(1, (4, 4), rng(2024)).tobytes()
        b = gaussian_stack(1, (4, 4), rng(2024)).tobytes()
        assert a == b

    def test_bad_dimensions(self):
        with pytest.raises(ValueError, match="positive"):
            gaussian_stack(1, (0, 3), rng())
        with pytest.raises(ValueError, match="positive"):
            gaussian_stack(0, (2, 3), rng())

    def test_stack_equals_draws_one_after_another(self):
        # one standard_normal call per trial gives the bits of drawing each
        # array's real and imaginary part in turn, and row s of a reader's
        # stack comes from trial s's generator alone
        cfg = channel.NetworkConfig(K=2, M=2, N=2, seed=11)
        got = np.empty((2, 3, 2, 4), dtype=complex)
        channel._fill([(cfg.trial_streams([5, 6]), ((3, (2, 4)),), [got])])
        for s, trial in enumerate((5, 6)):
            g = cfg.trial_rng(trial)
            for i in range(3):
                re = g.standard_normal((2, 4))
                im = g.standard_normal((2, 4))
                assert np.array_equal(got[s, i], (re + 1j * im) / np.sqrt(2.0))
        vectors = gaussian_stack(2, (3,), rng(7))
        g = rng(7)
        assert np.array_equal(vectors, [gaussian((3,), g) for _ in range(2)])

    def test_parts_equal_draws_one_after_another(self):
        # one fill of several parts gives each part the bits of drawing the
        # parts one after another, from a generator or a reader's trials
        parts = ((2, (3,)), (1, (2, 2)), (3, (1,)))
        cfg = channel.NetworkConfig(K=2, M=2, N=2, seed=8)
        for source, again, lead in ((lambda: rng(8), lambda: [rng(8)], ()),
                                    (lambda: cfg.trial_streams([8, 9]),
                                     lambda: [cfg.trial_rng(8), cfg.trial_rng(9)], (2,))):
            drawn = [np.empty(lead + (count, *shape), dtype=complex) for count, shape in parts]
            channel._fill([(source(), parts, drawn)])
            gens = again()
            for got, (count, shape) in zip(drawn, parts):
                want = np.array([gaussian_stack(count, shape, g) for g in gens])
                want = want.reshape(got.shape)
                assert got.tobytes() == want.tobytes()


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-12)

    def test_right_inverse_for_wide_matrix(self):
        a = gaussian((3, 5), rng(1))
        assert np.allclose(a @ pinv(a), np.eye(3), atol=1e-10)

    def test_closed_form_1x2(self):
        # A^H (A A^H)^{-1} for A = [[2, 0]] gives [[0.5], [0]]
        a = np.array([[2.0, 0.0]], dtype=complex)
        oracle = a.conj().T @ np.linalg.inv(a @ a.conj().T)
        assert np.allclose(oracle, [[0.5], [0.0]], atol=1e-15)
        assert np.allclose(pinv(a), [[0.5], [0.0]], atol=1e-12)

    def test_penrose_identities_random_shapes(self):
        # A A+ A = A and A+ A A+ = A+ across aspect ratios up to 32
        shapes = [(1, 1), (2, 5), (5, 2), (8, 8), (32, 7), (7, 32), (32, 32)]
        for i, (r, c) in enumerate(shapes):
            a = gaussian((r, c), rng(100 + i))
            p = pinv(a)
            assert np.linalg.norm(a @ p @ a - a) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(p @ a @ p - p) <= 1e-10 * np.linalg.norm(p)

    def test_rank_deficient_input(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        p = pinv(a)
        assert np.allclose(a @ p @ a, a, atol=1e-10)


class TestPseudoInverseAndRank:
    def test_stack_matches_one_at_a_time(self):
        g = rng(31)
        for r, c in [(3, 3), (5, 2), (2, 5)]:
            stack = np.stack([gaussian((r, c), g) for _ in range(4)])
            pinv, rank, cond = pseudo_inverse_and_rank(stack)
            assert pinv.shape == (4, c, r) and rank.shape == cond.shape == (4,)
            for a, p, k, kappa in zip(stack, pinv, rank, cond):
                assert np.allclose(p, pseudo_inverse_and_rank(a)[0], atol=1e-12)
                assert k == pseudo_inverse_and_rank(a)[1] == min(r, c)
                assert abs(kappa - np.linalg.cond(a)) <= 1e-10 * kappa

    def test_rank_decided_per_matrix(self):
        # a rank-one member does not change its full-rank neighbours
        full = gaussian((3, 3), rng(32))
        col = gaussian((3, 1), rng(33))
        low = col @ col.conj().T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pinv, rank, cond = pseudo_inverse_and_rank(np.stack([full, low, np.zeros((3, 3))]))
        assert rank.tolist() == [3, 1, 0]
        # rank-deficient and zero matrices are infinitely ill conditioned
        assert cond[0] == pytest.approx(np.linalg.cond(full), rel=1e-10)
        assert cond[1] == cond[2] == np.inf
        assert np.allclose(pinv[0] @ full, np.eye(3), atol=1e-10)
        assert np.allclose(low @ pinv[1] @ low, low, atol=1e-10)
        assert np.array_equal(pinv[2], np.zeros((3, 3)))

    def test_single_matrix(self):
        a = gaussian((4, 4), rng(34))
        pinv, rank, cond = pseudo_inverse_and_rank(a)
        assert int(rank) == 4 and rank.shape == cond.shape == ()
        assert cond == pytest.approx(np.linalg.cond(a), rel=1e-10)
        assert np.allclose(pinv, np.linalg.inv(a), atol=1e-10)
        assert not pinv.flags.writeable


EPS = np.finfo(float).eps
# Rounding allowances, in units of kappa_2 eps, for the kernel against the
# SVD. Measured over 80,000 matrices up to 16 x 16 with kappa_2 up to 1e10
# (a third of them Gaussian, the rest with geometric singular values): the
# computed kappa_F was within 4.5 kappa_2 eps of the exact value, relative,
# and the pseudoinverse within 21 kappa_2 eps of the SVD's, relative in
# the Frobenius norm.
BOUND_ROUNDING = 16
PINV_ROUNDING = 64


def with_condition(rows, cols, kappa, g):
    """A CN(0, 1) draw whose singular values are made geometric from 1
    down to 1 / kappa."""
    u, _, vh = np.linalg.svd(gaussian((rows, cols), g), full_matrices=False)
    r = min(rows, cols)
    return (u * np.geomspace(1.0, 1.0 / kappa, r)) @ vh if r > 1 else u @ vh


class TestPseudoInverseAndBound:
    @pytest.mark.parametrize("kind", ["square", "tall", "wide"])
    @settings(derandomize=True, deadline=None, max_examples=25, database=None)
    @given(
        k=st.integers(2, 5),
        dims=st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True),
        log_kappa=st.floats(0.0, 9.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_brackets_condition_number(self, kind, k, dims, log_kappa, seed):
        # kappa_2 <= kappa_F <= rank kappa_2, and the pseudoinverse is the
        # SVD's up to kappa-scaled rounding, for every matrix of the stack
        lo, hi = sorted(dims)
        rows, cols = {"square": (dims[0], dims[0]), "tall": (hi, lo), "wide": (lo, hi)}[kind]
        g = rng(seed)
        kappas = 10.0 ** (log_kappa * g.random(k))
        stack = np.stack([with_condition(rows, cols, kappa, g) for kappa in kappas])
        p, rank, bound = pseudo_inverse_and_bound(stack)
        exact, exact_rank, cond = pseudo_inverse_and_rank(stack)
        r = min(rows, cols)
        assert (rank == exact_rank).all() and (rank == r).all()
        slack = BOUND_ROUNDING * cond * EPS
        assert (cond * (1 - slack) <= bound).all()
        assert (bound <= r * cond * (1 + slack)).all()
        err = np.linalg.norm(p - exact, axis=(-2, -1))
        assert (err <= PINV_ROUNDING * cond * EPS * np.linalg.norm(exact, axis=(-2, -1))).all()

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (6, 6), (4, 2), (2, 4), (6, 3)])
    def test_rank_decisions_equal_the_svd(self, shape):
        # condition numbers on both sides of the rank tolerance's 1e10 and
        # across the band the bound leaves to the SVD: the same rank as
        # pseudo_inverse_and_rank, and certified only where it is full
        g = rng(40)
        near = 1e10 * (1 + np.linspace(-1e-3, 1e-3, 9))
        kappas = np.concatenate([np.geomspace(1e8, 1e11, 61), near])
        stack = np.stack([with_condition(*shape, kappa, g) for kappa in kappas])
        _, rank, bound = pseudo_inverse_and_bound(stack)
        _, exact_rank, cond = pseudo_inverse_and_rank(stack)
        assert np.array_equal(rank, exact_rank)
        assert (exact_rank < min(shape)).any() and (exact_rank == min(shape)).any()
        certified = bound <= 1 / (BOUND_MARGIN * RANK_TOL)
        assert certified.any() and (exact_rank[certified] == min(shape)).all()

    def test_route_is_chosen_per_matrix(self, lapack_calls):
        # one matrix past the certificate takes an SVD alone; the others
        # keep the bits they have in a stack without it
        g = rng(41)
        stack = np.stack([gaussian((4, 4), g) for _ in range(3)])
        ill = stack.copy()
        ill[1] = with_condition(4, 4, 5e9, g)
        del lapack_calls[:]
        p, rank, bound = pseudo_inverse_and_bound(ill)
        assert lapack_calls == [("inv", (3, 4, 4)), ("svd", (1, 4, 4))]
        exact, exact_rank, cond = pseudo_inverse_and_rank(ill[1])
        assert np.array_equal(p[1], exact) and rank[1] == exact_rank == 4
        assert bound[1] == cond
        clean = pseudo_inverse_and_bound(stack)
        for t in (0, 2):
            assert np.array_equal(p[t], clean[0][t]) and bound[t] == clean[2][t]
            assert np.array_equal(p[t], pseudo_inverse_and_bound(stack[t])[0])

    @pytest.mark.parametrize("shape", [(3, 3), (5, 2), (2, 5)])
    def test_exactly_singular_matrices(self, shape):
        # a zero matrix and a repeated column or row: no LinAlgError and no
        # warning, and the SVD's rank
        g = rng(42)
        full = gaussian(shape, g)
        repeated = full.copy()
        if shape[0] >= shape[1]:
            repeated[:, 1] = repeated[:, 0]
        else:
            repeated[1] = repeated[0]
        stack = np.stack([full, repeated, np.zeros(shape, dtype=complex)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, rank, _ = pseudo_inverse_and_bound(stack)
        exact, exact_rank, _ = pseudo_inverse_and_rank(stack)
        assert rank.tolist() == exact_rank.tolist() == [min(shape), min(shape) - 1, 0]
        assert np.array_equal(p[1:], exact[1:])

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (2, 4)])
    def test_bound_is_the_product_of_frobenius_norms(self, shape):
        # bit for bit np.linalg.norm's Frobenius norms, on every route
        stack = gaussian_stack(6, shape, rng(44))
        p, _, bound = pseudo_inverse_and_bound(stack)
        oracle = np.linalg.norm(stack, axis=(-2, -1)) * np.linalg.norm(p, axis=(-2, -1))
        assert bound.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("shape", [(4, 1), (4, 3), (6, 4), (1, 4), (3, 5)])
    def test_qr_route_equals_full_back_substitution(self, shape):
        # the last row of R^-1 Q^H skips its empty product: bit for bit the
        # loop that subtracts it
        def oracle(a):
            q, r = np.linalg.qr(a)
            b = q.conj().swapaxes(-1, -2)
            x = np.empty(b.shape, dtype=b.dtype)
            for i in range(r.shape[-1] - 1, -1, -1):
                rest = r[..., i : i + 1, i + 1 :] @ x[..., i + 1 :, :]
                x[..., i, :] = (b[..., i, :] - rest[..., 0, :]) / r[..., i, i, np.newaxis]
            return x

        stack = gaussian_stack(5, shape, rng(45))
        p = pseudo_inverse_and_bound(stack)[0]
        if shape[0] > shape[1]:
            want = oracle(stack)
        else:
            want = oracle(stack.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)
        assert p.tobytes() == want.tobytes()

    def test_single_matrix(self):
        a = gaussian((4, 3), rng(43))
        p, rank, bound = pseudo_inverse_and_bound(a)
        assert p.shape == (3, 4) and rank.shape == bound.shape == ()
        assert int(rank) == 3 and not p.flags.writeable
        assert np.allclose(p @ a, np.eye(3), atol=1e-12)


class TestSubspaceDistance:
    def test_span_invariance(self):
        a = gaussian((6, 3), rng(11))
        c = gaussian((3, 3), rng(12))  # invertible almost surely
        assert subspace_distance(a, a @ c) <= 1e-12

    def test_orthogonal_spans(self):
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        e2 = np.array([[0.0], [1.0]], dtype=complex)
        assert subspace_distance(e1, e2) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            subspace_distance(np.eye(3), np.eye(4))

    def test_symmetry_and_triangle(self):
        g = rng(31)
        for _ in range(50):
            a = gaussian((6, 2), g)
            b = gaussian((6, 2), g)
            c = gaussian((6, 2), g)
            dab = subspace_distance(a, b)
            dba = subspace_distance(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab <= subspace_distance(a, c) + subspace_distance(c, b) + 1e-9
            assert 0.0 <= dab <= 1.0 + 1e-12
