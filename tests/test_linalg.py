"""Unit and property tests for the dense linear-algebra kernels."""

import tracemalloc

import numpy as np
import pytest

from unlearn_lab import linalg
from unlearn_lab.errors import InconsistentSystemError, InvalidMatrixError, SvdFailureError
from unlearn_lab.linalg import (
    TOL_IDEM,
    TOL_SYM,
    gradient_descent_solve,
    min_norm_anchor_solve,
    min_norm_solve,
    projector,
    pseudoinverse,
    svd,
    weighted_seminorm_sq,
)
from unlearn_lab.scenarios import FeatureLayout, gen_scenario
from unlearn_lab.solvers import closed_form_wt_distinct


class TestSvd:
    def test_diagonal_singular_values(self):
        _, s, _ = svd(np.diag([3.0, 2.0]))
        np.testing.assert_allclose(s, [3.0, 2.0])

    def test_zero_matrix(self):
        _, s, _ = svd(np.zeros((2, 2)))
        np.testing.assert_allclose(s, [0.0, 0.0])

    def test_descending_order_and_reconstruction(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 3))
        u, s, v = svd(a)
        assert np.all(np.diff(s) <= 0)
        recon = u @ np.diag(s) @ v.T
        assert np.max(np.abs(recon - a)) < 1e-12

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 4))
        u, _, v = svd(a)
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidMatrixError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_non_convergence_surfaces_as_svd_failure(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", boom)
        with pytest.raises(SvdFailureError):
            svd(np.eye(2))


class TestPseudoinverse:
    def test_diagonal_with_zero(self):
        np.testing.assert_allclose(
            pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-15
        )

    def test_identity(self):
        np.testing.assert_allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-15)

    def test_column_vector(self):
        # (A^T A)^{-1} A^T for the column [1, 1]^T is the row [0.5, 0.5].
        np.testing.assert_allclose(
            pseudoinverse(np.array([[1.0], [1.0]])), [[0.5, 0.5]], atol=1e-15
        )

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(2)
        for rows, cols in [(4, 4), (6, 3), (3, 6), (5, 5)]:
            a = rng.standard_normal((rows, cols))
            if rows == cols == 5:
                a[:, -1] = a[:, 0]  # force rank deficiency
            ap = pseudoinverse(a)
            np.testing.assert_allclose(a @ ap @ a, a, atol=1e-10)
            np.testing.assert_allclose(ap @ a @ ap, ap, atol=1e-10)

    def test_zero_matrix_maps_to_zero(self):
        np.testing.assert_array_equal(pseudoinverse(np.zeros((3, 2))), np.zeros((2, 3)))

    def test_values_at_the_default_cutoff_are_zeroed(self):
        # The pseudoinverse drops a singular value exactly at the default
        # cutoff (strict comparison) and inverts the next float up.
        cutoff = linalg.default_sv_cutoff((2, 2), 1.0)
        above = np.nextafter(cutoff, np.inf)
        np.testing.assert_array_equal(
            pseudoinverse(np.diag([1.0, cutoff])), np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(
            pseudoinverse(np.diag([1.0, above])), np.diag([1.0, 1.0 / above]))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidMatrixError):
            pseudoinverse(np.array([[np.inf]]))


class TestProjector:
    def test_axis_projector(self):
        p = projector(np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-15)
        assert np.linalg.matrix_rank(p) == 1

    def test_full_rank_square_is_identity(self):
        rng = np.random.default_rng(3)
        p = projector(rng.standard_normal((4, 4)))
        np.testing.assert_allclose(p, np.eye(4), atol=1e-12)
        assert np.linalg.matrix_rank(p) == 4

    def test_ones_column(self):
        p = projector(np.array([[1.0], [1.0]]))
        np.testing.assert_allclose(p, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_rank_counts_values_above_cutoff(self):
        assert np.linalg.matrix_rank(projector(np.diag([5.0, 1e-3, 0.0]))) == 2
        # A second singular value exactly at the default cutoff is dropped
        # (strict comparison); the next float up is kept.
        cutoff = linalg.default_sv_cutoff((2, 2), 1.0)
        for value, rank in [(cutoff, 1), (np.nextafter(cutoff, np.inf), 2)]:
            x = np.diag([1.0, value])
            # LAPACK returns a diagonal matrix's values exactly.
            assert svd(x)[1].tolist() == [1.0, value]
            with linalg.RankDeficiencyCount() as counting:
                p = projector(x)
            assert counting.counts == {"solvers": 0, "oracle": 2 - rank}
            assert np.linalg.matrix_rank(p) == rank


class TestProjectorProperties:
    """Symmetry, idempotence, contraction, and complement identities."""

    def _random_projectors(self, count=100, seed=4):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            d = int(rng.integers(2, 12))
            n = int(rng.integers(1, d + 1))
            yield projector(rng.standard_normal((d, n))), rng, d

    def test_symmetric_and_idempotent(self):
        for m, _, _ in self._random_projectors():
            assert np.max(np.abs(m - m.T)) <= TOL_SYM
            assert np.max(np.abs(m @ m - m)) <= TOL_IDEM

    def test_eigenvalues_in_unit_interval(self):
        for p, _, _ in self._random_projectors():
            eigs = np.linalg.eigvalsh(p)
            assert eigs.min() >= -1e-10
            assert eigs.max() <= 1 + 1e-10

    def test_contraction(self):
        for p, rng, d in self._random_projectors():
            for _ in range(5):
                v = rng.standard_normal(d)
                assert np.linalg.norm(p @ v) <= np.linalg.norm(v) + 1e-12

    def test_complement_is_projector_and_annihilates(self):
        for p, _, d in self._random_projectors():
            q = np.eye(d) - p
            assert np.max(np.abs(q - q.T)) <= TOL_SYM
            assert np.max(np.abs(q @ q - q)) <= TOL_IDEM
            assert np.max(np.abs(q @ p)) <= 1e-10

    def test_norm_decomposition(self):
        # ||(I-P)v||^2 = ||v||^2 - ||Pv||^2
        for p, rng, d in self._random_projectors():
            v = rng.standard_normal(d)
            lhs = np.linalg.norm((np.eye(d) - p) @ v) ** 2
            rhs = np.linalg.norm(v) ** 2 - np.linalg.norm(p @ v) ** 2
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_submatrix_identities(self):
        # A column subset satisfies P A = A and P P_A = P_A.
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(3, 12))
            n = int(rng.integers(2, d + 1))
            x = rng.standard_normal((d, n))
            k = int(rng.integers(1, n + 1))
            a = x[:, :k]
            p = projector(x)
            p_a = projector(a)
            assert np.max(np.abs(p @ a - a)) <= 1e-9
            assert np.max(np.abs(p @ p_a - p_a)) <= 1e-9


class TestMinNormSolve:
    def test_single_coordinate_fit(self):
        w = min_norm_solve(np.array([[1.0], [0.0]]), np.array([3.0]))
        np.testing.assert_allclose(w, [3.0, 0.0], atol=1e-14)

    def test_one_equation_two_unknowns(self):
        # minimize ||w|| s.t. w_0 + w_1 = 2, solved by hand: (1, 1).
        w = min_norm_solve(np.array([[1.0], [1.0]]), np.array([2.0]))
        np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-14)

    def test_interpolates_and_lies_in_column_space(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((20, 8))
        y = x.T @ rng.standard_normal(20)
        w = min_norm_solve(x, y)
        assert np.linalg.norm(x.T @ w - y) < 1e-10
        assert np.linalg.norm((np.eye(20) - projector(x)) @ w) < 1e-10

    def test_smallest_norm_among_solutions(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((15, 6))
        y = x.T @ rng.standard_normal(15)
        w = min_norm_solve(x, y)
        q = np.eye(15) - projector(x)
        for _ in range(100):
            alt = w + q @ rng.standard_normal(15)
            assert np.linalg.norm(w) <= np.linalg.norm(alt) + 1e-12

    def test_inconsistent_system_rejected(self):
        x = np.array([[1.0, 1.0], [0.0, 0.0]])  # both equations constrain w_0
        with pytest.raises(InconsistentSystemError):
            min_norm_solve(x, np.array([1.0, 2.0]))

    def test_zero_matrix_cases(self):
        # Zero data with zero targets is trivially consistent; any
        # nonzero target is unreachable.
        np.testing.assert_array_equal(
            min_norm_solve(np.zeros((3, 2)), np.zeros(2)), np.zeros(3)
        )
        with pytest.raises(InconsistentSystemError):
            min_norm_solve(np.zeros((3, 2)), np.array([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidMatrixError):
            min_norm_solve(np.eye(3), np.array([1.0, 2.0]))


class TestMinNormAnchorSolve:
    def test_zero_anchor_reduces_to_min_norm(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 4))
        y = x.T @ rng.standard_normal(10)
        np.testing.assert_allclose(
            min_norm_anchor_solve(x, y, np.zeros(10)),
            min_norm_solve(x, y),
            atol=1e-12,
        )

    def test_consistent_anchor_is_noop(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10, 4))
        w_o = rng.standard_normal(10)
        w = min_norm_anchor_solve(x, x.T @ w_o, w_o)
        assert np.max(np.abs(w - w_o)) < 1e-12

    def test_moves_minimally_from_anchor(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((12, 5))
        y = x.T @ rng.standard_normal(12)
        w_o = rng.standard_normal(12)
        w = min_norm_anchor_solve(x, y, w_o)
        assert np.linalg.norm(x.T @ w - y) < 1e-10
        q = np.eye(12) - projector(x)
        for _ in range(50):
            alt = w + q @ rng.standard_normal(12)
            assert np.linalg.norm(w - w_o) <= np.linalg.norm(alt - w_o) + 1e-12


class TestOneFactorizationPerCall:
    def test_every_anchor_of_a_call_shares_its_one_svd(self, monkeypatch):
        calls = []
        exact = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda a: calls.append(a.shape) or exact(a))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 3))
        y = x.T @ rng.standard_normal(6)
        anchors = np.stack([rng.standard_normal(6), np.zeros(6), x @ rng.standard_normal(3)])
        w = min_norm_anchor_solve(x, y, anchors)
        # A matrix is factored as a one-member stack, once for all anchors.
        assert calls == [(1, 6, 3)]
        assert w.shape == (3, 6)
        for anchor, row in zip(anchors, w):
            assert np.array_equal(row, min_norm_anchor_solve(x, y, anchor))
        assert np.array_equal(w[1], min_norm_solve(x, y))

    def test_x_t_is_validated_inside_the_solve_before_it_is_factored(self, monkeypatch):
        calls = []
        exact = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda a: calls.append(a.shape) or exact(a))
        with pytest.raises(InvalidMatrixError, match="x_t contains non-finite"):
            min_norm_anchor_solve(np.array([[1.0, np.nan]]), np.ones(2), np.ones((3, 1)))
        with pytest.raises(InvalidMatrixError, match="x_t must be 2-D"):
            min_norm_anchor_solve(np.ones(3), np.ones(1), np.ones(3))
        assert calls == []


class TestStackedSolves:
    """A stack ``(S, d, n)`` solves each member with the bits of its own call."""

    @staticmethod
    def _stack(shape, seed=0):
        # Generic members, members with a zero feature row and members with
        # two equal columns (one rank short).  d * n odd leaves every other
        # member off the 16-byte alignment of a fresh array.
        members, d, n = shape
        x = np.random.default_rng(seed).standard_normal(shape)
        x[1::3, 0] = 0.0
        x[2::3, :, 1] = x[2::3, :, 0]
        w = np.random.default_rng(seed + 1).standard_normal((members, d))
        y = np.einsum("sdn,sd->sn", x, w)
        return x, y

    @pytest.mark.parametrize("shape", [(7, 5, 3), (6, 9, 7), (4, 3, 5), (1, 40, 29)])
    def test_each_member_gets_the_bits_of_its_own_solve(self, shape):
        x, y = self._stack(shape)
        anchors = np.random.default_rng(2).standard_normal(shape[:2])
        stacked = min_norm_solve(x, y)
        anchored = min_norm_anchor_solve(x, y, anchors)
        assert stacked.shape == anchored.shape == shape[:2]
        for i in range(shape[0]):
            assert np.array_equal(stacked[i], min_norm_solve(x[i], y[i]))
            assert np.array_equal(anchored[i], min_norm_anchor_solve(x[i], y[i], anchors[i]))
            assert np.array_equal(anchored[i], min_norm_anchor_solve(x[i:i + 1], y[i:i + 1],
                                                                     anchors[i:i + 1])[0])

    def test_members_of_one_rank_share_one_group(self):
        x, _ = self._stack((7, 5, 3))
        groups = linalg._truncated_svd(x, "solvers")
        ranks = [np.linalg.matrix_rank(member) for member in x]
        assert [s.shape[1] for _, _, s, _ in groups] == list(dict.fromkeys(ranks))
        for members, u, s, v in groups:
            assert members == [i for i, rank in enumerate(ranks) if rank == s.shape[1]]
            assert u.shape == (len(members), 5, s.shape[1])
            assert v.shape == (len(members), 3, s.shape[1])
        [(members, _, s, _)] = linalg._truncated_svd(x[:1], "solvers")
        assert members == slice(None) and s.shape == (1, 3)

    def test_svd_of_a_stack_is_each_members_svd(self):
        x, _ = self._stack((6, 9, 7))
        for stacked, alone in zip(zip(*svd(x)), map(svd, x)):
            assert all(np.array_equal(a, b) for a, b in zip(stacked, alone))

    def test_each_member_logs_and_counts_its_own_rank_deficiency(self, caplog):
        x, _ = self._stack((6, 5, 3))
        with caplog.at_level("DEBUG", logger="unlearn_lab.linalg"):
            with linalg.RankDeficiencyCount() as stacked:
                linalg._truncated_svd(x, "solvers")
            lines = [record.getMessage() for record in caplog.records]
            caplog.clear()
            with linalg.RankDeficiencyCount() as alone:
                for member in x:
                    linalg._truncated_svd(member[None], "solvers")
            assert [record.getMessage() for record in caplog.records] == lines
        # Members 2 and 5 have two equal columns.
        assert stacked.counts == alone.counts == {"solvers": 2, "oracle": 0}
        assert all(line.startswith("rank-deficient matrix: shape (5, 3) has rank 2 ")
                   for line in lines)

    def test_held_records_count_once_released(self, caplog):
        x, _ = self._stack((6, 5, 3))
        with caplog.at_level("DEBUG", logger="unlearn_lab.linalg"):
            with linalg.RankDeficiencyCount() as outer:
                with linalg.RankDeficiencyCount(hold=True) as dropped:
                    linalg._truncated_svd(x, "solvers")
                assert outer.counts["solvers"] == 0 and not caplog.records
                with linalg.RankDeficiencyCount(hold=True) as kept:
                    linalg._truncated_svd(x, "solvers")
                kept.release()
        assert outer.counts["solvers"] == 2 and len(caplog.records) == 2
        assert dropped.counts == kept.counts == {"solvers": 0, "oracle": 0}

    def test_an_inconsistent_member_fails_the_stack_with_its_own_residual(self):
        x, y = self._stack((6, 5, 3))
        # Two equal columns cannot fit unequal labels; the first
        # inconsistent member (2) has the smaller residual.
        y[2, 1] += 1.0
        y[5, 1] += 10.0
        with pytest.raises(InconsistentSystemError) as alone:
            min_norm_solve(x[2], y[2])
        with pytest.raises(InconsistentSystemError) as stacked:
            min_norm_solve(x, y)
        assert str(stacked.value) == str(alone.value)

    def test_vectors_must_match_the_stack(self):
        x, y = self._stack((4, 5, 3))
        with pytest.raises(InvalidMatrixError, match=r"^y must have shape \(4, k\) .* \(3, 3\)$"):
            min_norm_solve(x, y[:3])
        with pytest.raises(InvalidMatrixError, match=r"^y must have shape \(4, k\) .* \(3,\)$"):
            min_norm_solve(x, y[0])
        with pytest.raises(InvalidMatrixError, match=r"^w_o must have shape \(\.\.\., 4, k\) "):
            min_norm_anchor_solve(x, y, np.zeros(5))
        with pytest.raises(InvalidMatrixError, match="x_t has 5 features but w_o has 4"):
            min_norm_anchor_solve(x, y, np.zeros((4, 4)))
        with pytest.raises(InvalidMatrixError, match=r"^w_o must have .* got \(2, 3, 5\)$"):
            min_norm_anchor_solve(x, y, np.zeros((2, 3, 5)))


class TestStackedOracleKernels:
    """The projector and the seminorm give each member of a stack the bits
    of its own call, ranks mixed and members off 16-byte alignment."""

    @pytest.mark.parametrize("shape", [(7, 5, 3), (6, 9, 7), (4, 3, 5), (1, 40, 29)])
    def test_each_member_gets_the_bits_of_its_own_call(self, shape):
        x, _ = TestStackedSolves._stack(shape)
        v = np.random.default_rng(3).standard_normal(shape[:2])
        p = projector(x)
        values = weighted_seminorm_sq(v, x)
        assert p.shape == (shape[0], shape[1], shape[1]) and values.shape == shape[:1]
        ranks = [np.linalg.matrix_rank(member) for member in x]
        for i, member in enumerate(x):
            assert np.array_equal(p[i], projector(member))
            assert np.linalg.matrix_rank(p[i]) == ranks[i]
            assert values[i] == weighted_seminorm_sq(v[i], member)
        if shape[0] > 1:
            assert len(set(ranks)) > 1

    def test_a_stack_projector_never_holds_its_output_beside_the_right_factors(self):
        # Holding the output, U, S and V^T at once is the least a projector
        # that allocates its output before the SVD and keeps every factor
        # until it returns needs; keeping only U, and allocating after the
        # SVD, must lower the peak by at least the size of V^T.
        x = np.random.default_rng(5).standard_normal((20, 40, 29))
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        output = np.empty((20, 40, 40))
        all_at_once = output.nbytes + u.nbytes + s.nbytes + vh.nbytes
        del u, s, output
        projector(x)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            p = projector(x)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert p.shape == (20, 40, 40)
        assert {np.linalg.matrix_rank(member) for member in x} == {29}
        assert all_at_once - peak >= vh.nbytes, (peak, all_at_once, vh.nbytes)

    def test_vectors_must_match_the_stack(self):
        x, _ = TestStackedSolves._stack((4, 5, 3))
        with pytest.raises(InvalidMatrixError, match=r"^v must have shape \(4, k\) .* \(3, 5\)$"):
            weighted_seminorm_sq(np.zeros((3, 5)), x)
        with pytest.raises(InvalidMatrixError, match=r"^v must have shape \(4, k\) .* \(5,\)$"):
            weighted_seminorm_sq(np.zeros(5), x)
        with pytest.raises(InvalidMatrixError, match="x has 5 features but v has 4"):
            weighted_seminorm_sq(np.zeros((4, 4)), x)


class TestRankDeficiencySides:
    """A rank-deficient member counts for the side of the kernel that
    factors it, whoever calls that kernel: ``"solvers"`` in the min-norm
    solves, ``"oracle"`` in the projector and the pseudoinverse."""

    @pytest.mark.parametrize("side,call,stacks", [
        ("solvers", lambda x, y: min_norm_solve(x, y), True),
        ("solvers", lambda x, y: min_norm_anchor_solve(x, y, np.ones(x.shape[:-1])), True),
        ("oracle", lambda x, y: projector(x), True),
        ("oracle", lambda x, y: pseudoinverse(x), False),
    ], ids=["min_norm_solve", "min_norm_anchor_solve", "projector", "pseudoinverse"])
    def test_a_stack_and_each_member_count_for_the_kernels_side(self, side, call, stacks):
        # Members 2 and 5 have two equal columns.
        x, y = TestStackedSolves._stack((6, 5, 3))
        expected = {"solvers": 0, "oracle": 0, side: 2}
        if stacks:
            with linalg.RankDeficiencyCount() as stacked:
                call(x, y)
            assert stacked.counts == expected
        with linalg.RankDeficiencyCount() as alone:
            for member, labels in zip(x, y):
                call(member, labels)
        assert alone.counts == expected

    def test_a_projector_outside_the_oracle_counts_for_the_oracle(self):
        # The joint data of a distinct layout spans 30 of its 40 features,
        # and a 25-column prefix 20 of its 25 columns.
        scenario = gen_scenario(30, 10, FeatureLayout(20, 0, 20), seed=3)
        with linalg.RankDeficiencyCount() as counting:
            closed_form_wt_distinct(scenario, 25)
        assert counting.counts == {"solvers": 0, "oracle": 2}

    def test_a_held_record_keeps_its_side(self, caplog):
        x, y = TestStackedSolves._stack((6, 5, 3))
        with caplog.at_level("DEBUG", logger="unlearn_lab.linalg"):
            with linalg.RankDeficiencyCount() as outer:
                with linalg.RankDeficiencyCount(hold=True) as held:
                    projector(x)
                    min_norm_solve(x[:3], y[:3])
                assert outer.counts == {"solvers": 0, "oracle": 0} and not caplog.records
                held.release()
        assert outer.counts == {"solvers": 1, "oracle": 2} and len(caplog.records) == 3
        assert held.counts == {"solvers": 0, "oracle": 0}


class TestSeedAxes:
    """Every vector argument carries its matrix's seed axes: ``(S,)`` for
    a stack ``(S, d, n)``, none for a lone matrix.  Anchors may add axes
    in front of them.  Any other leading axes raise
    :class:`InvalidMatrixError` naming the vector; the member-count cases
    of a stack are in ``test_vectors_must_match_the_stack``."""

    @pytest.mark.parametrize("name,call", [
        ("y", lambda x, y, v: min_norm_solve(x[0], y)),
        ("y", lambda x, y, v: min_norm_solve(x, y[None])),
        ("w_o", lambda x, y, v: min_norm_anchor_solve(x, y, np.zeros((3, 2, 5)))),
        ("y_t", lambda x, y, v: min_norm_anchor_solve(x, y[:2], v)),
        ("y_t", lambda x, y, v: min_norm_anchor_solve(x[0], y, v)),
        ("v", lambda x, y, v: weighted_seminorm_sq(v, x[0])),
        ("v", lambda x, y, v: weighted_seminorm_sq(v[None], x)),
    ])
    def test_mismatched_leading_axes_name_the_vector(self, name, call):
        x, y = TestStackedSolves._stack((3, 5, 4))
        with pytest.raises(InvalidMatrixError, match=f"^{name} must have shape "):
            call(x, y, np.zeros((3, 5)))

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 5, 4)])
    def test_a_matrix_is_2_d_or_3_d(self, shape):
        for call in (svd, projector, lambda x: min_norm_solve(x, np.zeros(4))):
            with pytest.raises(InvalidMatrixError,
                               match=r"^(x|matrix) must be 2-D, or 3-D for a stack, got shape "):
                call(np.zeros(shape))
        with pytest.raises(InvalidMatrixError, match="^matrix must be 2-D, got shape"):
            pseudoinverse(np.zeros((3, 5, 4)))


class TestWeightedSeminorm:
    def test_zero_vector(self):
        assert weighted_seminorm_sq(np.zeros(3), np.eye(3)) == 0.0

    def test_identity_weighting(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(5)
        expected = float(v @ v) / 5
        assert abs(weighted_seminorm_sq(v, np.eye(5)) - expected) < 1e-14

    def test_null_space_vector_measures_zero(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 3))
        v = (np.eye(8) - projector(x)) @ rng.standard_normal(8)
        assert weighted_seminorm_sq(v, x) < 1e-20

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = rng.standard_normal((6, 4))
            v = rng.standard_normal(6)
            assert weighted_seminorm_sq(v, x) >= 0.0

    def test_zero_samples_rejected(self):
        # The sample count is the column count of x; InvalidMatrixError is
        # the package error that a seed's rerun catches.
        for x, v in ((np.zeros((2, 0)), np.zeros(2)), (np.zeros((3, 2, 0)), np.zeros((3, 2)))):
            with pytest.raises(InvalidMatrixError, match="^x has no samples$"):
                weighted_seminorm_sq(v, x)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidMatrixError):
            weighted_seminorm_sq(np.zeros(3), np.eye(2))

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_finite_inputs_whose_value_overflows_raise_invalid_matrix_error(self, stacked):
        # Raised, not warned and returned as inf.
        v, x = np.full(3, 1e200), np.ones((3, 4))
        if stacked:
            v, x = np.stack([np.ones(3), v]), np.stack([x, x])
            assert weighted_seminorm_sq(v[0], x[0]) == 9.0
        with pytest.raises(InvalidMatrixError, match="^the seminorm of v on x overflows$"):
            weighted_seminorm_sq(v, x)


class TestBlockStructure:
    """Projector additivity for block-disjoint data matrices."""

    def _block_pair(self, seed):
        rng = np.random.default_rng(seed)
        x_r = np.zeros((10, 4))
        x_r[:5] = rng.standard_normal((5, 4))
        x_f = np.zeros((10, 3))
        x_f[5:] = rng.standard_normal((5, 3))
        return x_r, x_f

    def test_projector_additivity(self):
        x_r, x_f = self._block_pair(14)
        p = projector(np.hstack([x_r, x_f]))
        p_r = projector(x_r)
        p_f = projector(x_f)
        assert np.max(np.abs(p - (p_r + p_f))) <= 1e-9

    def test_cross_projections_vanish(self):
        x_r, x_f = self._block_pair(15)
        p_f = projector(x_f)
        p_r = projector(x_r)
        assert np.max(np.abs(x_r.T @ p_f)) <= 1e-12
        assert np.max(np.abs(x_f.T @ p_r)) <= 1e-12


class TestGradientDescentOracle:
    def test_converges_to_min_norm_from_zero(self):
        # Descent from zero stays in the column space, so its limit is the
        # minimum-norm interpolant.
        rng = np.random.default_rng(16)
        x = rng.standard_normal((20, 10))
        y = x.T @ rng.standard_normal(20)
        w_gd = gradient_descent_solve(x, y, iters=100_000)
        w_mn = min_norm_solve(x, y)
        assert np.max(np.abs(w_gd - w_mn)) < 1e-6

    def test_converges_to_anchored_solution(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((16, 6))
        y = x.T @ rng.standard_normal(16)
        w_o = rng.standard_normal(16)
        w_gd = gradient_descent_solve(x, y, w0=w_o, iters=50_000, stop_tol=1e-14)
        w_an = min_norm_anchor_solve(x, y, w_o)
        assert np.max(np.abs(w_gd - w_an)) < 1e-6
