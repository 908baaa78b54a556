import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from meanbounds import harness, operators as ops
from meanbounds import scalar as sc


def spd(entries):
    return ops.SpdMatrix(np.asarray(entries, dtype=float))


def random_pair(rng, dim):
    return harness.random_spd(rng, dim), harness.random_spd(rng, dim)


def matrix_function(a, g) -> np.ndarray:
    """U diag(g(lambda)) U^T for the symmetric eigendecomposition of one matrix ``a``,
    symmetrized; ``g`` receives the eigenvalue array."""
    m = a.entries if isinstance(a, ops.SpdMatrix) else np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    lam, u = np.linalg.eigh(m)
    vals = np.asarray(g(lam), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("matrix function undefined on part of the spectrum")
    return ops._sym((u * vals) @ u.T)


def pair_report(rep, k):
    """Pair ``k`` of a stacked operator chain report, as a one-pair report."""
    verdicts = tuple(ops.SpectralVerdict(*(x[k].item() for x in dataclasses.astuple(vd)))
                     for vd in rep.verdicts)
    return dataclasses.replace(rep, verdicts=verdicts, passed=rep.passed[k].item(),
                               factor=rep.factor[k], congruence=rep.congruence[k],
                               weights=rep.weights[k])


class TestSpdMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            spd([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            spd([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            ops.SpdMatrix(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            spd([[1.0, 0.0], [0.0, math.nan]])

    def test_entries_immutable(self):
        m = spd([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_json_round_trip(self):
        m = spd([[2.0, 1.0], [1.0, 2.0]])
        again = ops.SpdMatrix.from_dict(m.to_dict())
        assert np.array_equal(again.entries, m.entries)

    def test_from_dict_shape_mismatch(self):
        with pytest.raises(ValueError):
            ops.SpdMatrix.from_dict({"dim": 3, "rows": [[1.0, 0.0], [0.0, 1.0]]})

    def test_stack_checks_each_matrix_on_its_own_scale(self):
        good = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert ops.SpdMatrix([1e6 * good, np.eye(2)]).dim == 2
        for bad in ([[1.0, 0.5], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]],
                    [[1.0, 0.0], [0.0, math.inf]]):
            with pytest.raises(ValueError):
                ops.SpdMatrix([1e6 * good, bad])
        with pytest.raises(ValueError):
            matrix_function(ops.SpdMatrix([good, good]), np.sqrt)

    def test_repr(self):
        assert repr(spd(np.eye(3))) == "SpdMatrix(dim=3)"

    def test_from_dict_missing_keys(self):
        with pytest.raises(ValueError):
            ops.SpdMatrix.from_dict({"rows": [[1.0]]})


class TestMatrixFunction:
    def test_identity_power(self):
        m = spd(np.eye(3))
        out = matrix_function(m, lambda lam: lam**0.37)
        assert np.allclose(out, np.eye(3), atol=1e-14)

    def test_diagonal_sqrt(self):
        out = matrix_function(spd([[1.0, 0.0], [0.0, 4.0]]), np.sqrt)
        assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-14)

    def test_log_of_two_by_two(self):
        # eigenpairs (1, (1,-1)/sqrt2) and (3, (1,1)/sqrt2)
        out = matrix_function(spd([[2.0, 1.0], [1.0, 2.0]]), np.log)
        half_log3 = math.log(3.0) / 2.0
        assert np.allclose(out, [[half_log3, half_log3], [half_log3, half_log3]], atol=1e-14)

    def test_undefined_on_spectrum(self):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            matrix_function(spd([[1.0, 0.0], [0.0, 4.0]]), lambda lam: np.log(lam - 2.0))

    def test_output_bitwise_symmetric(self):
        rng = np.random.default_rng(1)
        a, _ = random_pair(rng, 5)
        out = matrix_function(a, np.exp)
        assert np.array_equal(out, out.T)


class TestWeightedMeans:
    def test_idempotence(self):
        rng = np.random.default_rng(2)
        a, _ = random_pair(rng, 3)
        for fn in (ops.weighted_arithmetic, ops.weighted_geometric, ops.weighted_logarithmic):
            out = fn(a, a, 0.37)
            assert np.allclose(out.entries, a.entries, rtol=1e-12, atol=1e-13)

    def test_weight_endpoints(self):
        rng = np.random.default_rng(3)
        a, b = random_pair(rng, 3)
        for fn in (ops.weighted_arithmetic, ops.weighted_geometric, ops.weighted_logarithmic):
            assert np.allclose(fn(a, b, 0.0).entries, a.entries, atol=1e-13)
            assert np.allclose(fn(a, b, 1.0).entries, b.entries, atol=1e-13)

    def test_a_lift_that_is_not_spd_is_a_breakdown(self):
        a, b = spd(np.eye(2)), spd(np.diag([2.0, 3.0]))
        with pytest.raises(ops.NumericalBreakdown, match="computed mean failed SPD validation"):
            ops._lift(a, b, 0.5, lambda lam, v: -lam)

    def test_geometric_commuting_diagonal(self):
        out = ops.weighted_geometric(spd(np.diag([1.0, 4.0])), spd(np.diag([9.0, 1.0])), 0.5)
        assert np.allclose(out.entries, np.diag([3.0, 2.0]), atol=1e-13)

    def test_geometric_against_scipy(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = random_pair(rng, 3)
            v = rng.uniform(0.05, 0.95)
            root = scipy.linalg.sqrtm(a.entries)
            inv_root = np.linalg.inv(root)
            inner = scipy.linalg.fractional_matrix_power(inv_root @ b.entries @ inv_root, v)
            expected = np.real(root @ inner @ root)
            got = ops.weighted_geometric(a, b, v).entries
            assert np.allclose(got, expected, rtol=1e-9, atol=1e-11)

    def test_geometric_against_extended_precision(self):
        # same congruence formula, recomputed with 40-digit arithmetic
        import mpmath

        def mp_power(m, p):
            eigvals, q = mpmath.mp.eigsy(m)
            diag = mpmath.diag([mpmath.power(eigvals[i], p) for i in range(m.rows)])
            return q * diag * q.T

        rng = np.random.default_rng(44)
        a, b = random_pair(rng, 3)
        v = 1.0 / 3.0
        with mpmath.workdps(40):
            mat_a = mpmath.matrix(a.entries.tolist())
            mat_b = mpmath.matrix(b.entries.tolist())
            root = mp_power(mat_a, mpmath.mpf(1) / 2)
            inv_root = mp_power(mat_a, -mpmath.mpf(1) / 2)
            inner = inv_root * mat_b * inv_root
            expected_mp = root * mp_power((inner + inner.T) / 2, v) * root
            expected = np.array(expected_mp.tolist(), dtype=float)
        got = ops.weighted_geometric(a, b, v).entries
        # the double-precision route carries O(eps * cond) error itself
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-11)

    def test_logarithmic_diagonal(self):
        out = ops.weighted_logarithmic(spd(np.diag([1.0, 4.0])), spd(np.diag([9.0, 1.0])), 0.5)
        assert np.allclose(
            out.entries, np.diag([8.0 / math.log(9.0), 3.0 / math.log(4.0)]), atol=1e-12
        )

    def test_logarithmic_commuting_polynomial_pair(self):
        rng = np.random.default_rng(5)
        a, _ = random_pair(rng, 4)
        lam, u = np.linalg.eigh(a.entries)
        b = ops.SpdMatrix((u * (lam**2 + lam)) @ u.T)
        v = 0.3
        got = ops.weighted_logarithmic(a, b, v).entries
        means = np.array(
            [sc.weighted_logarithmic(x, x * x + x, v) for x in lam]
        )
        expected = (u * means) @ u.T
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-11)

    def test_arithmetic_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ops.weighted_arithmetic(spd(np.eye(2)), spd(np.eye(3)), 0.5)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(6)
        a, b = random_pair(rng, 4)
        for c in (1e-3, 0.37, 250.0):
            big = ops.weighted_logarithmic(
                ops.SpdMatrix(c * a.entries), ops.SpdMatrix(c * b.entries), 0.3
            )
            ref = ops.weighted_logarithmic(a, b, 0.3)
            scale = np.max(np.abs(c * ref.entries))
            assert np.max(np.abs(big.entries - c * ref.entries)) <= 1e-11 * scale


class TestLoewner:
    def test_equal_matrices(self):
        verdict = ops.loewner_leq(np.eye(3), np.eye(3))
        assert verdict.holds
        assert verdict.min_eig_of_difference == 0.0

    def test_zero_vs_identity(self):
        assert ops.loewner_leq(np.zeros((2, 2)), np.eye(2)).holds

    def test_hand_failure(self):
        verdict = ops.loewner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
        assert not verdict.holds
        assert verdict.min_eig_of_difference == pytest.approx(-1.0)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            ops.loewner_leq(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            ops.loewner_leq(np.stack([np.eye(2)] * 3), np.stack([np.eye(2)] * 2))

    def test_stack_equals_pair_calls(self):
        rng = np.random.default_rng(13)
        xs, ys = (np.stack([harness.random_spd(rng, 4).entries for _ in range(9)]) for _ in "xy")
        for tol in (1e-10, -1e-3):
            stacked = ops.loewner_leq(xs, ys, tol)
            pairs = [ops.loewner_leq(x, y, tol) for x, y in zip(xs, ys)]
            assert {type(f) for vd in pairs for f in dataclasses.astuple(vd)} == {float, bool}
            for name in ("min_eig_of_difference", "tol_used", "holds"):
                assert getattr(stacked, name).tolist() == [getattr(vd, name) for vd in pairs]


class TestOperatorChain:
    def test_equal_inputs_collapse(self):
        rng = np.random.default_rng(8)
        a, _ = random_pair(rng, 4)
        rep = ops.operator_chain(a, a, 0.4)
        assert rep.passed
        for term in rep.terms:
            assert np.allclose(term, a.entries, rtol=1e-12, atol=1e-12)

    def test_diagonal_reduces_to_scalar_chain(self):
        d_a = np.array([1.0, 4.0, 0.2])
        d_b = np.array([9.0, 1.0, 5.0])
        v = 0.3
        rep = ops.operator_chain(spd(np.diag(d_a)), spd(np.diag(d_b)), v)
        assert rep.passed
        for i, (x, y) in enumerate(zip(d_a, d_b)):
            scalar_rep = sc.logarithmic_chain(x, y, v)
            matrix_diag = [term[i, i] for term in rep.terms]
            assert matrix_diag == pytest.approx(list(scalar_rep.values), rel=1e-12)

    def test_random_five_dim(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b = random_pair(rng, 5)
            rep = ops.operator_chain(a, b, 0.3, tol=1e-10)
            assert rep.passed, rep.verdicts

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_stack_gives_each_pairs_report(self, dim):
        rngs = [np.random.default_rng(seed) for seed in range(6)]
        stack_a, stack_b = (spd([harness.random_spd(rng, dim).entries for rng in rngs])
                            for _ in "ab")  # A, then B from each generator
        weights = [float(rng.uniform(0.01, 0.99)) for rng in rngs]
        rep = ops.operator_chain(stack_a, stack_b, weights)
        assert rep.passed.shape == (len(rngs),)
        assert all(np.shape(x) == (len(rngs),) for vd in rep.verdicts
                   for x in dataclasses.astuple(vd))
        assert [term.shape for term in rep.terms] == [(len(rngs), dim, dim)] * 5
        for k, (a, b, v) in enumerate(zip(stack_a.entries, stack_b.entries, weights)):
            one = ops.operator_chain(spd(a), spd(b), v)
            assert pair_report(rep, k).to_dict() == one.to_dict()
            assert all(np.array_equal(x[k], y) for x, y in zip(rep.terms, one.terms))
        # one weight per pair: a shorter list, one weight in a list or a bare number raises
        for short in (weights[:-1], weights[:1], weights[0]):
            with pytest.raises(ValueError, match="one weight per pair"):
                ops.operator_chain(stack_a, stack_b, short)
        with pytest.raises(ValueError, match="one weight per pair"):  # one A, a stack of B
            ops.operator_chain(spd(stack_a.entries[0]), stack_b, weights[0])

    def test_terms_bitwise_symmetric(self):
        rng = np.random.default_rng(10)
        a, b = random_pair(rng, 6)
        rep = ops.operator_chain(a, b, 0.77)
        for term in rep.terms:
            assert np.array_equal(term, term.T)

    def test_dim_one_matches_scalar(self):
        rep = ops.operator_chain(spd([[2.0]]), spd([[5.0]]), 0.6)
        scalar_rep = sc.logarithmic_chain(2.0, 5.0, 0.6)
        assert [t[0, 0] for t in rep.terms] == pytest.approx(list(scalar_rep.values),
                                                             rel=1e-14)


class TestSpectralVerdicts:
    """The chain's verdicts come from the congruence spectrum alone."""

    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_two_eigen_solves_per_chain(self, dim, monkeypatch):
        # the verdicts take one factorization of A and the eigenvalues of C alone; reading
        # the terms adds C's eigenvectors, and reading them again adds nothing
        a, b = random_pair(np.random.default_rng(dim), dim)
        calls = []
        for name in ("cholesky", "eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda m, *args, _solve=solve, _name=name:
                                calls.append(_name) or _solve(m, *args))
        rep = ops.operator_chain(a, b, 0.3)
        assert rep.passed
        assert calls == ["cholesky", "eigvalsh"]
        assert rep.terms is rep.terms
        assert calls == ["cholesky", "eigvalsh", "eigh"]

    @pytest.mark.parametrize("tol", [1e-10, -1e-3, -3e-2])
    def test_verdict_is_the_representing_chain_at_every_eigenvalue(self, tol):
        # a negative tolerance demands a positive slack, so links fail as well
        rng = np.random.default_rng(31)
        outcomes = set()
        for dim in (2, 3, 5, 8):
            for _ in range(25):
                a, b = random_pair(rng, dim)
                v = float(rng.uniform(0.01, 0.99))
                rep = ops.operator_chain(a, b, v, tol=tol)
                lam = np.linalg.eigvalsh(ops._congruence(a.entries, b.entries)[1])
                chains = [ops.representing_chain(x, v, tol) for x in lam]
                for k, vd in enumerate(rep.verdicts):
                    links = [c.slacks[k] >= -c.tol_used * c.scale for c in chains]
                    assert vd.holds == all(links)
                    assert vd.holds == (vd.margin >= -vd.tol_used)
                    assert vd.eigenvalue in lam
                    outcomes.add(vd.holds)
        assert outcomes == ({True} if tol > 0 else {True, False})

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_matrix_domain_loewner_agrees(self, dim):
        # 2000 pairs at the suite's conditioning plus 200 at condition up to
        # 1e8, each link tested both ways round; pair i is (M_i, M_{i+1}),
        # drawn in turn, then checked as one stack per conditioning
        rng = np.random.default_rng(2000 + dim)
        for cond_half, pairs in ((2.0, 2000), (4.0, 200)):
            mats, weights = [harness.random_spd(rng, dim, cond_half).entries], []
            for _ in range(pairs):
                mats.append(harness.random_spd(rng, dim, cond_half).entries)
                weights.append(float(rng.uniform(0.01, 0.99)))
            rep = ops.operator_chain(spd(mats[:-1]), spd(mats[1:]), weights)
            for k, vd in enumerate(rep.verdicts):
                lo, hi = rep.terms[k], rep.terms[k + 1]
                assert np.array_equal(ops.loewner_leq(lo, hi, rep.tol_used).holds, vd.holds)
                # reversed, the link fails spectrally at the reported
                # eigenvalue, whose slack exceeds its tolerance; both fail
                assert (vd.margin > vd.tol_used).all()
                assert not ops.loewner_leq(hi, lo, rep.tol_used).holds.any()

    def test_congruence_spectrum_within_mpmath_budget(self):
        # the verdicts' eigenvalues, eigvalsh(L^{-1} B L^{-T}) for A = L L^T, against a
        # 40-digit Cholesky and eigsy of the same pairs: max |error| <= 8 eps kappa(A) lam_max.
        # The worst case here is 5.9 (the eigh(A) route it replaced read 11.1)
        import mpmath

        eps, worst = np.finfo(float).eps, 0.0
        for dim in (2, 5, 8):
            for cond_half in range(6):
                rng = np.random.default_rng(1000 * dim + cond_half)
                for _ in range(12):
                    a, b = (harness.random_spd(rng, dim, cond_half).entries for _ in "ab")
                    lam = np.linalg.eigvalsh(ops._congruence(a, b)[1])
                    with mpmath.workdps(40):
                        inv = mpmath.inverse(mpmath.cholesky(mpmath.matrix(a.tolist())))
                        c = inv * mpmath.matrix(b.tolist()) * inv.T
                        ref = sorted(mpmath.mp.eigsy((c + c.T) / 2, eigvals_only=True))
                        err = max(abs(mpmath.mpf(x) - y) for x, y in zip(lam, ref))
                    lam_a = np.linalg.eigvalsh(a)
                    worst = max(worst, float(err) / (eps * lam_a[-1] / lam_a[0] * float(ref[-1])))
        assert worst <= 8.0, worst

    def test_no_breakdown_at_condition_1e8(self):
        # 300 dim-8 pairs at log10_cond_half 4 (kappa up to 1e8): one stack, which raises
        # NumericalBreakdown if any pair's congruence loses positivity
        rng = np.random.default_rng(8004)
        mats = [harness.random_spd(rng, 8, 4.0).entries for _ in range(600)]
        rep = ops.operator_chain(spd(mats[::2]), spd(mats[1::2]), rng.uniform(0.01, 0.99, 300))
        assert rep.passed.all()

    def test_indefinite_a_is_bad_input(self):
        # the congruence's Cholesky factorization decides A's positivity, with SpdMatrix's message
        a, b = np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2)
        for stack in (False, True):
            with pytest.raises(ValueError, match=r"^matrix is not positive definite \(min eig"):
                ops._congruence(*((np.stack([np.eye(2), m]) if stack else m)
                                           for m in (a, b)))


class TestDiagonalReduction:
    def test_all_means_elementwise(self):
        rng = np.random.default_rng(12)
        pairs = (
            (ops.weighted_arithmetic, sc.weighted_arithmetic),
            (ops.weighted_geometric, sc.weighted_geometric),
            (ops.weighted_logarithmic, sc.weighted_logarithmic),
        )
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            d_a = 10.0 ** rng.uniform(-2, 2, dim)
            d_b = 10.0 ** rng.uniform(-2, 2, dim)
            v = rng.uniform(0.01, 0.99)
            mat_a, mat_b = spd(np.diag(d_a)), spd(np.diag(d_b))
            for op_fn, sc_fn in pairs:
                got = op_fn(mat_a, mat_b, v).entries
                want = np.diag([sc_fn(x, y, v) for x, y in zip(d_a, d_b)])
                scale = max(np.max(np.abs(want)), 1e-300)
                assert np.max(np.abs(got - want)) <= 1e-12 * scale


class TestRepresentingChain:
    def test_unit_point(self):
        rep = ops.representing_chain(1.0, 0.42)
        assert rep.passed
        assert all(x == pytest.approx(1.0, rel=1e-14) for x in rep.values)

    def test_reference_point(self):
        rep = ops.representing_chain(2.0, 0.25)
        assert rep.passed
        assert rep.values[2] == pytest.approx(1.2088134576705436, rel=1e-12)

    def test_extreme_point(self):
        rep = ops.representing_chain(1e-3, 0.99)
        assert rep.passed

    def test_matches_unit_log_chain(self):
        rep = ops.representing_chain(3.7, 0.31)
        chain = sc.logarithmic_chain(1.0, 3.7, 0.31)
        assert rep.values == pytest.approx(list(chain.values), rel=1e-13)

    @pytest.mark.parametrize("t, v", [(1.0, 0.42), (2.0, 0.25), (1e-3, 0.99), (3.7, 0.31),
                                      (5.0, 0.0), (5.0, 1.0)])
    def test_is_the_log_chain_at_one(self, t, v):
        rep, chain = ops.representing_chain(t, v), sc.logarithmic_chain(1.0, t, v)
        assert rep.labels == ops.OPERATOR_CHAIN_LABELS != chain.labels
        assert dataclasses.replace(rep, labels=chain.labels) == chain

    def test_grid_monotone(self):
        ts = np.logspace(-4, 4, 2000)
        for v in (0.01, 0.25, 0.5, 0.75, 0.99):
            terms = sc.logarithmic_chain(1.0, ts, v).values
            scale = np.maximum.reduce([np.abs(x) for x in terms])
            for i in range(4):
                slack = terms[i + 1] - terms[i]
                assert np.all(slack >= -1e-12 * scale)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            ops.representing_chain(0.0, 0.5)


class TestHelperInequality:
    def test_limit_point(self):
        res = ops.logmean_gm_check(1.0)
        assert res.passed
        assert res.lhs == pytest.approx(1.0, rel=1e-12)

    def test_two(self):
        res = ops.logmean_gm_check(2.0)
        assert res.lhs == pytest.approx(3.0 / math.log(4.0), rel=1e-14)
        assert res.passed

    def test_small(self):
        res = ops.logmean_gm_check(0.1)
        assert res.lhs == pytest.approx(-0.99 / math.log(0.01), rel=1e-14)
        assert res.passed

    def test_broadcast_equals_point_calls(self):
        xs = np.concatenate([np.logspace(-4, 4, 301), [1.0, 1.0 + 1e-9]])
        outcomes = set()
        for tol in (1e-12, -1e-3):
            res = ops.logmean_gm_check(xs, tol)
            points = [ops.logmean_gm_check(x, tol) for x in xs]
            assert res.lhs.tolist() == [p.lhs for p in points]
            assert res.rhs.tolist() == [p.rhs for p in points]
            assert res.passed.tolist() == [p.passed for p in points]
            assert {type(x) for p in points for x in p} == {float, bool}
            outcomes.update(res.passed.tolist())
        assert outcomes == {True, False}

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_x_in_an_array(self, bad):
        with pytest.raises(ValueError, match=f"^x must be finite and positive, got {bad}$"):
            ops.logmean_gm_check(np.array([2.0, bad, 0.5]))
        with pytest.raises(ValueError, match=f"^x must be finite and positive, got {bad}$"):
            ops.logmean_gm_check(bad)

    @pytest.mark.parametrize("bad", [1e160, 1.35e154, 1e-170, 5e-324])
    def test_square_outside_the_double_range_is_bad_input(self, bad):
        # x * x overflows or underflows to 0: one ValueError naming x, and no numpy warning
        message = f"^x\\*\\*2 must stay in the double range, got x = {re.escape(str(bad))}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                ops.logmean_gm_check(np.array([2.0, bad, 0.5]))
            with pytest.raises(ValueError, match=message):
                ops.logmean_gm_check(bad)

    def test_extreme_squares_in_range_warn_of_nothing(self):
        xs = np.array([1e-160, 1e-100, 0.5, 2.0, 1e100, 1e154, 1.34e154])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ops.logmean_gm_check(xs)
            lhs = sc.log_mean_unit(xs * xs, 0.5)
        assert res.lhs.tolist() == lhs.tolist()
        assert np.isfinite(res.lhs).all() and res.passed.all()

    def test_grid(self):
        xs = np.logspace(-4, 4, 5000)
        lhs = sc.log_mean_unit(np.square(xs), 0.5)
        assert np.all(lhs - xs >= -1e-12 * np.maximum(1.0, xs))
