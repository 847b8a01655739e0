"""Numerics backbone: Philox sampling, Hermitian eig, PD solves.

The RNG is validated word-for-word against numpy.random.Philox (the
independent reference implementation) and by moment checks; eig and
solve are validated against reconstruction and residual identities.
"""

import re
import tracemalloc

import numpy as np
import pytest
from oracle import box_muller_exp

from relaylab.numerics import (
    ContractViolation,
    NumericalRankError,
    SeedSpec,
    _check_array,
    _complex_gaussian_from_uniforms,
    _gram2_eigh,
    _gram_entries,
    _gram_inv_trace,
    _philox_key,
    _uniform_words,
    eig_hermitian_desc,
    gram_eigvals_desc,
    philox4x64_block,
    sample_complex_gaussian_batch,
    solve_hermitian_psd,
)


def _random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPhilox:
    def test_matches_numpy_reference(self):
        # numpy emits the block of counter c+1; ours evaluates counter c.
        rng = np.random.default_rng(123)
        for _ in range(25):
            seed = int(rng.integers(0, 2**63))
            ctr = rng.integers(0, 2**62, size=4, dtype=np.uint64)
            k0, k1 = _philox_key(seed)
            ref = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64), counter=ctr)
            expect = ref.random_raw(4)
            mine = philox4x64_block(seed, ctr[0] + 1, ctr[1], ctr[2], ctr[3])
            assert np.array_equal(np.stack(mine).ravel(), expect)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("lane", [0, 1])
    @pytest.mark.parametrize("n_words", [2, 6, 30, 32])
    def test_uniform_words_match_numpy_stream_by_stream(self, seed, lane, n_words):
        # Stream s of lane l reads counter blocks (b, l, s, 0), b = 0, 1, ...:
        # numpy's Philox from counter s 2^128 + l 2^64 - 1 emits exactly those.
        streams = np.array([0, 2**64 - 1], dtype=np.uint64)
        u = _uniform_words(seed, lane, streams, n_words)
        key = np.array(_philox_key(seed), dtype=np.uint64)
        for s, row in zip(streams, u):
            counter = (int(s) * 2**128 + lane * 2**64 - 1) % 2**256
            raw = np.random.Philox(key=key, counter=counter).random_raw(n_words)
            assert np.array_equal(row, (raw >> np.uint64(11)) * 2.0**-53)

    def test_determinism(self):
        a = sample_complex_gaussian_batch(3, 4, 42, np.array([7], dtype=np.uint64))[0]
        b = sample_complex_gaussian_batch(3, 4, 42, np.array([7], dtype=np.uint64))[0]
        assert np.array_equal(a, b)

    def test_batch_matches_single_draws(self):
        streams = np.array([0, 1, 5, 2**40 + 3], dtype=np.uint64)
        batch = sample_complex_gaussian_batch(2, 3, 99, streams, lane=1)
        for i, s in enumerate(streams):
            single = sample_complex_gaussian_batch(2, 3, 99, np.array([s], dtype=np.uint64), lane=1)[0]
            assert np.array_equal(batch[i], single)

    def test_distinct_streams_and_lanes_differ(self):
        a = sample_complex_gaussian_batch(2, 2, 1, np.array([0], dtype=np.uint64))[0]
        b = sample_complex_gaussian_batch(2, 2, 1, np.array([1], dtype=np.uint64))[0]
        c = sample_complex_gaussian_batch(2, 2, 1, np.array([0], dtype=np.uint64), lane=1)[0]
        d = sample_complex_gaussian_batch(2, 2, 2, np.array([0], dtype=np.uint64))[0]
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_moments(self):
        streams = np.arange(62500, dtype=np.uint64)
        z = sample_complex_gaussian_batch(4, 4, 2024, streams).ravel()  # 1e6 entries
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
        assert abs(np.mean(z.real)) < 0.005
        assert abs(np.mean(z.imag)) < 0.005

    def test_cross_stream_correlation(self):
        streams = np.arange(6250, dtype=np.uint64)
        a = sample_complex_gaussian_batch(4, 4, 7, streams).ravel()
        b = sample_complex_gaussian_batch(4, 4, 7, streams + np.uint64(6250)).ravel()
        corr = np.mean(a * b.conj())  # E a E b* = 0, Var|a|=1
        assert abs(corr) < 0.01

    @pytest.mark.parametrize(
        "name,args",  # the argument the error must name; (master_seed, c0, c1, c2, c3)
        [
            ("master_seed", (-1, 0, 0, 0, 0)),  # raised numpy's ValueError from SeedSequence
            ("master_seed", (2**64, 0, 0, 0, 0)),
            ("master_seed", (1.5, 0, 0, 0, 0)),
            ("c0", (0, -1, 0, 0, 0)),
            ("c2", (0, 0, 0, np.array([3, -1]), 0)),  # would wrap to 2**64 - 1
            ("c3", (0, 0, 0, 0, [0.5])),
            ("c1", (0, 0, True, 0, 0)),
        ],
    )
    def test_philox_block_rejects_bad_input(self, name, args):
        with pytest.raises(ContractViolation, match=f"^{name} "):
            philox4x64_block(*args)

    def test_seedspec_validation(self):
        with pytest.raises(ContractViolation):
            SeedSpec(-1, 0)
        with pytest.raises(ContractViolation):
            SeedSpec(0, 2**64)

    @pytest.mark.parametrize("value", [1.5, "5", True, np.bool_(True), None])
    @pytest.mark.parametrize("field", ["master_seed", "stream_index"])
    def test_seedspec_rejects_non_integers(self, field, value):
        with pytest.raises(ContractViolation):
            SeedSpec(**{"master_seed": 0, field: value})

    def test_seedspec_accepts_numpy_integers(self):
        assert SeedSpec(np.uint64(2**64 - 1), np.int64(3)).master_seed == 2**64 - 1

    def test_shape_validation(self):
        with pytest.raises(ContractViolation):
            sample_complex_gaussian_batch(0, 3, 0, np.array([0], dtype=np.uint64))

    @pytest.mark.parametrize(
        "case",  # (the argument the error must name, master_seed, stream_indices, lane)
        [
            ("master_seed", -1, [0], 0),
            ("master_seed", 1.5, [0], 0),
            ("master_seed", 2**64, [0], 0),
            ("lane", 0, [0], -1),
            ("lane", 0, [0], 2**64),
            ("stream_indices", 0, np.array([3, -1]), 0),  # would wrap to 2**64 - 1
            ("stream_indices", 0, [1.5], 0),
            ("stream_indices", 0, [True], 0),
        ],
    )
    def test_batch_rejects_bad_seeds_and_streams(self, case):
        name, seed, streams, lane = case
        with pytest.raises(ContractViolation, match=name):
            sample_complex_gaussian_batch(2, 2, seed, streams, lane=lane)

    def test_batch_accepts_signed_integer_streams(self):
        streams = np.array([0, 5, 2**40 + 3])
        expected = sample_complex_gaussian_batch(2, 3, 99, streams.astype(np.uint64))
        assert np.array_equal(sample_complex_gaussian_batch(2, 3, 99, streams), expected)

    @pytest.mark.parametrize("value", [0, 1.5, True, "2", None, np.float64(2.0)])
    @pytest.mark.parametrize("name", ["rows", "cols"])
    def test_batch_rejects_bad_shape(self, name, value):
        shape = {"rows": 2, "cols": 2, name: value}
        with pytest.raises(ContractViolation, match=name):
            sample_complex_gaussian_batch(shape["rows"], shape["cols"], 0, [0])


class TestBoxMuller:
    """The sampler's cos and sin of 2 pi t (quarter-turn reduction, fdlibm kernels) against libm's exp."""

    # angles 0, the smallest and largest nonzero word, and every eighth of a turn
    EDGE_ANGLES = [0.0, 2.0**-53, *(k / 8 for k in range(1, 8)), 1.0 - 2.0**-53]

    def test_matches_exp_route(self):
        u = _uniform_words(20261021, 0, np.arange(2**14, dtype=np.uint64), 64)  # 2^20 uniforms
        edges = np.array([[r, t] for r in (0.0, 0.5, 1.0 - 2.0**-53) for t in self.EDGE_ANGLES])
        for words in (u, edges):
            z, ref = _complex_gaussian_from_uniforms(words), box_muller_exp(words)
            assert np.all(np.abs(z - ref) <= 2e-15 * np.abs(ref))

    def test_exact_at_quarter_turns(self):
        # libm's cos of the rounded pi/2 is 6.1e-17, not 0
        r_word = np.array([0.3, 0.5, 1.0 - 2.0**-53])
        r = np.sqrt(-np.log1p(-r_word))
        for t, turn in ((0.0, 1), (0.25, 1j), (0.5, -1), (0.75, -1j)):
            z = _complex_gaussian_from_uniforms(np.stack([r_word, np.full(3, t)], axis=-1))[:, 0]
            assert np.array_equal(z, turn * r)

    def test_peak_memory(self):
        # A 2,048-trial 4x4x4 hop: 256 KiB per real plane, 512 KiB of output. The step
        # reuses three real planes in place; without that it peaked at 3.25 MiB.
        u = _uniform_words(7, 0, np.arange(2048, dtype=np.uint64), 32)
        _complex_gaussian_from_uniforms(u)
        tracemalloc.start()
        try:
            _complex_gaussian_from_uniforms(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20


class TestEig:
    def test_identity(self):
        eig = eig_hermitian_desc(np.eye(2))
        assert np.allclose(eig.values, [1.0, 1.0])
        assert np.allclose(eig.vectors @ eig.vectors.conj().T, np.eye(2))

    def test_diagonal_ordering(self):
        eig = eig_hermitian_desc(np.diag([1.0, 3.0]))
        assert np.allclose(eig.values, [3.0, 1.0])

    def test_reconstruction_random_gram(self):
        x = sample_complex_gaussian_batch(4, 4, 11, np.array([0], dtype=np.uint64))[0]
        a = x.conj().T @ x
        eig = eig_hermitian_desc(a)
        rebuilt = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
        assert np.linalg.norm(rebuilt - a) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.norm(eig.vectors.conj().T @ eig.vectors - np.eye(4)) <= 1e-10

    def test_unitary_conjugation_invariance(self):
        x = sample_complex_gaussian_batch(5, 5, 12, np.array([0], dtype=np.uint64))[0]
        a = x.conj().T @ x
        u = _random_unitary(5, 3)
        va = eig_hermitian_desc(a).values
        vb = eig_hermitian_desc(u @ a @ u.conj().T).values
        assert np.max(np.abs(va - vb)) <= 1e-9

    def test_psd_clipping(self):
        v = np.array([1.0, 2.0, 3.0])
        a = np.outer(v, v)  # rank one, two exact-zero modes
        values = eig_hermitian_desc(a).values
        assert values[0] == pytest.approx(14.0)
        assert np.all(values >= 0.0)

    def test_deterministic_gauge(self):
        x = sample_complex_gaussian_batch(4, 4, 13, np.array([0], dtype=np.uint64))[0]
        a = x.conj().T @ x
        v1 = eig_hermitian_desc(a).vectors
        v2 = eig_hermitian_desc(a.copy()).vectors
        assert np.array_equal(v1, v2)

    def test_rejects_bad_input(self):
        with pytest.raises(ContractViolation):
            eig_hermitian_desc(np.ones((2, 3)))
        with pytest.raises(ContractViolation):
            eig_hermitian_desc(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN passes a "defect > tol" test, so the check must look for it
        with pytest.raises(ContractViolation, match="eig input has NaN or infinite"):
            eig_hermitian_desc(np.array([[bad, 0.0], [0.0, 1.0]]))


class TestCheckArray:
    @pytest.mark.parametrize(
        "values,kwargs,message",
        [
            ([1.0, np.nan], {}, "x has NaN or infinite entries"),
            ([1j, complex(np.inf, 0.0)], {}, "x has NaN or infinite entries"),
            ([-np.inf, 1.0], {"low": 0}, "x has NaN or infinite entries"),
            ([1.0, -0.5], {"low": 0}, "x must be at least 0, got -0.5"),
            (np.array([3, -1]), {"low": 0, "integer": True}, "x must be at least 0, got -1"),
            ([1.5], {"integer": True}, "x must be integers, got dtype float64"),
            ([True], {"integer": True}, "x must be integers, got dtype bool"),
            ([1.0, 2.0], {"shape": (None, None)}, "x must have shape (*, *), got (2,)"),  # wrong ndim
            ([[1.0, 2.0]], {"shape": (None, 3)}, "x must have shape (*, 3), got (1, 2)"),  # wrong size
            ([[1.0]], {"shape": (2,)}, "x must have shape (2,), got (1, 1)"),
            ([np.nan], {"shape": (2,)}, "x must have shape (2,), got (1,)"),  # shape before entries
        ],
    )
    def test_one_wording_per_rule(self, values, kwargs, message):
        with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
            _check_array("x", values, **kwargs)

    @pytest.mark.parametrize(
        "values,kwargs",
        [
            ([0.0, 2.0], {"low": 0}),  # the bound is inclusive
            ([[1 + 1j, 0.0]], {}),
            (np.zeros(0), {"low": 1, "integer": True}),
            (np.array([0, 2**64 - 1], dtype=np.uint64), {"low": 0, "integer": True}),
            ([[1.0, 2.0]], {"shape": (None, 2)}),  # a free axis takes any size
            (np.zeros((0, 3)), {"shape": (None, 3)}),
            ([[1.0, 2.0]], {"shape": (1, None)}),
            (np.ones((2, 3, 4)), {"shape": None}),
            (np.float64(1.0), {"shape": ()}),
        ],
    )
    def test_accepts(self, values, kwargs):
        assert np.array_equal(_check_array("x", values, **kwargs), values)


class TestGramEigvals:
    @staticmethod
    def _stack(r, c):
        full = sample_complex_gaussian_batch(r, c, 31, np.arange(40, dtype=np.uint64))
        rank_one = full[:10, :, :1] @ full[:10, :1, :]  # rank 1 on every shape
        return np.concatenate([full, rank_one, np.zeros((1, r, c), dtype=complex)])

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_matches_eigvalsh(self, r, c):
        mats = self._stack(r, c)
        got = gram_eigvals_desc(mats, c)
        ref = np.linalg.eigvalsh(mats.conj().swapaxes(-1, -2) @ mats)[:, ::-1]
        assert got.shape == (mats.shape[0], c)
        scale = 1.0 + ref[:, :1]
        assert np.all(np.abs(got - ref) <= 1e-12 * scale)
        assert np.all(np.diff(got, axis=1) <= 0.0)
        assert np.all(got[:, min(r, c):] == 0.0)  # structural zeros, exact
        assert np.array_equal(gram_eigvals_desc(mats, 1), got[:, :1])

    @pytest.mark.parametrize("shape", [(1, 3), (2, 2), (3, 2), (2, 4), (4, 4)])
    def test_one_matrix_stack_is_a_row_of_the_batch(self, shape):
        mats = self._stack(*shape)
        batch = gram_eigvals_desc(mats, 4)
        for i in range(mats.shape[0]):
            assert np.array_equal(gram_eigvals_desc(mats[i][None], 4)[0], batch[i])


    def test_order2_eigenpairs(self):
        # Random Grams on both sides of a >= b, rank one, a = b with c = 0
        # (a multiple of I, zero included) and a = b with c != 0. The entries
        # come from _gram_entries; the pairs are checked on the matmul Gram.
        mats = np.concatenate([self._stack(2, 3), [1.5 * np.eye(2, 3), [[1, 1, 1], [1, 1j, 1j]]]])
        _, _, (a, b), upper = _gram_entries(mats)
        values, u1 = _gram2_eigh(a, b, upper[0, 1])
        gram = mats @ mats.conj().swapaxes(-1, -2)  # the last one is [[3, 1 - 2j], [1 + 2j, 3]]
        u = np.stack([u1, np.stack([-u1[:, 1].conj(), u1[:, 0].conj()], axis=-1)], axis=-1)
        assert np.allclose(u.conj().swapaxes(-1, -2) @ u, np.eye(2), rtol=0, atol=1e-14)
        scale = 1.0 + values[:, :1, None]
        assert np.all(np.abs(gram @ u - u * values[:, None, :]) <= 1e-13 * scale)
        assert np.array_equal(values, gram_eigvals_desc(mats, 2))
        assert np.array_equal(values[-2:], [[2.25, 2.25], [3 + 5**0.5, 3 - 5**0.5]])
        assert np.array_equal(u1[-3:-1], [[1.0, 0.0], [1.0, 0.0]])  # the zero matrix and 2.25 I

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (2, 9), (3, 2), (4, 2), (12, 2)])
    def test_order2_matches_eigvalsh(self, shape):
        # 2 x c and r x 2 stacks: random, rank one, zero, and a = b (the smaller
        # side's two vectors are conjugates, with c != 0), past 8 columns too,
        # where numpy's sum of one matrix is pairwise but a stack's is in order
        mats = self._stack(*shape)
        equal = mats[:10].copy()
        if shape[0] <= shape[1]:
            equal[:, 1] = equal[:, 0].conj()
        else:
            equal[:, :, 1] = equal[:, :, 0].conj()
        mats = np.concatenate([mats, equal])
        got = gram_eigvals_desc(mats, 2)
        ref = np.linalg.eigvalsh(mats.conj().swapaxes(-1, -2) @ mats)[:, ::-1][:, :2]
        assert np.all(np.abs(got - ref) <= 1e-13 * (1.0 + ref[:, :1]))
        _, _, (a, b), _ = _gram_entries(equal)
        assert np.array_equal(a, b)
        for i in range(mats.shape[0]):
            assert np.array_equal(gram_eigvals_desc(mats[i][None], 2)[0], got[i])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("shape", [(3, 2), (4, 4)])  # the order-2 closed form and eigvalsh
    def test_rejects_non_finite(self, shape, bad):
        # order 2 returned NaN eigenvalues, order 4 raised LinAlgError
        mats = self._stack(*shape)
        mats[5, 1, 0] = bad
        with pytest.raises(ContractViolation, match="^mats has NaN or infinite entries"):
            gram_eigvals_desc(mats, 2)

    @pytest.mark.parametrize("k", [0, -1, 1.5, True])
    def test_rejects_bad_k(self, k):
        # 0 and -1 sliced the spectrum silently, 1.5 raised TypeError
        with pytest.raises(ContractViolation, match="^k must be"):
            gram_eigvals_desc(self._stack(2, 2), k)


class TestGramInvTrace:
    @pytest.mark.parametrize(
        "shape", [(1, 3), (3, 3), (3, 5), (5, 4), (4, 4), (6, 6), (1, 1), (2, 2), (2, 5), (5, 2)]
    )
    @pytest.mark.parametrize("rho", [1.0, 316.0, 1e8, 1e12])
    def test_matches_spectrum(self, shape, rho):
        # Rank-deficient and zero matrices included. The gap to the
        # spectrum route (closed form for order 2, eigvalsh otherwise)
        # is measured in units of eps k (1 + rho tr A), the unit of the
        # bound screen's margin (1e3 units); at most 1.4 units is seen on
        # these stacks, under 0.5 from order 3.
        mats = TestGramEigvals._stack(*shape)
        k = min(shape)
        lam = gram_eigvals_desc(mats, k)
        inv_trace, trace = _gram_inv_trace(mats, rho)
        unit = np.finfo(float).eps * k * (1.0 + rho * trace)
        assert np.all(np.abs(inv_trace - np.sum(1.0 / (1.0 + rho * lam), axis=1)) <= 10 * unit)
        assert np.allclose(trace, lam.sum(axis=1), rtol=1e-12, atol=0)
        assert inv_trace[-1] == min(shape)  # the zero matrix: tr(I^-1), exactly


class TestSolve:
    def test_identity(self):
        b = sample_complex_gaussian_batch(3, 2, 20, np.array([0], dtype=np.uint64))[0]
        assert np.allclose(solve_hermitian_psd(np.eye(3), b), b)

    def test_scalar_matrix(self):
        x = solve_hermitian_psd(2.0 * np.eye(3), np.eye(3))
        assert np.allclose(x, 0.5 * np.eye(3))

    def test_random_pd_residual(self):
        x = sample_complex_gaussian_batch(5, 5, 21, np.array([0], dtype=np.uint64))[0]
        a = x.conj().T @ x + np.eye(5)
        b = sample_complex_gaussian_batch(5, 3, 22, np.array([0], dtype=np.uint64))[0]
        sol = solve_hermitian_psd(a, b)
        assert np.linalg.norm(a @ sol - b) <= 1e-9 * np.linalg.norm(b)

    def test_thousand_seeded_systems(self):
        for trial in range(1000):
            n = 1 + trial % 8
            x = sample_complex_gaussian_batch(n, n, 500, np.array([trial], dtype=np.uint64))[0]
            a = x.conj().T @ x + np.eye(n)
            b = sample_complex_gaussian_batch(n, 2, 501, np.array([trial], dtype=np.uint64))[0]
            sol = solve_hermitian_psd(a, b)
            assert np.linalg.norm(a @ sol - b) <= 1e-9 * np.linalg.norm(b)

    def test_singular_raises_with_pivot(self):
        a = np.diag([1.0, 0.0])
        with pytest.raises(NumericalRankError) as info:
            solve_hermitian_psd(a, np.eye(2))
        assert info.value.pivot == pytest.approx(0.0, abs=1e-12)
        assert "pivot" in str(info.value)

    def test_indefinite_raises(self):
        with pytest.raises(NumericalRankError):
            solve_hermitian_psd(np.diag([1.0, -2.0]), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ContractViolation, match="solve input has NaN or infinite"):
            solve_hermitian_psd(np.array([[2.0, bad], [bad, 2.0]]), np.eye(2))
        with pytest.raises(ContractViolation, match="solve rhs has NaN or infinite"):
            solve_hermitian_psd(np.eye(2), np.array([1.0, bad]))
