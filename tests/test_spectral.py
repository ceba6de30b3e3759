"""Closed-form spectrum of the origin Jacobian."""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_spectrum, fft_projection, match_distance, random_lattice
from fhn_torus import (
    DomainError,
    LatticeParams,
    analytic_eigenvalues,
    analytic_eigenvector,
    assemble_jacobian_origin,
    canonical_mode,
    coupling_symbol,
    critical_a,
    eigenvalue_grids,
    genericity_violations,
    spectrum_report,
    symbol_grid,
)
from fhn_torus import bifurcation, model, spectral

LP_HALF = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=-0.5, delta=-0.5)


def elementwise_residuals(lp):
    """(eigenvalue, residual) of every record in record order, with J
    applied to both rows of each unnormalised mode cell by cell: x' =
    w0 x + w1 y + w2 x_(1,0) + w3 x_(0,1), y' = w4 x + w5 y, over the
    largest of |x| and |y|."""
    n = lp.n
    w = model._linear_weights(lp)
    succ_i, succ_j = model._cell_shift((1, 0), n), model._cell_shift((0, 1), n)
    A = symbol_grid(lp)
    out = []
    for r, s in np.ndindex(n, n):
        x = model._mode_vector(r, np.array([s]), n)
        for lam in (grid[r, s] for grid in eigenvalue_grids(lp)):
            y = (A[r, s] - lam) * x
            jx = w[0] * x + w[2] * x[succ_i] + w[3] * x[succ_j] + w[1] * y
            jy = w[4] * x + w[5] * y
            rho = max(np.abs(jx - lam * x).max(), np.abs(jy - lam * y).max())
            out.append((complex(lam), rho / np.maximum(np.abs(x), np.abs(y)).max()))
    return out


class TestCouplingSymbol:
    def test_zero_frequency_is_minus_a(self):
        lp = LatticeParams(n=3, a=0.8, b=1.0, c=0.1, gamma=0.4, delta=-1.2)
        assert coupling_symbol(0, 0, lp) == pytest.approx(-0.8)

    def test_worked_value(self):
        val = coupling_symbol(1, 0, LP_HALF)
        assert val.real == pytest.approx(-0.75, abs=1e-15)
        assert val.imag == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)

    def test_conjugate_frequencies(self, rng):
        lp = random_lattice(rng, n=5)
        for r in range(5):
            for s in range(5):
                lhs = coupling_symbol((5 - r) % 5, (5 - s) % 5, lp)
                assert abs(lhs - coupling_symbol(r, s, lp).conjugate()) < 1e-12


class TestAnalyticEigenvalues:
    def test_pure_rotation_at_zero_mode(self):
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        lam_p, lam_m = analytic_eigenvalues(0, 0, lp)
        assert abs(lam_p - 1j) < 1e-15
        assert abs(lam_m + 1j) < 1e-15

    def test_frozen_pair(self):
        # independently checked against the roots of
        # lambda^2 - A*lambda + b with A = A(1, 0)
        lam_p, lam_m = analytic_eigenvalues(1, 0, LP_HALF)
        assert lam_p == pytest.approx(
            complex(-0.29005151144365582, -0.73924793008432721), abs=1e-14
        )
        assert lam_m == pytest.approx(
            complex(-0.45994848855634407, 1.1722606319765465), abs=1e-14
        )

    def test_vieta(self, rng):
        for _ in range(25):
            lp = random_lattice(rng, n=3)
            r, s = int(rng.integers(3)), int(rng.integers(3))
            A = coupling_symbol(r, s, lp)
            lam_p, lam_m = analytic_eigenvalues(r, s, lp)
            assert abs(lam_p + lam_m - (A - lp.c)) < 1e-12
            assert abs(lam_p * lam_m - (lp.b - lp.c * A)) < 1e-12

    def test_conjugate_pairing(self, rng):
        # the reflected frequency carries the conjugate pair; branches
        # swap on self-conjugate frequencies, where the radicand sits
        # on the negative real axis and the root convention picks +i
        lp = random_lattice(rng, n=5)
        for r in range(5):
            for s in range(5):
                pp, mm = analytic_eigenvalues(r, s, lp)
                qp, qm = analytic_eigenvalues((5 - r) % 5, (5 - s) % 5, lp)
                self_conj = (r, s) == ((5 - r) % 5, (5 - s) % 5)
                if self_conj and pp.imag != 0.0:
                    assert abs(qp - mm.conjugate()) < 1e-12
                    assert abs(qm - pp.conjugate()) < 1e-12
                else:
                    assert abs(qp - pp.conjugate()) < 1e-12
                    assert abs(qm - mm.conjugate()) < 1e-12

    def test_real_part_bounds_without_leak(self, rng):
        # with c = 0: Re lam_- <= Re A / 2; the + branch is bounded by
        # Re A when that is nonnegative and is negative otherwise
        for _ in range(40):
            lp = random_lattice(rng, n=3, c_zero=True)
            for r in range(3):
                for s in range(3):
                    A = coupling_symbol(r, s, lp)
                    lam_p, lam_m = analytic_eigenvalues(r, s, lp)
                    assert lam_m.real <= 0.5 * A.real + 1e-12
                    if A.real >= 0.0:
                        assert lam_p.real <= A.real + 1e-12
                    else:
                        assert lam_p.real < 1e-12


class TestAnalyticEigenvector:
    def test_zero_mode_is_synchronized(self):
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=-1.0, delta=-1.0)
        xi = analytic_eigenvector(0, 0, "+", lp)
        assert np.max(np.abs(xi[0::2] - xi[0])) < 1e-14
        assert np.max(np.abs(xi[1::2] - xi[1])) < 1e-14

    def test_residuals_against_dense_matrix(self, rng):
        for n in (3, 5):
            for _ in range(10):
                lp = random_lattice(rng, n=n)
                M = assemble_jacobian_origin(lp)
                r = int(rng.integers(n))
                s = int(rng.integers(n))
                for branch in ("+", "-"):
                    lam = analytic_eigenvalues(r, s, lp)[0 if branch == "+" else 1]
                    xi = analytic_eigenvector(r, s, branch, lp)
                    res = np.max(np.abs(M @ xi - lam * xi)) / np.max(np.abs(xi))
                    assert res <= 1e-10

    def test_rejects_unknown_branch(self):
        with pytest.raises(DomainError, match="branch must be"):
            analytic_eigenvector(1, 0, "x", LP_HALF)

    def test_first_cell_component_real_positive(self, rng):
        lp = random_lattice(rng, n=3)
        xi = analytic_eigenvector(1, 2, "+", lp)
        assert xi[0].imag == pytest.approx(0.0, abs=1e-15)
        assert xi[0].real > 0.0

    def test_real_part_lies_in_isotypic_component(self, rng):
        lp = random_lattice(rng, n=3)
        for (r, s) in [(0, 0), (1, 0), (2, 2), (1, 2)]:
            xi = analytic_eigenvector(r, s, "+", lp)
            k = canonical_mode(r, s, 3)
            re = np.real(xi)
            assert np.max(np.abs(re - fft_projection(re, k, 3))) <= 1e-10


class TestFrequencyEntries:
    # each raised numpy's untyped IndexError at a float entry
    @pytest.mark.parametrize("r, s", [(0.5, 0), (0, 1.5), (1.0, 0), (np.float64(2.0), 1)])
    def test_an_entry_that_is_not_an_integer_is_refused(self, r, s):
        named = f"a frequency has integer entries, got {re.escape(repr((r, s)))}"
        with pytest.raises(DomainError, match=named):
            coupling_symbol(r, s, LP_HALF)
        with pytest.raises(DomainError, match=named):
            analytic_eigenvalues(r, s, LP_HALF)
        with pytest.raises(DomainError, match=named):
            analytic_eigenvector(r, s, "+", LP_HALF)

    def test_numpy_integers_give_the_same_bits(self, rng):
        lp = random_lattice(rng, n=5)
        for r, s in [(np.int64(3), np.int32(4)), (np.uint8(3), 4), (np.int64(-2), -1)]:
            k = (int(r), int(s))
            assert coupling_symbol(r, s, lp) == coupling_symbol(*k, lp)
            assert analytic_eigenvalues(r, s, lp) == analytic_eigenvalues(*k, lp)
            for branch in "+-":
                assert np.array_equal(analytic_eigenvector(r, s, branch, lp),
                                      analytic_eigenvector(*k, branch, lp))


class TestSpectrumReport:
    def test_record_count(self, rng):
        for n in (3, 5):
            lp = random_lattice(rng, n=n)
            assert len(spectrum_report(lp)) == 2 * n * n

    def test_uncoupled_degeneracy_flagged(self):
        lp = LatticeParams(n=3, a=0.3, b=1.0, c=0.0, gamma=0.0, delta=0.0)
        recs = spectrum_report(lp)
        assert all(rec.coincident for rec in recs)

    def test_generic_draw_unflagged(self, rng):
        lp = LatticeParams(n=3, a=0.2, b=1.0, c=0.0, gamma=0.731, delta=-1.292)
        recs = spectrum_report(lp)
        assert all(not rec.coincident for rec in recs)
        assert all(rec.residual <= 1e-10 for rec in recs)

    def test_matches_dense_spectrum(self, rng):
        lp = random_lattice(rng, n=3)
        recs = spectrum_report(lp)
        dist = match_distance([rec.eigenvalue for rec in recs], dense_spectrum(lp))
        assert dist < 1e-8

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("c", [0.0, 0.05])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_residuals_match_dense_oracle(self, n, c, signs):
        lp = LatticeParams(n=n, a=0.3, b=1.2, c=c,
                           gamma=1.3 * signs[0], delta=0.7 * signs[1])
        M = assemble_jacobian_origin(lp)
        for rec in spectrum_report(lp):
            xi = analytic_eigenvector(rec.r, rec.s, rec.branch, lp)
            want = np.max(np.abs(M @ xi - rec.eigenvalue * xi)) / np.max(np.abs(xi))
            assert abs(rec.residual - want) <= 1e-13

    @pytest.mark.parametrize("n", [3, 5, 7, 11])
    @pytest.mark.parametrize("c", [0.0, 0.05])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_residuals_match_elementwise_oracle(self, n, c, signs):
        lp = LatticeParams(n=n, a=0.3, b=1.2, c=c,
                           gamma=1.3 * signs[0], delta=0.7 * signs[1])
        recs = spectrum_report(lp)
        want = elementwise_residuals(lp)
        assert [rec.eigenvalue for rec in recs] == [lam for lam, _ in want]
        assert all(abs(rec.residual - rho) <= 1e-15 for rec, (_, rho) in zip(recs, want))

    def test_planted_coupling_stencil_error_shows_at_every_record(self, monkeypatch):
        lp = LatticeParams(n=5, a=0.3, b=1.2, c=0.05, gamma=1.3, delta=-0.7)
        real_weights = spectral._linear_weights

        def planted(lp):
            w = list(real_weights(lp))
            w[2] += 1e-6
            return tuple(w)

        monkeypatch.setattr(spectral, "_linear_weights", planted)
        assert all(rec.residual >= 1e-7 for rec in spectrum_report(lp))

    def test_planted_eigenvalue_error_shows_at_its_record_only(self, monkeypatch):
        lp = LatticeParams(n=5, a=0.2, b=1.0, c=0.05, gamma=0.731, delta=-1.292)
        real_roots = spectral._roots

        def planted(A, b, c):
            lam_p, lam_m = real_roots(A, b, c)
            lam_m[2, 3] += 1e-6
            return lam_p, lam_m

        monkeypatch.setattr(spectral, "_roots", planted)
        for rec in spectrum_report(lp):
            if rec.mode + (rec.branch,) == (2, 3, "-"):
                assert rec.residual >= 1e-7
            else:
                assert rec.residual < 1e-12

    @pytest.mark.parametrize("n", [5, 23])
    def test_one_jacobian_apply_per_block_of_one_r(self, n, monkeypatch):
        # the operator is applied to one (n, 1, N^2) grid of phases per
        # first frequency r, the x grid the branches share, not per mode;
        # the grids come from one table of phase powers per call
        calls, blocks = [], []
        real_mode_blocks = spectral._mode_blocks

        def counted(m):
            calls.append(m)
            for x in real_mode_blocks(m):
                blocks.append(x.shape)
                yield x

        monkeypatch.setattr(spectral, "_mode_blocks", counted)
        spectrum_report(random_lattice(np.random.default_rng(n), n=n))
        assert calls == [n]
        assert blocks == [(n, 1, n * n)] * n

    def test_memory_peak_at_n23(self, rng):
        # the kept block buffers, the phase block's among them, hold 4N^3
        # complex and 2N^3 real entries, about 1.0 MB at N=23; the report
        # peaked at 1.52 MB when this bound was set (2.50 MB before the
        # residuals were split into two rows, 1.32 MB once the phase
        # blocks were written into one buffer)
        lp = random_lattice(rng, n=23)
        spectrum_report(lp)
        tracemalloc.start()
        try:
            spectrum_report(lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1e6


def reference_spectrum_report(lp):
    """The report as it was before its phase powers were built once per
    call, kept here as the bit-for-bit oracle: the phases of each first
    frequency r rebuilt from w and w^s, np.take's wrapper, and records
    built from a key tuple and a hit list per record."""
    n = lp.n
    A = symbol_grid(lp)
    lam = np.stack(spectral._roots(A, lp.b, lp.c), axis=-1)
    d = A[..., None] - lam
    w = model._linear_weights(lp)
    succ = {2: model._cell_shift((1, 0), n), 3: model._cell_shift((0, 1), n)}
    cx = w[0] + w[1] * d - lam
    g = np.empty((n, 1, n * n), complex)
    rx, ax, res = np.empty((n, 2, n * n), complex), np.empty((n, 2, n * n)), np.empty((n, n, 2))
    for r in range(n):
        wn = np.exp(2j * np.pi * np.arange(n) / n)
        ws = wn ** np.arange(n).reshape(n, 1, 1)
        x = np.multiply.outer(ws, np.multiply.outer(wn ** r, np.array([1.0]))).reshape(n, 1, -1)
        np.multiply(cx[r, :, :, None], x, out=rx)
        for k, sk in succ.items():
            rx += np.multiply(np.take(x, sk, axis=-1, out=g, mode="clip"), w[k], out=g)
        res[r] = np.abs(rx, out=ax).max(-1)
        res[r] /= np.abs(x, out=ax[:, :1]).max(-1)
    res = np.maximum(res, np.abs(w[4] + (w[5] - lam) * d)) / np.maximum(1.0, np.abs(d))
    keys = [(r, s, b) for r in range(n) for s in range(n) for b in "+-"]
    hits = [[] for _ in keys]
    for i, j in spectral._coincident_pairs(lam.reshape(-1), spectral._COINCIDENCE_TOL):
        if i // 2 != j // 2:
            hits[i].append(keys[j])
            hits[j].append(keys[i])
    return [spectral.EigenRecord(*key, eig, rho, tuple(found)) for key, eig, rho, found
            in zip(keys, lam.ravel().tolist(), res.ravel().tolist(), hits)]


def reference_origin_stability(lp):
    """(margin, leading (r, s, branch, eigenvalue)) as origin_stability
    computed them before its margin had a helper of its own."""
    lam = np.stack(eigenvalue_grids(lp))
    margin = float(lam.real.max())
    tol = 1e-12 * max(1.0, abs(margin))
    leading = sorted((int(r), int(s), "+-"[k], complex(lam[k, r, s]))
                     for k, r, s in zip(*np.nonzero(lam.real >= margin - tol)))
    return margin, leading


def record_bits(recs):
    """Keys and coincident tuples of the records, and the bytes of their
    eigenvalues and residuals."""
    return ([(rec.r, rec.s, rec.branch, rec.coincident) for rec in recs],
            np.array([rec.eigenvalue for rec in recs]).tobytes(),
            np.array([rec.residual for rec in recs]).tobytes())


def oracle_lattices(count, seed):
    """Seeded lattices with N from 3 to 23, c = 0 on every other one,
    couplings of either sign with moduli from 1e-3 to 1e3, delta = gamma
    (coincident eigenvalues) on every fourth and a = 0 at c = 0, where
    the (-, -) margin is exactly 0, on every sixth."""
    rng = np.random.default_rng(seed)
    sizes = (3, 5, 7, 11, 13, 17, 19, 23)
    for k in range(count):
        gamma, delta = rng.choice((-1.0, 1.0), 2) * 10.0 ** rng.uniform(-3.0, 3.0, 2)
        c = 0.0 if k % 2 == 0 else float(rng.uniform(0.0, 1.0))
        yield LatticeParams(n=int(rng.choice(sizes)),
                            a=0.0 if k % 6 == 0 else float(rng.uniform(-2.0, 3.0)),
                            b=float(rng.uniform(0.1, 4.0)), c=c, gamma=float(gamma),
                            delta=float(gamma if k % 4 == 3 else delta))


class TestBitForBitOracle:
    @pytest.mark.parametrize("n", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_mode_blocks_are_the_mode_vector_blocks(self, n):
        # copied, since each block is written over the last one
        got = [x.copy() for x in model._mode_blocks(n)]
        want = [model._mode_vector(r, np.arange(n).reshape(n, 1, 1), n) for r in range(n)]
        assert np.stack(got).tobytes() == np.stack(want).tobytes()

    def test_report_matches_reference_loop_and_records(self):
        coincident = 0
        for lp in oracle_lattices(520, 43):
            got = spectrum_report(lp)
            assert record_bits(got) == record_bits(reference_spectrum_report(lp)), lp
            coincident += any(rec.coincident for rec in got)
        assert coincident >= 100  # the delta = gamma draws have coincident records

    def test_margin_helper_matches_reference_verdict(self):
        zero = 0
        for lp in oracle_lattices(520, 44):
            want, leading = reference_origin_stability(lp)
            margin, _ = bifurcation._stability_margin(lp)
            verdict = bifurcation.origin_stability(lp)
            assert np.float64(margin).tobytes() == np.float64(want).tobytes(), lp
            assert np.float64(verdict.margin).tobytes() == np.float64(want).tobytes(), lp
            assert [rec.mode + (rec.branch, rec.eigenvalue)
                    for rec in verdict.leading] == leading
            zero += want == 0.0
        assert zero >= 10  # the a = 0, c = 0 (-, -) draws sit on the boundary


class TestSingleClosedForm:
    @pytest.mark.parametrize("n", [11, 23])
    def test_per_mode_values_are_grid_entries(self, rng, n):
        lp = random_lattice(rng, n=n)
        modes = [(r, s) for r in range(n) for s in range(n)]
        symbols = np.array([coupling_symbol(r, s, lp) for r, s in modes])
        pairs = np.array([analytic_eigenvalues(r, s, lp) for r, s in modes])
        assert symbols.tobytes() == symbol_grid(lp).ravel().tobytes()
        want = np.stack([g.ravel() for g in eigenvalue_grids(lp)], axis=1)
        assert pairs.tobytes() == want.tobytes()

    def test_grid_matches_mpmath_reference(self, rng):
        mpmath = pytest.importorskip("mpmath")
        n = 23
        with mpmath.workdps(40):
            for _ in range(3):
                lp = random_lattice(rng, n=n)
                lam_p, lam_m = eigenvalue_grids(lp)
                worst = 0.0
                for r in range(n):
                    for s in range(n):
                        w = [mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in (r, s)]
                        A = (-mpmath.mpf(lp.a) + lp.gamma * (1 - w[0])
                             + lp.delta * (1 - w[1]))
                        root = mpmath.sqrt((A + lp.c) ** 2 - 4 * mpmath.mpf(lp.b))
                        want = [complex((A - lp.c + sg * root) / 2) for sg in (1, -1)]
                        got = analytic_eigenvalues(r, s, lp)
                        worst = max(worst, abs(lam_p[r, s] - want[0]),
                                    abs(lam_m[r, s] - want[1]),
                                    abs(got[0] - want[0]), abs(got[1] - want[1]))
                assert worst <= 1e-14

    @pytest.mark.parametrize("gamma", [1e4, 1e6, 1e8])
    def test_roots_match_mpmath_at_huge_coupling(self, gamma):
        # at the c = 0 critical point of the (+,-) pattern a mode's larger
        # root is about |A| ~ gamma and its smaller about b / |A|; as a
        # difference the smaller was up to 1.2e-8, 1.4e-4 and 1.7 off,
        # relative, at gamma = 1e4, 1e6 and 1e8
        mpmath = pytest.importorskip("mpmath")
        lp = LatticeParams(n=5, a=0.0, b=1.0, c=0.0, gamma=gamma, delta=-1.0)
        lp = replace(lp, a=critical_a(lp).a_star)
        A = symbol_grid(lp)
        lam = spectral._roots(A, lp.b, lp.c)
        with mpmath.workdps(50):
            for (r, s), a in np.ndenumerate(A):
                am = mpmath.mpc(a.real, a.imag)
                root = mpmath.sqrt((am + lp.c) ** 2 - 4 * mpmath.mpf(lp.b))
                for grid, sign in zip(lam, (1, -1)):
                    want = (am - lp.c + sign * root) / 2
                    got = mpmath.mpc(complex(grid[r, s]))
                    assert abs(got - want) <= 1e-15 * abs(want), (r, s, sign)


class TestOverflowingRoots:
    # (A + c)^2 overflows from |A| about 1e154: the roots were NaN, with
    # two numpy warnings, and 12 of the 18 records at N=3 carried them
    @pytest.mark.parametrize("gamma", [1e154, 1e160, 1e200])
    def test_are_a_domain_error_with_no_warning(self, gamma):
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=gamma, delta=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (eigenvalue_grids, spectrum_report):
                with pytest.raises(DomainError, match="eigenvalues overflow"):
                    call(lp)

    def test_huge_finite_residuals_stay_reported(self):
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=1e140, delta=1.0)
        worst = max(rec.residual for rec in spectrum_report(lp))
        assert worst == pytest.approx(math.sqrt(3.0) * 1e140, rel=1e-12)

    def test_a_mode_is_read_where_other_modes_overflow(self):
        # at gamma = delta = -1e300 only the synchronized mode's symbol is
        # small: its roots and the critical point stay, the grid does not
        lp = LatticeParams(n=5, a=0.0, b=1.0, c=0.0, gamma=-1e300, delta=-1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert analytic_eigenvalues(0, 0, lp) == (1j, -1j)
            assert critical_a(lp).primary.omega == 1.0
            with pytest.raises(DomainError, match="eigenvalues overflow"):
                eigenvalue_grids(lp)


def brute_coincident(records, tol=1e-12):
    """O(M^2) oracle for EigenRecord.coincident, in record order."""
    return [
        tuple((o.r, o.s, o.branch) for o in records
              if o.mode != rec.mode and abs(o.eigenvalue - rec.eigenvalue) <= tol)
        for rec in records
    ]


def brute_genericity(lp, tol=1e-12):
    """O(M^2) oracle: gamma*(w^r - w^rt) = delta*(w^st - w^s) within tol."""
    n = lp.n
    w = np.exp(2j * np.pi * np.arange(n) / n)
    modes = [(r, s) for r in range(n) for s in range(n)]
    return [
        ((r, s), (rt, st))
        for i, (r, s) in enumerate(modes)
        for rt, st in modes[i + 1:]
        if abs(lp.gamma * (w[r] - w[rt]) - lp.delta * (w[st] - w[s])) <= tol
    ]


class TestCoincidenceRule:
    DEGENERATE = [
        LatticeParams(n=5, a=0.3, b=1.0, c=0.0, gamma=0.8, delta=0.8),
        LatticeParams(n=7, a=-0.2, b=1.3, c=0.0, gamma=0.0, delta=-1.1),
        LatticeParams(n=5, a=0.3, b=1.0, c=0.0, gamma=0.0, delta=0.0),
    ]

    @pytest.mark.parametrize("lp", DEGENERATE, ids=["equal", "gamma0", "uncoupled"])
    def test_matches_brute_force_oracle(self, lp):
        recs = spectrum_report(lp)
        want = brute_coincident(recs)
        assert any(want)
        assert [rec.coincident for rec in recs] == want
        hits = genericity_violations(lp)
        assert hits and hits == brute_genericity(lp)

    def test_generic_draws_match_oracle(self, rng):
        for n in (3, 5):
            lp = random_lattice(rng, n=n, c_zero=True)
            recs = spectrum_report(lp)
            assert [rec.coincident for rec in recs] == brute_coincident(recs)
            assert genericity_violations(lp) == brute_genericity(lp)


class TestGenericityViolations:
    def test_axis_coupling_degenerates(self):
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=0.0, delta=-1.0)
        hits = genericity_violations(lp)
        # zero gamma makes every same-column pair coincide
        assert len(hits) == 9
        assert all(p[1] == q[1] for p, q in hits)

    def test_equal_couplings_degenerate(self):
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=1.0, delta=1.0)
        hits = genericity_violations(lp)
        assert ((0, 1), (1, 0)) in hits
        assert len(hits) == 3

    def test_generic_ratio_clean(self):
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=1.0, delta=-math.pi / 7.0)
        assert genericity_violations(lp) == []

    def test_requires_c_zero(self):
        lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.1, gamma=1.0, delta=1.0)
        with pytest.raises(DomainError):
            genericity_violations(lp)

    def test_requires_b_nonzero(self):
        lp = LatticeParams(n=3, a=0.0, b=0.0, c=0.0, gamma=1.0, delta=-0.5)
        with pytest.raises(DomainError, match="b != 0"):
            genericity_violations(lp)

    def test_overflowing_symbols_are_refused(self):
        # the symbols overflow at gamma = delta = -1e308: refused with no
        # numpy warning, where three pairs were read off their NaNs
        lp = LatticeParams(n=5, a=0.0, b=1.0, c=0.0, gamma=-1e308, delta=-1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow the coupling symbols"):
                genericity_violations(lp)


def uncoupled_eigenvalues(a, b, c):
    """The (0, 0) pair at gamma = delta = 0, the eigenvalues of one cell."""
    return analytic_eigenvalues(0, 0, LatticeParams(n=3, a=a, b=b, c=c, gamma=0.0, delta=0.0))


class TestUncoupledEigenvalues:
    def test_rotation(self):
        lam_p, lam_m = uncoupled_eigenvalues(a=0.0, b=1.0, c=0.0)
        assert abs(lam_p - 1j) < 1e-15 and abs(lam_m + 1j) < 1e-15

    def test_triangular_case(self):
        lam_p, lam_m = uncoupled_eigenvalues(a=2.0, b=0.0, c=1.0)
        assert {round(lam_p.real, 12), round(lam_m.real, 12)} == {-2.0, -1.0}
        assert lam_p.imag == 0.0 and lam_m.imag == 0.0

    def test_vieta(self, rng):
        for _ in range(50):
            a, b, c = rng.uniform(-2, 3), rng.uniform(0, 4), rng.uniform(0, 1)
            lam_p, lam_m = uncoupled_eigenvalues(float(a), float(b), float(c))
            assert abs(lam_p + lam_m + (a + c)) < 1e-12
            assert abs(lam_p * lam_m - (a * c + b)) < 1e-12

    def test_agrees_with_zero_frequency_network_mode(self):
        a, b, c = 0.7, 1.3, 0.2
        want = uncoupled_eigenvalues(a, b, c)
        cell = np.linalg.eigvals(np.array([[-a, -1.0], [b, -c]]))
        assert match_distance(want, cell) < 1e-14
        # nonzero coupling shifts only nonzero frequencies
        lp = LatticeParams(n=3, a=a, b=b, c=c, gamma=0.9, delta=-0.4)
        assert analytic_eigenvalues(0, 0, lp) == want
