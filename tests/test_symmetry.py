"""Torus group action, invariant planes, isotropy bookkeeping."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import fft_projection
from fhn_torus import (
    ClassificationError,
    DimensionMismatchError,
    IsotropySubgroup,
    act,
    canonical_mode,
    fix_modes,
    fix_projection,
    from_grids,
    group_elements,
    isotropy_of,
    mode_index_set,
    predict_hopf_symmetries,
    to_grids,
)
from fhn_torus import symmetry
from fhn_torus.model import _mode_vector
from fhn_torus.symmetry import state_permutation


def one_hot_state(i, j, n):
    x = np.zeros((n, n))
    x[i, j] = 1.0
    return from_grids(x, np.zeros((n, n)))


class TestAction:
    def test_identity(self, rng):
        z = rng.standard_normal(18)
        assert np.array_equal(act((0, 0), z, 3), z)

    def test_shift_moves_support(self):
        # new cell (i, j) reads old cell (i+1, j): the hot cell at
        # (0, 0) shows up at (n-1, 0)
        z = one_hot_state(0, 0, 3)
        x, y = to_grids(act((1, 0), z, 3), 3)
        assert x[2, 0] == 1.0
        assert np.count_nonzero(x) == 1 and not y.any()

    def test_generator_order(self, rng):
        z = rng.standard_normal(18)
        out = z
        for _ in range(3):
            out = act((1, 0), out, 3)
        assert np.array_equal(out, z)

    def test_group_law(self, rng):
        z = rng.standard_normal(50)
        for g, h in [((1, 2), (3, 4)), ((2, 0), (0, 3)), ((4, 4), (1, 1))]:
            lhs = act(g, act(h, z, 5), 5)
            rhs = act(((g[0] + h[0]) % 5, (g[1] + h[1]) % 5), z, 5)
            assert np.array_equal(lhs, rhs)

    def test_synchronized_fixed_by_all(self):
        z = np.empty(18)
        z[0::2] = 0.4
        z[1::2] = -0.7
        for g in group_elements(3):
            assert np.array_equal(act(g, z, 3), z)

    def test_preserves_complex_dtype(self):
        z = np.arange(18) + 1j * np.arange(18)
        out = act((1, 2), z, 3)
        assert out.dtype == z.dtype
        assert np.array_equal(np.sort_complex(out), np.sort_complex(z))

    @pytest.mark.parametrize("size", [50, 8])
    def test_rejects_a_state_of_another_size(self, size):
        with pytest.raises(DimensionMismatchError):
            act((1, 0), np.arange(float(size)), 3)

    def test_permutation_is_involution_free_bookkeeping(self, rng):
        # acting twice by g equals indexing twice by the permutation
        z = rng.standard_normal(18)
        perm = state_permutation((2, 1), 3)
        assert np.array_equal(act((2, 1), z, 3), z[perm])


class TestModeIndexSet:
    def test_n3_catalogue(self):
        kset = set(mode_index_set(3))
        assert kset == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)}
        assert sum(1 if k == (0, 0) else 2 for k in mode_index_set(3)) == 9

    def test_n5_count_and_total(self):
        modes = mode_index_set(5)
        assert len(modes) == 13
        assert sum(1 if k == (0, 0) else 2 for k in modes) == 25

    @pytest.mark.parametrize("n", [3, 5, 7, 11])
    def test_dimensions_tile_the_lattice(self, n):
        assert sum(1 if k == (0, 0) else 2 for k in mode_index_set(n)) == n * n

    def test_planes_cover_all_frequencies_once(self):
        # every (r, s) belongs to exactly one canonical plane
        for n in (3, 5, 7):
            seen = {}
            for r in range(n):
                for s in range(n):
                    seen.setdefault(canonical_mode(r, s, n), set()).add((r, s))
            assert set(seen) == set(mode_index_set(n))
            assert sum(len(v) for v in seen.values()) == n * n

    def test_canonical_mode_folds_conjugates(self):
        assert canonical_mode(2, 2, 3) == (1, 1)
        assert canonical_mode(0, 2, 3) == (0, 1)
        assert canonical_mode(1, 2, 3) == (2, 1)
        assert canonical_mode(4, 0, 5) == (1, 0)

    @pytest.mark.parametrize("n", [3, 5, 7, 11, 13, 23])
    def test_canonical_mode_matches_the_family_conditions(self, n):
        # the five conditions the families of mode_index_set stand for,
        # tried on (r, s), then on (-r, -s)
        def by_conditions(r, s):
            for k1, k2 in ((r % n, s % n), (-r % n, -s % n)):
                if (k1 == k2 == 0 or (k1 == 0 and 1 <= k2 <= (n - 1) // 2)
                        or (k2 == 0 and 1 <= k1 <= (n - 1) // 2)
                        or (k1 == k2 and 1 <= k1 <= (n - 1) // 2)
                        or 1 <= k2 < k1 <= n - 1):
                    return (k1, k2)
            raise AssertionError((r, s))

        for r in range(-n, n):
            for s in range(-n, n):
                assert canonical_mode(r, s, n) == by_conditions(r, s)


def plane_projection(z, k, n):
    """Orthogonal projection of a state onto the invariant plane of k in
    each lattice half, spanned by the Fourier vector of k and its
    conjugate."""
    e = _mode_vector(*k, n) / n
    dim = 1 if k == (0, 0) else 2
    return (dim * np.outer(e, e.conj() @ z.reshape(-1, 2)).real).reshape(-1)


class TestModeBasis:
    def test_constant_mode(self):
        assert np.array_equal(_mode_vector(0, 0, 3), np.ones(9))
        assert np.allclose(_mode_vector(0, 0, 3, 0.0)[0::2], 1.0 / 3.0, rtol=0.0, atol=1e-15)

    def test_row_mode_constant_in_first_index(self):
        grid = _mode_vector(0, 1, 3).reshape(3, 3).T  # [i, j], as to_grids
        assert np.allclose(grid, grid[0], rtol=0.0, atol=1e-15)
        assert not np.allclose(grid, grid[:, :1], rtol=0.0, atol=1e-3)

    def test_orthonormal(self):
        vecs = np.array([_mode_vector(r, s, 5, 0.0) for r in range(5) for s in range(5)])
        assert np.allclose(vecs.conj() @ vecs.T, np.eye(25), rtol=0.0, atol=1e-12)

    def test_rotation_property(self, rng):
        # shifting a pattern multiplies its complex coordinate by the
        # root of unity with exponent g.k
        n = 5
        for k in mode_index_set(n):
            z = from_grids(rng.standard_normal((n, n)), np.zeros((n, n)))
            e = _mode_vector(*k, n)
            for g in [(1, 0), (0, 1), (2, 3)]:
                before = np.vdot(e, z[0::2])
                after = np.vdot(e, act(g, z, n)[0::2])
                phase = np.exp(2j * np.pi * (g[0] * k[0] + g[1] * k[1]) / n)
                assert abs(after - phase * before) < 1e-12


class TestPhaseConvention:
    @pytest.mark.parametrize("n", [3, 5])
    def test_coordinate_of_zero_based_wave(self, n):
        z = 0.8 - 0.35j
        for k in mode_index_set(n):
            if k == (0, 0):
                continue
            x = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    x[i, j] = np.real(z * np.exp(2j * np.pi * (i * k[0] + j * k[1]) / n))
            pattern = from_grids(x, np.zeros((n, n)))[0::2]
            coordinate = 2 * np.vdot(_mode_vector(*k, n), pattern) / n**2
            assert abs(coordinate - z) <= 1e-12

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_projection_matches_fft_oracle(self, rng, n):
        z = rng.standard_normal(2 * n * n)
        for k in mode_index_set(n):
            got = plane_projection(z, k, n)
            assert np.max(np.abs(got - fft_projection(z, k, n))) <= 1e-13


class TestIsotypicProjection:
    def test_synchronized_lives_in_constant_component(self):
        z = np.empty(18)
        z[0::2] = 1.3
        z[1::2] = -0.2
        assert np.allclose(plane_projection(z, (0, 0), 3), z, rtol=0.0, atol=1e-14)
        assert np.allclose(
            plane_projection(z, (1, 1), 3), 0.0, rtol=0.0, atol=1e-14
        )

    def test_component_basis_is_reproduced(self):
        # the real and imaginary parts of the Fourier vector of k, in
        # the x slots or the y slots, span the piece of k
        for k in mode_index_set(3):
            e = _mode_vector(*k, 3)
            for part in (e.real, e.imag)[:1 if k == (0, 0) else 2]:
                for slot in ((1.0, 0.0), (0.0, 1.0)):
                    v = np.kron(part, slot)
                    assert np.allclose(plane_projection(v, k, 3), v, rtol=0.0, atol=1e-12)

    def test_components_are_orthogonal(self, rng):
        z = rng.standard_normal(18)
        for k in mode_index_set(3):
            pk = plane_projection(z, k, 3)
            for q in mode_index_set(3):
                if q != k:
                    overlap = plane_projection(pk, q, 3)
                    assert np.max(np.abs(overlap)) < 1e-12

    def test_completeness(self, rng):
        for n in (3, 5):
            z = rng.standard_normal(2 * n * n)
            total = sum(plane_projection(z, k, n) for k in mode_index_set(n))
            assert np.max(np.abs(total - z)) < 1e-12


class TestFixModes:
    def test_diagonal_generator(self):
        assert set(fix_modes((1, 1), 3)) == {(0, 0), (2, 1)}

    def test_column_generator(self):
        assert set(fix_modes((0, 1), 3)) == {(0, 0), (1, 0)}

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_fixed_dimension_is_n(self, n):
        for g in group_elements(n):
            if g == (0, 0):
                continue
            assert sum(1 if k == (0, 0) else 2 for k in fix_modes(g, n)) == n


class TestIsotropySubgroup:
    def test_canonical_generator(self):
        assert IsotropySubgroup.cyclic((2, 2), 3) == IsotropySubgroup.cyclic((1, 1), 3)
        assert IsotropySubgroup.cyclic((0, 2), 3).generator == (0, 1)

    def test_labels(self):
        assert IsotropySubgroup.full(3).label() == "Gamma"
        assert IsotropySubgroup.trivial(5).label() == "1"
        sub = IsotropySubgroup.cyclic((1, 2), 3)
        assert sub.label() == "Z(1,2)"
        assert sub.contains((2, 4)) and not sub.contains((1, 0))

    def test_rejects_zero_generator(self):
        with pytest.raises(ClassificationError):
            IsotropySubgroup.cyclic((0, 0), 3)
        for g in [(3, 0), (0, -3), (6, 9), None]:
            with pytest.raises(ClassificationError):
                IsotropySubgroup("cyclic", 3, g)

    @pytest.mark.parametrize("kind", ["full", "trivial"])
    def test_full_and_trivial_take_no_generator(self, kind):
        with pytest.raises(ClassificationError):
            IsotropySubgroup(kind, 3, (1, 0))

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_constructor_stores_the_canonical_generator(self, n):
        # every generator of one subgroup, reduced or not, gives one
        # descriptor, label and hash
        for r in range(-n, 2 * n):
            for s in range(-n, 2 * n):
                if r % n == s % n == 0:
                    continue
                sub = IsotropySubgroup("cyclic", n, (r, s))
                assert sub == IsotropySubgroup.cyclic((r, s), n)
                assert sub.generator == min(((m * r) % n, (m * s) % n) for m in range(1, n))
                assert hash(sub) == hash(IsotropySubgroup.cyclic(sub.generator, n))
        assert IsotropySubgroup("cyclic", 5, (2, 4)).label() == "Z(1,2)"
        assert IsotropySubgroup("cyclic", 3, (4, 0)).contains((1, 0))
        assert not IsotropySubgroup("cyclic", 3, (4, 0)).contains((0, 1))

    def test_fix_projection_idempotent_and_invariant(self, rng):
        sub = IsotropySubgroup.cyclic((1, 1), 3)
        z = rng.standard_normal(18)
        p = fix_projection(z, sub)
        assert np.allclose(fix_projection(p, sub), p, rtol=0.0, atol=1e-14)
        for g in sub.elements():
            assert np.allclose(act(g, p, 3), p, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_fix_projection_exactly_fixed(self, rng, n):
        subs = [IsotropySubgroup.full(n), IsotropySubgroup.trivial(n)]
        subs += [IsotropySubgroup.cyclic(g, n)
                 for g in [(1, 0)] + [(k, 1) for k in range(n)]]
        for sub in subs:
            p = fix_projection(rng.standard_normal(2 * n * n), sub)
            for g in sub.elements():
                assert np.array_equal(act(g, p, n), p)


class TestIsotropyOf:
    def test_synchronized_state(self):
        z = np.empty(18)
        z[0::2] = 0.9
        z[1::2] = 0.1
        assert isotropy_of(z).kind == "full"

    def test_plane_plus_constant(self, rng):
        # generic point of the (2,1) plane plus a constant offset is
        # fixed exactly by the (1,1) diagonal subgroup
        i, j = np.indices((3, 3))
        angle = 2.0 * np.pi * ((2 * i + j) % 3) / 3.0
        x = 0.3 + 0.8 * np.cos(angle) - 0.5 * np.sin(angle)
        sub = isotropy_of(from_grids(x, np.zeros((3, 3))))
        assert sub == IsotropySubgroup.cyclic((1, 1), 3)

    def test_random_state_trivial(self, rng):
        assert isotropy_of(rng.standard_normal(18)).kind == "trivial"

    @pytest.mark.parametrize("n", [3, 5, 7, 11])
    def test_recovers_every_subgroup(self, rng, n):
        for sub in all_subgroups(n):
            assert isotropy_of(fix_projection(rng.standard_normal(2 * n * n), sub)) == sub

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_tests_only_the_cyclic_generators(self, rng, n, monkeypatch):
        calls = []
        real_act = symmetry.act

        def counting_act(g, z, m=None):
            calls.append(g)
            return real_act(g, z, m)

        monkeypatch.setattr(symmetry, "act", counting_act)
        isotropy_of(rng.standard_normal(2 * n * n))
        assert len(calls) == n + 1


def all_subgroups(n):
    """Every subgroup of Z_N x Z_N, the N+1 cyclic ones found by brute force."""
    cyclic = {IsotropySubgroup.cyclic(g, n) for g in group_elements(n) if g != (0, 0)}
    assert len(cyclic) == n + 1
    return [IsotropySubgroup.trivial(n), IsotropySubgroup.full(n)] + sorted(
        cyclic, key=lambda sub: sub.generator)


@pytest.mark.parametrize("n", [3, 5, 7, 11])
def test_contains_matches_element_list(n):
    for sub in all_subgroups(n):
        members = set(sub.elements())
        for r in range(-n, 2 * n):
            for s in range(-n, 2 * n):
                assert sub.contains((r, s)) == ((r % n, s % n) in members)


class TestPredictHopfSymmetries:
    def test_synchronized_mode(self):
        pred = predict_hopf_symmetries((0, 0), 3)
        assert pred.spatial.kind == "full" and pred.fixing.kind == "full"
        assert all(v == 0 for v in pred.phases.values())

    def test_nonzero_mode_from_full_symmetry(self):
        pred = predict_hopf_symmetries((1, 0), 3)
        assert pred.spatial.kind == "full"
        assert pred.fixing == IsotropySubgroup.cyclic((0, 1), 3)
        assert pred.phases == {(1, 0): Fraction(1, 3), (0, 1): Fraction(0)}

    def test_fixing_subgroup_fixes_the_mode_plane(self):
        for n in (3, 5):
            for k in mode_index_set(n):
                if k == (0, 0):
                    continue
                pred = predict_hopf_symmetries(k, n)
                for g in pred.fixing.elements():
                    assert (k[0] * g[0] + k[1] * g[1]) % n == 0

    def test_phases_follow_generator_exponents(self):
        pred = predict_hopf_symmetries((2, 1), 3)
        assert pred.phases == {(1, 0): Fraction(2, 3), (0, 1): Fraction(1, 3)}

    def test_k_and_minus_k_give_one_K(self):
        # the two orientations of one plane: one fixing subgroup, and
        # time shifts that are complements of each other
        for n in (3, 5):
            for r in range(n):
                for s in range(n):
                    pred = predict_hopf_symmetries((r, s), n)
                    mirror = predict_hopf_symmetries((-r, -s), n)
                    assert mirror.fixing == pred.fixing
                    assert mirror.spatial == pred.spatial
                    for g, f in pred.phases.items():
                        assert (f + mirror.phases[g]) % 1 == 0

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_every_canonical_mode(self, n):
        # K is the kernel of the action on the plane of k, and the shift
        # of each generator is its exponent k_i / N; at N = 3 the values
        # are written out
        written_out = {
            (0, 0): ("Gamma", Fraction(0), Fraction(0)),
            (0, 1): ("Z(1,0)", Fraction(0), Fraction(1, 3)),
            (1, 0): ("Z(0,1)", Fraction(1, 3), Fraction(0)),
            (1, 1): ("Z(1,2)", Fraction(1, 3), Fraction(1, 3)),
            (2, 1): ("Z(1,1)", Fraction(2, 3), Fraction(1, 3)),
        }
        for k in mode_index_set(n):
            pred = predict_hopf_symmetries(k, n)
            kernel = {g for g in group_elements(n) if (k[0] * g[0] + k[1] * g[1]) % n == 0}
            assert pred.spatial == IsotropySubgroup.full(n)
            assert set(pred.fixing.elements()) == kernel
            assert pred.phases == {(1, 0): Fraction(k[0], n), (0, 1): Fraction(k[1], n)}
            if n == 3:
                label, f1, f2 = written_out[k]
                assert pred.fixing.label() == label
                assert pred.phases == {(1, 0): f1, (0, 1): f2}
        assert n != 3 or set(mode_index_set(n)) == set(written_out)
