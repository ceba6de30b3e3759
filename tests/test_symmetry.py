"""Torus group action, invariant planes, isotropy bookkeeping."""

from fractions import Fraction

import numpy as np
import pytest

from fhn_torus import (
    ClassificationError,
    IsotropySubgroup,
    ModeIndex,
    act,
    canonical_mode,
    embed_pattern,
    fix_modes,
    fix_projection,
    from_grids,
    group_elements,
    isotropy_of,
    isotypic_component,
    mode_basis,
    mode_coordinate,
    mode_index_set,
    predict_hopf_symmetries,
    project_isotypic,
    to_grids,
)
from fhn_torus import symmetry
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

    def test_permutation_is_involution_free_bookkeeping(self, rng):
        # acting twice by g equals indexing twice by the permutation
        z = rng.standard_normal(18)
        perm = state_permutation((2, 1), 3)
        assert np.array_equal(act((2, 1), z, 3), z[perm])


class TestModeIndexSet:
    def test_n3_catalogue(self):
        kset = {k.as_tuple() for k in mode_index_set(3)}
        assert kset == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)}
        assert sum(k.dim for k in mode_index_set(3)) == 9

    def test_n5_count_and_total(self):
        modes = mode_index_set(5)
        assert len(modes) == 13
        assert sum(k.dim for k in modes) == 25

    @pytest.mark.parametrize("n", [3, 5, 7, 11])
    def test_dimensions_tile_the_lattice(self, n):
        assert sum(k.dim for k in mode_index_set(n)) == n * n

    def test_planes_cover_all_frequencies_once(self):
        # every (r, s) belongs to exactly one canonical plane
        for n in (3, 5, 7):
            seen = {}
            for r in range(n):
                for s in range(n):
                    seen.setdefault(canonical_mode(r, s, n).as_tuple(), set()).add((r, s))
            assert set(seen) == {k.as_tuple() for k in mode_index_set(n)}
            assert sum(len(v) for v in seen.values()) == n * n

    def test_canonical_mode_folds_conjugates(self):
        assert canonical_mode(2, 2, 3) == ModeIndex(1, 1)
        assert canonical_mode(0, 2, 3) == ModeIndex(0, 1)
        assert canonical_mode(1, 2, 3) == ModeIndex(2, 1)
        assert canonical_mode(4, 0, 5) == ModeIndex(1, 0)


class TestModeBasis:
    def test_constant_mode(self):
        (pat,) = mode_basis(ModeIndex(0, 0), 3)
        assert np.allclose(pat, 1.0 / 3.0, rtol=0.0, atol=1e-15)

    def test_row_mode_constant_in_first_index(self):
        for pat in mode_basis(ModeIndex(0, 1), 3):
            grid = pat.reshape(3, 3).T
            assert np.allclose(grid, grid[0], rtol=0.0, atol=1e-15)

    def test_orthonormal(self):
        for k in mode_index_set(5):
            pats = mode_basis(k, 5)
            G = np.array([[float(p @ q) for q in pats] for p in pats])
            assert np.allclose(G, np.eye(len(pats)), rtol=0.0, atol=1e-12)

    def test_rotation_property(self, rng):
        # shifting a pattern multiplies its complex coordinate by the
        # root of unity with exponent g.k
        n = 5
        for k in mode_index_set(n):
            z = embed_pattern(rng.standard_normal(25), np.zeros(25), n)
            for g in [(1, 0), (0, 1), (2, 3)]:
                before = mode_coordinate(z[0::2], k, n)
                after = mode_coordinate(act(g, z, n)[0::2], k, n)
                phase = np.exp(2j * np.pi * (g[0] * k.k1 + g[1] * k.k2) / n)
                assert abs(after - phase * before) < 1e-12


def fft_projection(z, k, n):
    """Projection onto the isotypic piece of k by keeping the 2-D DFT bins
    (k1, k2) and (-k1, -k2) of each lattice half."""
    x, y = to_grids(z, n)
    mask = np.zeros((n, n))
    mask[k.k1 % n, k.k2 % n] = 1.0
    mask[(-k.k1) % n, (-k.k2) % n] = 1.0

    def filt(g):
        return np.real(np.fft.ifft2(np.fft.fft2(g) * mask))

    return from_grids(filt(x), filt(y))


class TestPhaseConvention:
    @pytest.mark.parametrize("n", [3, 5])
    def test_coordinate_of_zero_based_wave(self, n):
        z = 0.8 - 0.35j
        for k in mode_index_set(n):
            if k.dim == 1:
                continue
            x = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    x[i, j] = np.real(z * np.exp(2j * np.pi * (i * k.k1 + j * k.k2) / n))
            pattern = from_grids(x, np.zeros((n, n)))[0::2]
            assert abs(mode_coordinate(pattern, k, n) - z) <= 1e-12

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_projection_matches_fft_oracle(self, rng, n):
        z = rng.standard_normal(2 * n * n)
        for k in mode_index_set(n):
            got = project_isotypic(z, k, n)
            assert np.max(np.abs(got - fft_projection(z, k, n))) <= 1e-13


class TestIsotypicProjection:
    def test_synchronized_lives_in_constant_component(self):
        z = np.empty(18)
        z[0::2] = 1.3
        z[1::2] = -0.2
        assert np.allclose(project_isotypic(z, ModeIndex(0, 0), 3), z, rtol=0.0, atol=1e-14)
        assert np.allclose(
            project_isotypic(z, ModeIndex(1, 1), 3), 0.0, rtol=0.0, atol=1e-14
        )

    def test_component_basis_is_reproduced(self):
        for k in mode_index_set(3):
            for v in isotypic_component(k, 3).basis:
                assert np.allclose(project_isotypic(v, k, 3), v, rtol=0.0, atol=1e-12)

    def test_components_are_orthogonal(self, rng):
        z = rng.standard_normal(18)
        for k in mode_index_set(3):
            pk = project_isotypic(z, k, 3)
            for q in mode_index_set(3):
                if q != k:
                    overlap = project_isotypic(pk, q, 3)
                    assert np.max(np.abs(overlap)) < 1e-12

    def test_completeness(self, rng):
        for n in (3, 5):
            z = rng.standard_normal(2 * n * n)
            total = sum(project_isotypic(z, k, n) for k in mode_index_set(n))
            assert np.max(np.abs(total - z)) < 1e-12


class TestFixModes:
    def test_diagonal_generator(self):
        assert {k.as_tuple() for k in fix_modes((1, 1), 3)} == {(0, 0), (2, 1)}

    def test_column_generator(self):
        assert {k.as_tuple() for k in fix_modes((0, 1), 3)} == {(0, 0), (1, 0)}

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_fixed_dimension_is_n(self, n):
        for g in group_elements(n):
            if g == (0, 0):
                continue
            assert sum(k.dim for k in fix_modes(g, n)) == n


class TestIsotropySubgroup:
    def test_canonical_generator(self):
        assert IsotropySubgroup.cyclic((2, 2), 3) == IsotropySubgroup.cyclic((1, 1), 3)
        assert IsotropySubgroup.cyclic((0, 2), 3).generator == (0, 1)

    def test_orders_and_labels(self):
        assert IsotropySubgroup.full(3).order() == 9
        assert IsotropySubgroup.full(3).label() == "Gamma"
        assert IsotropySubgroup.trivial(5).label() == "1"
        sub = IsotropySubgroup.cyclic((1, 2), 3)
        assert sub.order() == 3
        assert sub.label() == "Z(1,2)"
        assert sub.contains((2, 4)) and not sub.contains((1, 0))

    def test_rejects_zero_generator(self):
        with pytest.raises(ClassificationError):
            IsotropySubgroup.cyclic((0, 0), 3)

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
        c, s = mode_basis(ModeIndex(2, 1), 3)
        xpat = 0.3 + 0.8 * c - 0.5 * s
        z = embed_pattern(xpat, np.zeros(9), 3)
        sub = isotropy_of(z)
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
        pred = predict_hopf_symmetries(IsotropySubgroup.full(3), ModeIndex(0, 0))
        assert pred.spatial.kind == "full" and pred.fixing.kind == "full"
        assert all(v == 0 for v in pred.phases.values())

    def test_nonzero_mode_from_full_symmetry(self):
        pred = predict_hopf_symmetries(IsotropySubgroup.full(3), ModeIndex(1, 0))
        assert pred.spatial.kind == "full"
        assert pred.fixing == IsotropySubgroup.cyclic((0, 1), 3)
        assert pred.phases == {(1, 0): Fraction(1, 3), (0, 1): Fraction(0)}

    def test_perp_generator_fixes_the_mode_plane(self):
        for n in (3, 5):
            for k in mode_index_set(n):
                if k.as_tuple() == (0, 0):
                    continue
                pred = predict_hopf_symmetries(IsotropySubgroup.full(n), k)
                for g in pred.fixing.elements():
                    assert k.dot(g) % n == 0

    def test_phases_follow_generator_exponents(self):
        pred = predict_hopf_symmetries(IsotropySubgroup.full(3), ModeIndex(2, 1))
        assert pred.phases == {(1, 0): Fraction(2, 3), (0, 1): Fraction(1, 3)}

    def test_trivial_equilibrium_symmetry(self):
        pred = predict_hopf_symmetries(IsotropySubgroup.trivial(3), ModeIndex(1, 0))
        assert pred.spatial.kind == "trivial" and pred.fixing.kind == "trivial"

    def test_rejects_non_canonical_mode(self):
        with pytest.raises(ClassificationError):
            predict_hopf_symmetries(IsotropySubgroup.full(3), ModeIndex(2, 2))
