import numpy as np
import pytest

from oracles import (
    assembled_eigenvectors,
    brute_force_spreading_width,
    w_perturbative_dense,
    w_perturbative_dense_terms,
)
from specfrag.errors import ConfigurationError, InputError, NumericalError
from specfrag.henon_heiles import HHConfig, build_h, build_v, enumerate_basis
from specfrag.linalg import ShellGroup, ShellPartition, SymmetricMatrix, eigh, random_block_unitary
from specfrag.metrics import (
    StateSelection,
    StrengthFunction,
    chaoticity,
    critical_parameter,
    invariance_gap,
    select_eigenstates,
    spreading_width,
    strength_function,
    w_exact,
    w_perturbative,
    w_perturbative_terms,
)


def hh_system(num_shells=12, lam=1.0):
    cfg = HHConfig(lam=lam, num_shells=num_shells)
    _, part = enumerate_basis(cfg)
    d = eigh(build_h(cfg))
    return cfg, part, d


@pytest.mark.parametrize("num_shells", [30, 45])
def test_w_pt_over_hbar_is_the_same_at_half_hbar(num_shells):
    # V scales as hbar^(3/2) and the shell gaps as hbar, so W_pt(N) / hbar
    # depends on N alone; checked below the basis edge, with no eigh
    ratios = []
    for hbar in (0.01, 0.005):
        cfg = HHConfig(hbar=hbar, num_shells=num_shells)
        _, part = enumerate_basis(cfg)
        v = build_v(cfg)
        ratios.append([w_perturbative(v, part, n, cfg.lam) / hbar
                       for n in range(num_shells - 3)])
    np.testing.assert_allclose(ratios[0], ratios[1], rtol=1e-12, atol=0)


class TestStrengthFunction:
    def test_unperturbed_indicator(self):
        _, part, d = hh_system(lam=0.0)
        shell = part.group(3).indices
        sf = strength_function(d, shell)
        inside = sf.weights[list(shell)]
        np.testing.assert_allclose(inside, 0.25, atol=1e-14)
        outside = np.delete(sf.weights, list(shell))
        assert np.abs(outside).max() <= 1e-14

    def test_normalization_every_shell(self):
        _, part, d = hh_system()
        for g in part.groups:
            sf = strength_function(d, g.indices)
            assert abs(sf.weights.sum() - 1.0) <= 1e-10

    def test_rejects_empty_shell(self):
        _, _, d = hh_system(num_shells=5)
        with pytest.raises(InputError):
            strength_function(d, [])

    def test_local_variant(self):
        _, _, d = hh_system(num_shells=6)
        sf = strength_function(d, [4])
        np.testing.assert_array_equal(sf.weights, assembled_eigenvectors(d)[4, :] ** 2)
        assert abs(sf.weights.sum() - 1.0) <= 1e-10

    def test_visible_fragmentation_midway(self):
        # by shell 7 the perturbation spreads the shell over many levels
        _, part, d = hh_system(num_shells=14)
        sf = strength_function(d, part.group(7).indices)
        assert int((sf.weights >= 0.05).sum()) >= 3


class TestSpreadingWidth:
    def test_single_spike_is_zero(self):
        sf = StrengthFunction(
            eigen_energies=np.array([1.0, 2.0, 3.0]),
            weights=np.array([0.0, 1.0, 0.0]),
        )
        assert spreading_width(sf) == 0.0

    def test_half_on_one_level(self):
        sf = StrengthFunction(
            eigen_energies=np.array([0.0, 1.0]),
            weights=np.array([0.5, 0.5]),
        )
        assert spreading_width(sf) == 0.0

    def test_three_level_enumeration(self):
        sf = StrengthFunction(
            eigen_energies=np.array([0.0, 1.0, 2.0]),
            weights=np.array([0.3, 0.3, 0.4]),
        )
        width, window = spreading_width(sf, return_window=True)
        assert width == 1.0
        assert window == (0, 1)  # lowest-energy window among equal widths

    def test_rejects_unnormalized(self):
        sf = StrengthFunction(
            eigen_energies=np.array([0.0, 1.0]),
            weights=np.array([0.3, 0.3]),
        )
        with pytest.raises(InputError):
            spreading_width(sf)

    def test_rejects_descending_energies(self):
        sf = StrengthFunction(
            eigen_energies=np.array([1.0, 0.0]),
            weights=np.array([0.5, 0.5]),
        )
        with pytest.raises(InputError):
            spreading_width(sf)

    def test_rejects_shape_mismatch(self):
        sf = StrengthFunction(
            eigen_energies=np.array([0.0, 1.0, 2.0]),
            weights=np.array([0.5, 0.5]),
        )
        with pytest.raises(InputError):
            spreading_width(sf)

    @pytest.mark.parametrize(
        "energies, weights",
        [
            ([0.0, 1.0, 2.0], [0.5, np.nan, 0.5]),
            ([0.0, np.nan, 2.0], [0.3, 0.3, 0.4]),
            ([0.0, 1.0, np.inf], [0.3, 0.3, 0.4]),
            ([0.0, 1.0, 2.0], [np.inf, 0.5, 0.5]),
        ],
        ids=["nan-weight", "nan-energy", "inf-energy", "inf-weight"],
    )
    def test_rejects_non_finite(self, energies, weights):
        sf = StrengthFunction(
            eigen_energies=np.array(energies), weights=np.array(weights)
        )
        with pytest.raises(InputError, match="finite"):
            spreading_width(sf)

    def test_rejects_negative_weights(self):
        # sums to 1, and without the check the sweep reports width 0
        sf = StrengthFunction(
            eigen_energies=np.array([0.0, 1.0, 2.0]),
            weights=np.array([-0.5, 1.0, 0.5]),
        )
        with pytest.raises(InputError, match="non-negative"):
            spreading_width(sf)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            size = int(rng.integers(1, 51))
            e = np.sort(rng.uniform(0.0, 10.0, size))
            p = rng.uniform(0.0, 1.0, size)
            if rng.uniform() < 0.2:
                p[rng.integers(0, size)] += 5.0  # dominant spike
            p /= p.sum()
            sf = StrengthFunction(eigen_energies=e, weights=p)
            assert spreading_width(sf) == brute_force_spreading_width(e, p)


class TestChaoticity:
    def test_zero_width(self):
        r = chaoticity(0.0, 0.01)
        assert r.kappa == 0.0 and r.gamma_spr == 0.0 and r.d0 == 0.01

    def test_ratio(self):
        assert chaoticity(0.02, 0.01).kappa == pytest.approx(2.0)

    def test_rejects_bad_d0(self):
        with pytest.raises(InputError):
            chaoticity(0.1, 0.0)
        with pytest.raises(InputError):
            chaoticity(0.1, -1.0)

    def test_kepler_neighbor_gap_value(self):
        d0 = (-0.5 / 11 ** 2) - (-0.5 / 10 ** 2)
        assert d0 == pytest.approx(8.6777e-4, abs=1e-8)


class TestSelection:
    def test_modes_satisfy_their_definitions(self):
        _, part, d = hh_system()
        for g in part.groups[4:9]:
            shell = list(g.indices)
            k = len(shell)
            proj = (assembled_eigenvectors(d)[shell, :] ** 2).sum(axis=0)

            top = select_eigenstates(d, shell, StateSelection.TOP_PROJECTION)
            best_k = np.sort(np.argsort(-proj, kind="stable")[:k])
            np.testing.assert_array_equal(top, best_k)

            win = select_eigenstates(
                d, shell, StateSelection.ENERGY_WINDOW, shell_energy=g.energy
            )
            nearest = np.sort(
                np.argsort(np.abs(d.eigenvalues - g.energy), kind="stable")[:k]
            )
            np.testing.assert_array_equal(win, nearest)

            run = select_eigenstates(d, shell, StateSelection.PROJECTION_WINDOW)
            assert np.array_equal(run, np.arange(run[0], run[0] + k))
            run_sums = [proj[s : s + k].sum() for s in range(d.dim - k + 1)]
            assert proj[run].sum() == pytest.approx(max(run_sums), rel=1e-12)

    def test_energy_window_requires_energy(self):
        _, part, d = hh_system(num_shells=6)
        with pytest.raises(ConfigurationError):
            select_eigenstates(d, part.group(2).indices, StateSelection.ENERGY_WINDOW)

    def test_rejects_oversized_shell(self):
        _, _, d = hh_system(num_shells=4)
        with pytest.raises(ConfigurationError):
            select_eigenstates(d, list(range(d.dim + 1)))

    def test_rejects_empty(self):
        _, _, d = hh_system(num_shells=4)
        with pytest.raises(InputError):
            select_eigenstates(d, [])


class TestWExact:
    def test_zero_coupling_exactly_zero(self):
        _, part, d = hh_system(lam=0.0)
        for g in part.groups:
            for mode in StateSelection:
                assert (
                    w_exact(d, g.indices, mode, shell_energy=g.energy) == 0.0
                )

    def test_positive_once_coupled(self):
        _, part, d = hh_system()
        g = part.group(5)
        w = w_exact(d, g.indices, shell_energy=g.energy)
        assert 0.0 < w < 1.0


class TestWPerturbative:
    def test_zero_lambda(self):
        cfg = HHConfig(num_shells=8)
        _, part = enumerate_basis(cfg)
        v = build_v(cfg)
        assert w_perturbative(v, part, 3, 0.0) == 0.0

    def test_exactly_quadratic(self):
        cfg = HHConfig(num_shells=10)
        _, part = enumerate_basis(cfg)
        v = build_v(cfg)
        w1 = w_perturbative(v, part, 4, 1.0)
        w2 = w_perturbative(v, part, 4, 2.0)
        assert abs(w2 - 4.0 * w1) <= 1e-12 * abs(w2)

    def test_selection_rule_terms_vanish(self):
        cfg = HHConfig(num_shells=12)
        _, part = enumerate_basis(cfg)
        v = build_v(cfg)
        target = 6
        terms = dict(w_perturbative_terms(v, part, target, 1.0))
        for label, value in terms.items():
            if abs(label - target) in (1, 3):
                assert value > 0.0
            else:
                assert value == 0.0

    def test_nonnegative_and_meaningful(self):
        cfg = HHConfig(num_shells=12)
        _, part = enumerate_basis(cfg)
        v = build_v(cfg)
        values = [w_perturbative(v, part, n, 1.0) for n in range(1, 8)]
        assert all(w >= 0.0 for w in values)
        assert values == sorted(values)  # grows with shell number

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_term_raises(self):
        # lam^2 overflows to inf, and inf * 0.0 to NaN on the zero terms
        cfg = HHConfig(num_shells=8)
        _, part = enumerate_basis(cfg)
        v = build_v(cfg)
        for w in (w_perturbative, w_perturbative_terms):
            with pytest.raises(NumericalError, match="the W_pt term of shell 0 is not finite"):
                w(v, part, 3, 1e200)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_terms_summing_past_the_float_range_raise(self):
        # two terms of 1e308 each, the largest float being 1.8e308
        part = ShellPartition(tuple(ShellGroup(n, (n,), float(n)) for n in range(3)))
        v = SymmetricMatrix([[0.0, 1e154, 0.0], [1e154, 0.0, 1e154], [0.0, 1e154, 0.0]])
        assert [t for _, t in w_perturbative_terms(v, part, 1, 1.0)] == [1e308, 1e308]
        with pytest.raises(NumericalError, match="W_pt is not finite"):
            w_perturbative(v, part, 1, 1.0)

    @pytest.mark.parametrize("order", ["interleaved", "shuffled"])
    def test_shells_out_of_index_order_sum_as_dense_oracle(self, order):
        # no shell's states are one run of indices, so no shell's rows of
        # V's slab are one run of rows
        rng = np.random.default_rng(11)
        a = rng.standard_normal((10, 10))
        v = SymmetricMatrix(a + a.T)
        if order == "interleaved":  # state i in shell i % 4
            shells = [list(range(n, 10, 4)) for n in range(4)]
        else:  # shells of 1, 2, 3 and 4 states drawn at random
            shells = np.split(rng.permutation(10), [1, 3, 6])
        part = ShellPartition(tuple(ShellGroup(n, tuple(int(i) for i in s), 0.5 * n)
                                    for n, s in enumerate(shells)))
        for target in part.labels():
            want = w_perturbative_dense_terms(v.entries, part, target, 0.7)
            got = w_perturbative_terms(v, part, target, 0.7)
            assert [(n, t.hex()) for n, t in got] == [(n, t.hex()) for n, t in want]
            assert (w_perturbative(v, part, target, 0.7).hex()
                    == w_perturbative_dense(v.entries, part, target, 0.7).hex())


class TestInvariance:
    def test_identity_rotation_changes_nothing(self):
        cfg = HHConfig(num_shells=8)
        _, part = enumerate_basis(cfg)
        v = build_v(cfg)
        rotated = SymmetricMatrix(np.eye(part.dim).T @ v.entries @ np.eye(part.dim))
        assert w_perturbative(rotated, part, 3, 1.0) == w_perturbative(v, part, 3, 1.0)

    def test_seeded_gaps_tiny(self):
        cfg = HHConfig(num_shells=10)
        _, part = enumerate_basis(cfg)
        v = build_v(cfg)
        w0 = w_perturbative(v, part, 5, 1.0)
        for seed in (1, 2, 3):
            gap = invariance_gap(v, part, 5, 1.0, seed=seed)
            assert gap <= 1e-10 * w0

    def test_per_shell_terms_invariant(self):
        cfg = HHConfig(num_shells=10)
        _, part = enumerate_basis(cfg)
        v = build_v(cfg)
        before = dict(w_perturbative_terms(v, part, 5, 1.0))
        u = random_block_unitary(part, seed=77)
        rotated = SymmetricMatrix(u.T @ v.entries @ u)
        after = dict(w_perturbative_terms(rotated, part, 5, 1.0))
        assert before.keys() == after.keys()
        for label in before:
            ref = max(abs(before[label]), 1e-300)
            assert abs(after[label] - before[label]) <= 1e-10 * max(ref, 1.0)


class TestCriticalParameter:
    def test_linear_interpolation(self):
        curve = [(0.08, 0.45), (0.09, 0.55)]
        r = critical_parameter(curve, axis="energy")
        assert r.critical == pytest.approx(0.085, rel=1e-12)
        assert r.bracket == (0.08, 0.09)
        lo, hi = r.bracket
        vals = dict(curve)
        assert (vals[lo] - 0.5) * (vals[hi] - 0.5) <= 0.0

    def test_no_crossing(self):
        r = critical_parameter([(1.0, 0.3), (2.0, 0.3), (3.0, 0.3)], axis="x")
        assert r.critical is None
        assert r.bracket is None

    def test_crossing_whose_distance_product_underflows(self):
        # (1e-200 - 0) * (-1e-200 - 0) is -0.0, not negative
        r = critical_parameter([(0.0, 1e-200), (1.0, -1e-200)], threshold=0.0, axis="x")
        assert r.bracket == (0.0, 1.0)
        assert r.critical == 0.5

    def test_exact_threshold_sample(self):
        r = critical_parameter([(1.0, 0.2), (2.0, 0.5), (3.0, 0.9)], axis="x")
        assert r.critical == 2.0
        assert r.bracket == (2.0, 2.0)

    def test_descending_axis_supported(self):
        r = critical_parameter([(3.0, 0.2), (2.0, 0.4), (1.0, 0.7)], axis="x")
        assert r.critical is not None
        assert 1.0 < r.critical < 2.0

    def test_rejects_non_monotone(self):
        with pytest.raises(InputError):
            critical_parameter([(1.0, 0.2), (3.0, 0.4), (2.0, 0.7)], axis="x")

    def test_rejects_short_curve(self):
        with pytest.raises(InputError):
            critical_parameter([(1.0, 0.2)], axis="x")

    @pytest.mark.parametrize(
        "curve",
        [
            [(0.0, 0.1), (1.0, np.nan), (2.0, 0.9)],
            [(0.0, 0.1), (1.0, np.inf)],
            [(0.0, 0.1), (np.inf, 0.9)],
            [(np.nan, 0.1), (1.0, 0.9)],
        ],
        ids=["nan-value", "inf-value", "inf-axis", "nan-axis"],
    )
    def test_rejects_non_finite(self, curve):
        with pytest.raises(InputError, match="finite"):
            critical_parameter(curve, axis="x")

    def test_first_crossing_reported(self):
        curve = [(1.0, 0.4), (2.0, 0.6), (3.0, 0.4), (4.0, 0.6)]
        r = critical_parameter(curve, axis="x")
        assert r.critical == pytest.approx(1.5)


def test_partition_rejects_coincident_shell_energies():
    # degenerate denominators cannot arise from a valid partition
    from specfrag.linalg import ShellGroup, ShellPartition

    with pytest.raises(InputError):
        ShellPartition(
            groups=(
                ShellGroup(label=0, indices=(0,), energy=1.0),
                ShellGroup(label=1, indices=(1,), energy=1.0),
            )
        )
