import math
import re
import tracemalloc

import numpy as np
import pytest

import oracles
import specfrag.kepler as kepler_mod
from specfrag.errors import ConfigurationError, InputError, NumericalError
from specfrag.henon_heiles import HHConfig
from specfrag.kepler import (
    KeplerConfig,
    _rho2_entries,
    build_h,
    build_rho2,
    default_gamma_grid,
    enumerate_parabolic_basis,
    scaled_energy,
    shell_energy,
)
from specfrag.linalg import SymmetricMatrix, eigh


def small_cfg(max_n, **kw):
    kw.setdefault("target_shell", min(2, max_n))
    kw.setdefault("gamma_grid", (1e-3,))
    return KeplerConfig(max_n=max_n, **kw)


def test_default_basis_counts():
    quanta, part = enumerate_parabolic_basis(KeplerConfig())
    assert len(quanta) == 210
    assert len(part.groups) == 20
    assert len(part.group(10).indices) == 10


def test_single_shell():
    quanta, part = enumerate_parabolic_basis(small_cfg(1, target_shell=1))
    assert quanta.tolist() == [[0, 0]]
    assert part.groups[0].energy == -0.5


def test_enumeration_order_and_energies():
    quanta, part = enumerate_parabolic_basis(small_cfg(5))
    ns = (quanta.sum(axis=1) + 1).tolist()
    assert ns == sorted(ns)
    for g in part.groups:
        n1s = quanta[list(g.indices), 0].tolist()
        assert n1s == list(range(g.label))
        assert g.energy == pytest.approx(-0.5 / g.label ** 2)
    energies = [g.energy for g in part.groups]
    assert all(a < b < 0 for a, b in zip(energies, energies[1:]))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        KeplerConfig(max_n=0)
    with pytest.raises(ConfigurationError):
        KeplerConfig(target_shell=25)  # beyond max_n
    with pytest.raises(ConfigurationError):
        KeplerConfig(gamma_grid=(0.0,))
    with pytest.raises(ConfigurationError):
        KeplerConfig(gamma_grid=(-1e-3,))
    with pytest.raises(ConfigurationError):
        KeplerConfig(gamma_grid=(float("inf"),))


def test_default_gamma_grid_follows_target_shell():
    # the default scan spans the scaled-energy window of the shell studied
    assert KeplerConfig(max_n=14, target_shell=6).gamma_grid == default_gamma_grid(6)
    assert KeplerConfig().gamma_grid == default_gamma_grid(10)
    assert KeplerConfig(target_shell=6, gamma_grid=[1e-3]).gamma_grid == (1e-3,)


@pytest.mark.parametrize(
    "field, value",
    [("max_n", math.nan), ("max_n", math.inf), ("target_shell", math.nan),
     ("target_shell", math.inf)],
)
def test_config_rejects_non_finite_sizes(field, value):
    with pytest.raises(ConfigurationError, match=field):
        KeplerConfig(**{field: value})


@pytest.mark.parametrize("field", ["max_n", "target_shell"])
def test_config_rejects_boolean_sizes(field):
    # True would otherwise read as 1, which either field accepts here
    with pytest.raises(ConfigurationError, match=field):
        KeplerConfig(**{"max_n": 1, "target_shell": 1, field: True})


@pytest.mark.parametrize("make, field, value", [
    (HHConfig, "num_shells", 30.5), (HHConfig, "num_shells", "30"),
    (KeplerConfig, "max_n", 30.5), (KeplerConfig, "max_n", "30"),
    (KeplerConfig, "target_shell", 2.5), (KeplerConfig, "target_shell", "2"),
])
def test_config_rejects_fractional_and_string_sizes(make, field, value):
    # neither truncated nor parsed; the message names the field and shows
    # the value as given, a string in its quotes
    with pytest.raises(ConfigurationError, match=rf"^{field} .* got {re.escape(repr(value))}$"):
        make(**{field: value})


@pytest.mark.parametrize("grid", [(True,), (0.01, "0.02"), 0.01, "0.01"],
                         ids=["boolean", "string-item", "number", "string"])
def test_config_rejects_non_number_gamma_grid(grid):
    # True would otherwise run as 1.0, and a lone number or string is no grid
    with pytest.raises(ConfigurationError, match="gamma_grid"):
        KeplerConfig(max_n=6, target_shell=3, gamma_grid=grid)


def test_integral_float_sizes_build_as_ints():
    # the basis needs ints: range() and np.arange refuse or mis-type floats
    cfg = KeplerConfig(max_n=6.0, target_shell=3.0)
    assert type(cfg.max_n) is int and type(cfg.target_shell) is int
    expected = KeplerConfig(max_n=6, target_shell=3)
    assert cfg.gamma_grid == expected.gamma_grid
    rho2, ref = build_rho2(cfg), build_rho2(expected)
    for name in ("entries", "perm", "blocks"):
        assert getattr(rho2, name).tobytes() == getattr(ref, name).tobytes()


@pytest.mark.parametrize("max_n", [1, 2, 4, 30, 40])
def test_basis_matches_loop_oracle(max_n):
    cfg = small_cfg(max_n)
    quanta, part = enumerate_parabolic_basis(cfg)
    ref_quanta, ref_groups = oracles.triangular_basis_loop(max_n, 1, shell_energy)
    assert quanta.dtype.kind == "i" and not quanta.flags.writeable
    assert quanta.tolist() == [list(q) for q in ref_quanta]
    assert [(g.label, g.indices, g.energy) for g in part.groups] == ref_groups
    assert all(type(g.label) is int and type(g.energy) is float for g in part.groups)
    # with a zero rho^2, H is its diagonal alone
    zero = SymmetricMatrix(np.zeros((len(quanta), len(quanta))))
    diagonal = np.array([shell_energy(n1 + n2 + 1) for n1, n2 in ref_quanta])
    assert np.diag(build_h(cfg, 1e-3, zero).entries).tobytes() == diagonal.tobytes()


@pytest.mark.parametrize("max_n", [1, 2, 4, 30])
def test_rho2_declares_the_layouts_exchange(max_n):
    # (n1, n2) -> (n2, n1): shell start plus n2
    quanta, groups = oracles.triangular_basis_loop(max_n, 1, float)
    start = [g[1][0] for g in groups for _ in g[1]]
    expected = [s + n2 for s, (_, n2) in zip(start, quanta)]
    np.testing.assert_array_equal(build_rho2(small_cfg(max_n)).perm, expected)


class TestRho2:
    def test_hydrogen_ground_expectation(self):
        rho2 = build_rho2(small_cfg(2))
        assert rho2.entries[0, 0] == pytest.approx(2.0, rel=1e-12)
        assert rho2.entries[0, 0] == pytest.approx(
            oracles.hydrogen_ground_rho2(), rel=1e-12
        )

    def test_exchange_symmetry(self):
        cfg = small_cfg(5)
        quanta, _ = enumerate_parabolic_basis(cfg)
        rho2 = build_rho2(cfg).entries
        index = oracles.basis_index(quanta)
        swap = [index[n2, n1] for n1, n2 in quanta.tolist()]
        np.testing.assert_array_equal(rho2, rho2[np.ix_(swap, swap)])

    def test_declares_exchange(self):
        cfg = small_cfg(5)
        quanta, _ = enumerate_parabolic_basis(cfg)
        rho2 = build_rho2(cfg)
        index = oracles.basis_index(quanta)
        swap = [index[n2, n1] for n1, n2 in quanta.tolist()]
        np.testing.assert_array_equal(rho2.perm, swap)
        np.testing.assert_array_equal(rho2.blocks, np.zeros(len(quanta)))

    def test_positive_semidefinite(self):
        rho2 = build_rho2(KeplerConfig()).entries
        eigs = np.linalg.eigvalsh(rho2)
        assert eigs.min() >= -1e-10 * np.abs(eigs).max()

    def test_node_doubling_agreement(self):
        cfg = KeplerConfig()
        nodes = max(cfg.max_n + 4, 12)
        a = _rho2_entries(cfg, nodes)
        b = _rho2_entries(cfg, 2 * nodes)
        scale = np.abs(a).max()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6 * scale)
        assert (np.abs(a - b) / denom).max() <= 1e-8

    def test_spherical_basis_oracle(self):
        direct = build_rho2(small_cfg(4)).entries
        via, u = oracles.rho2_parabolic_via_spherical(4)
        assert np.abs(u @ u.T - np.eye(10)).max() <= 1e-10
        scale = np.abs(direct).max()
        denom = np.maximum(np.maximum(np.abs(via), np.abs(direct)), 1e-6 * scale)
        assert (np.abs(via - direct) / denom).max() <= 1e-8

    def test_spherical_basis_oracle_twelve_shells(self):
        # at max_n = 12 the quadrature rule spans 16 nodes, past the 12-node floor
        direct = build_rho2(small_cfg(12)).entries
        via, u = oracles.rho2_parabolic_via_spherical(12)
        assert np.abs(u @ u.T - np.eye(78)).max() <= 1e-10
        scale = np.abs(direct).max()
        denom = np.maximum(np.maximum(np.abs(via), np.abs(direct)), 1e-6 * scale)
        assert (np.abs(via - direct) / denom).max() <= 1e-8

    @pytest.mark.parametrize("max_n", [4, 12, 20])
    def test_entries_bitwise_equal_to_all_pairs_oracle(self, max_n):
        # one shell's tables at a time run each pair's same GEMM
        nodes = max(max_n + 4, 12)
        for rule in (nodes, 2 * nodes):
            streamed = _rho2_entries(small_cfg(max_n), rule)
            assert streamed.tobytes() == oracles.rho2_entries_all_pairs(max_n, rule).tobytes()

    def test_build_peak_memory(self):
        # the all-pairs tables held ~18x the matrix at max_n = 20
        cfg = small_cfg(20)
        build_rho2(cfg)
        tracemalloc.start()
        try:
            rho2 = build_rho2(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * rho2.entries.nbytes

    def test_self_check_failure_named(self, monkeypatch):
        monkeypatch.setattr(kepler_mod, "QUADRATURE_AGREEMENT_RTOL", 0.0)
        with pytest.raises(NumericalError, match=r"<n1=\d+, n2=\d+\|rho\^2\|n1=\d+, n2=\d+>"):
            build_rho2(small_cfg(6))


class TestHamiltonian:
    def test_gamma_zero_is_coulomb_diagonal(self):
        cfg = small_cfg(4)
        quanta, _ = enumerate_parabolic_basis(cfg)
        h = build_h(cfg, 0.0, build_rho2(cfg))
        expected = np.diag([shell_energy(n1 + n2 + 1) for n1, n2 in quanta.tolist()])
        assert h.entries.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("gamma", [0.0, 1e-3])
    def test_declares_exchange_at_every_gamma(self, gamma):
        cfg = small_cfg(5)
        quanta, _ = enumerate_parabolic_basis(cfg)
        index = oracles.basis_index(quanta)
        swap = [index[n2, n1] for n1, n2 in quanta.tolist()]
        h = build_h(cfg, gamma, build_rho2(cfg))
        np.testing.assert_array_equal(h.perm, swap)
        np.testing.assert_array_equal(h.blocks, np.zeros(len(quanta)))

    def test_gamma_difference_is_scaled_rho2(self):
        cfg = small_cfg(5)
        rho2 = build_rho2(cfg)
        h1 = build_h(cfg, 0.1, rho2=rho2).entries
        h0 = build_h(cfg, 0.0, rho2=rho2).entries
        np.testing.assert_allclose(
            h1 - h0,
            (0.1 ** 2 / 8.0) * rho2.entries,
            rtol=1e-12,
            atol=1e-15 * np.abs(rho2.entries).max(),
        )

    def test_bitwise_equal_to_diagonal_plus_scaled_rho2(self):
        cfg = small_cfg(6)
        quanta, _ = enumerate_parabolic_basis(cfg)
        rho2 = build_rho2(cfg)
        energies = [shell_energy(n1 + n2 + 1) for n1, n2 in quanta.tolist()]
        expected = np.diag(energies) + (0.3 ** 2 / 8.0) * rho2.entries
        assert build_h(cfg, 0.3, rho2=rho2).entries.tobytes() == expected.tobytes()

    def test_rejects_negative_gamma(self):
        with pytest.raises(InputError):
            build_h(small_cfg(3), -0.1, build_rho2(small_cfg(3)))

    def test_rejects_mismatched_rho2(self):
        rho2 = build_rho2(small_cfg(3))
        with pytest.raises(InputError):
            build_h(small_cfg(4), 1e-3, rho2=rho2)

    def test_first_order_shifts_richardson(self):
        """Exact eigenvalues at small gamma, Richardson-extrapolated in
        gamma^2, reproduce the secular eigenvalues of the shell block."""
        cfg = KeplerConfig(max_n=12, target_shell=10, gamma_grid=(1e-4,))
        _, part = enumerate_parabolic_basis(cfg)
        rho2 = build_rho2(cfg)
        ix = np.array(part.group(10).indices)
        block = rho2.entries[np.ix_(ix, ix)]
        slopes = np.sort(np.linalg.eigvalsh(block)) / 8.0  # dE/d(gamma^2)

        e10 = shell_energy(10)
        g = 1e-4

        def shell10_shifts(gamma):
            ev = eigh(build_h(cfg, gamma, rho2=rho2)).eigenvalues
            nearest = np.sort(np.abs(ev - e10).argsort()[: len(ix)])
            return np.sort(ev[nearest] - e10)

        f1 = shell10_shifts(g)
        f2 = shell10_shifts(g / 2.0)
        richardson = (16.0 * f2 - f1) / 3.0
        np.testing.assert_allclose(richardson, slopes * g * g, rtol=1e-3)


class TestScaledEnergy:
    def test_gamma_one_identity(self):
        assert scaled_energy(-0.5, 1.0) == -0.5

    def test_round_trip_at_critical_point(self):
        e = shell_energy(10)
        gamma = (abs(e) / 0.54) ** 1.5
        eps = scaled_energy(e, gamma)
        assert eps == pytest.approx(-0.54, rel=1e-12)
        assert eps * gamma ** (2.0 / 3.0) == pytest.approx(e, rel=1e-14)

    def test_rejects_non_positive_gamma(self):
        with pytest.raises(InputError):
            scaled_energy(-0.5, 0.0)
        with pytest.raises(InputError):
            scaled_energy(-0.5, -1.0)


def test_default_gamma_grid_spans_scaled_window():
    grid = default_gamma_grid()
    assert len(grid) == 61
    assert all(a < b for a, b in zip(grid, grid[1:]))
    e10 = shell_energy(10)
    assert scaled_energy(e10, grid[0]) == pytest.approx(-0.80, rel=1e-12)
    assert scaled_energy(e10, grid[-1]) == pytest.approx(-0.30, rel=1e-12)
    # the scan covers the transition window
    eps = [scaled_energy(e10, g) for g in grid]
    assert min(eps) <= -0.7 and max(eps) >= -0.4
