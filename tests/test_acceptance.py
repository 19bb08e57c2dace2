"""Acceptance gate: the headline numbers and guarantees, one test per
criterion so `pytest -v` reports one pass/fail line each.

Criterion 7 checks the promise first-order theory makes: W_pt is the
leading term of the exact complement weight, W_exact = W_pt * (1 + O(lam^2)).
(a) On every shell up to E = 0.08, r_N(lam) = W_exact/W_pt - 1 scales as
lam^2 in the weak-coupling limit. (b) At the physical coupling lam = 1 the
two agree within 0.05 on every shell below the earliest first-order
crossing that criterion 1 admits; above it the gap is the second-order
remainder (0.065 at E = 0.08, where W_pt is already 0.44).
"""
import numpy as np
import pytest

import oracles
from specfrag.henon_heiles import HHConfig, build_h, build_v, enumerate_basis
from specfrag.kepler import (
    KeplerConfig,
    build_h as build_kepler_h,
    build_rho2,
    enumerate_parabolic_basis,
    scaled_energy,
    shell_energy,
)
from specfrag.linalg import SymmetricMatrix, eigh, projection_onto_subset
from specfrag.metrics import (
    StrengthFunction,
    chaoticity,
    critical_parameter,
    invariance_gap,
    spreading_width,
    strength_function,
    w_exact,
    w_perturbative,
)

HH_SHELL_MIN, HH_SHELL_MAX = 1, 26

# Criterion 1: the first-order W curve crosses 0.5 at this energy.
HH_PT_CRITICAL_E, HH_PT_CRITICAL_TOL = 0.084, 0.008

# Criterion 7: shells up to this energy, the two weak couplings whose
# r_N / lam^2 must agree within PT_ORDER_REL_TOL, and the lam = 1 gap gate.
PT_MATCH_E_MAX = 0.08
PT_ORDER_COUPLINGS = (0.1, 0.05)
PT_ORDER_REL_TOL = 0.05
PT_MATCH_TOL = 0.05


@pytest.fixture(scope="module")
def hh_scan():
    cfg = HHConfig()  # hbar=0.01, lambda=1, 30 shells
    _, part = enumerate_basis(cfg)
    v = build_v(cfg)
    h = build_h(cfg)
    decomp = eigh(h)

    shells = range(HH_SHELL_MIN, HH_SHELL_MAX + 1)
    pt, exact, kappa = [], [], []
    for n in shells:
        e_n = cfg.hbar * (n + 1)
        g = part.group(n)
        pt.append((e_n, w_perturbative(v, part, n, cfg.lam)))
        exact.append((e_n, w_exact(decomp, g.indices, shell_energy=g.energy)))
        sf = strength_function(decomp, g.indices)
        kappa.append((e_n, chaoticity(spreading_width(sf), cfg.hbar)))
    return {
        "cfg": cfg,
        "part": part,
        "v": v,
        "h": h,
        "decomp": decomp,
        "pt": pt,
        "exact": exact,
        "kappa": kappa,
    }


@pytest.fixture(scope="module")
def kepler_scan():
    cfg = KeplerConfig()  # 20 shells, m=0, target shell 10, default gamma grid
    _, part = enumerate_parabolic_basis(cfg)
    rho2 = build_rho2(cfg)
    target = part.group(cfg.target_shell)
    e10 = shell_energy(cfg.target_shell)
    w_pt_unit = w_perturbative(rho2, part, cfg.target_shell, 1.0)

    pt, exact = [], []
    hamiltonians, decomps = [], []
    for gamma in cfg.gamma_grid:
        eps0 = scaled_energy(e10, gamma)
        pt.append((eps0, (gamma * gamma / 8.0) ** 2 * w_pt_unit))
        h = build_kepler_h(cfg, gamma, rho2=rho2)
        d = eigh(h)
        hamiltonians.append(h)
        decomps.append(d)
        exact.append((eps0, w_exact(d, target.indices, shell_energy=target.energy)))
    return {
        "cfg": cfg,
        "part": part,
        "rho2": rho2,
        "pt": pt,
        "exact": exact,
        "hamiltonians": hamiltonians,
        "decomps": decomps,
    }


def test_criterion_1_hh_pt_critical_energy(hh_scan):
    """First-order W curve crosses 0.5 at E = 0.084 +/- 0.008."""
    critical, _ = critical_parameter(hh_scan["pt"])
    assert critical is not None
    assert abs(critical - HH_PT_CRITICAL_E) <= HH_PT_CRITICAL_TOL, (
        f"pt critical {critical}"
    )


def test_criterion_2_hh_exact_critical_energy(hh_scan):
    """Exact complement-projection curve crosses 0.5 at E = 0.105 +/- 0.010."""
    critical, _ = critical_parameter(hh_scan["exact"])
    assert critical is not None
    assert abs(critical - 0.105) <= 0.010, f"exact critical {critical}"


def test_criterion_3_hh_kappa_crossing(hh_scan):
    """kappa(E) crosses 1 at E = 0.11 +/- 0.015."""
    critical, _ = critical_parameter(hh_scan["kappa"], threshold=1.0)
    assert critical is not None
    assert abs(critical - 0.11) <= 0.015, f"kappa critical {critical}"


def test_criterion_4_kepler_pt_critical_scaled_energy(kepler_scan):
    """Kepler W curve crosses 0.5 at eps = -0.54 +/- 0.05."""
    critical, _ = critical_parameter(kepler_scan["pt"])
    assert critical is not None
    assert abs(critical - (-0.54)) <= 0.05, f"pt critical {critical}"


def test_criterion_5_kepler_exact_critical_scaled_energy(kepler_scan):
    """Kepler exact curve crosses 0.5 at eps = -0.47 +/- 0.05."""
    critical, _ = critical_parameter(kepler_scan["exact"])
    assert critical is not None
    assert abs(critical - (-0.47)) <= 0.05, f"exact critical {critical}"


def test_criterion_6_block_unitary_invariance_100_seeds():
    """W is invariant under 100 seeded intra-shell rotations to 1e-10 rel."""
    cfg = HHConfig(num_shells=10)
    _, part = enumerate_basis(cfg)
    v = build_v(cfg)
    target = 5
    w0 = w_perturbative(v, part, target, cfg.lam)
    worst = max(
        invariance_gap(v, part, target, cfg.lam, seed=seed) / w0
        for seed in range(100)
    )
    assert worst <= 1e-10, f"max relative W change {worst}"


def test_criterion_7_pt_matches_exact_at_low_energy(hh_scan):
    """W_exact = W_pt * (1 + O(lam^2)) on every shell up to E = 0.08.

    (a) r_N(lam) / lam^2, with r_N = W_exact / W_pt - 1, agrees within 5 %
    between lam = 0.1 and lam = 0.05 on the 30-shell basis. A constant-factor
    error in either W leaves r finite as lam -> 0, so r / lam^2 would grow 4x.
    (b) At lam = 1, |W_pt - W_exact| <= 0.05 on every shell below the
    earliest first-order crossing criterion 1 admits.
    """
    cfg, part, v = hh_scan["cfg"], hh_scan["part"], hh_scan["v"]
    h0 = oracles.build_h0(cfg).entries
    all_shells = range(HH_SHELL_MIN, HH_SHELL_MAX + 1)
    shells = [n for n in all_shells if cfg.hbar * (n + 1) <= PT_MATCH_E_MAX]

    def remainder_over_lam2(lam):
        d = eigh(SymmetricMatrix(h0 + lam * v.entries))
        coeffs = {}
        for n in shells:
            g = part.group(n)
            we = w_exact(d, g.indices, shell_energy=g.energy)
            coeffs[n] = (we / w_perturbative(v, part, n, lam) - 1.0) / (lam * lam)
        return coeffs

    strong, weak = (remainder_over_lam2(lam) for lam in PT_ORDER_COUPLINGS)
    drift = {n: abs(strong[n] - weak[n]) / abs(weak[n]) for n in shells}
    worst_n = max(drift, key=drift.get)
    assert drift[worst_n] <= PT_ORDER_REL_TOL, (
        f"r_N/lam^2 not constant on shell N = {worst_n}: "
        f"{strong[worst_n]:+.5f} at lam = {PT_ORDER_COUPLINGS[0]}, "
        f"{weak[worst_n]:+.5f} at lam = {PT_ORDER_COUPLINGS[1]}"
    )

    e_edge = HH_PT_CRITICAL_E - HH_PT_CRITICAL_TOL
    gaps = {
        n: abs(wp - we)
        for n, (e, wp), (_, we) in zip(all_shells, hh_scan["pt"], hh_scan["exact"])
        if e < e_edge
    }
    worst_n = max(gaps, key=gaps.get)
    assert gaps[worst_n] <= PT_MATCH_TOL, (
        f"|W_pt - W_exact| = {gaps[worst_n]:.4f} on shell N = {worst_n} "
        f"(E = {cfg.hbar * (worst_n + 1)}), c_N = {weak[worst_n]:+.5f}"
    )


def test_criterion_8a_spreading_width_brute_force():
    """spreading_width equals exhaustive window enumeration, 1000 instances."""
    rng = np.random.default_rng(8128)
    for _ in range(1000):
        size = int(rng.integers(1, 51))
        e = np.sort(rng.uniform(-5.0, 5.0, size))
        p = rng.uniform(0.0, 1.0, size)
        if rng.uniform() < 0.25:
            p[rng.integers(0, size)] += 4.0
        p /= p.sum()
        sf = StrengthFunction(eigen_energies=e, weights=p)
        assert spreading_width(sf) == oracles.brute_force_spreading_width(e, p)


def test_criterion_8b_hh_elements_match_quadrature():
    """Every 6-shell V element matches Gauss-Hermite quadrature to 1e-10.

    The quadrature gives the Cartesian elements <n1, n2|V|n1', n2'>; the
    oracle rotation U_N and the i^(n2 + l) phases carry them into the
    circular basis that build_v writes.
    """
    cfg = HHConfig(num_shells=6)
    cartesian = oracles.cartesian_states(6)
    quad = np.array([[oracles.hermite_v_element(bra, ket, cfg.hbar) for ket in cartesian]
                     for bra in cartesian])
    rotated = oracles.rotate_to_circular(quad, 6)
    v = build_v(cfg).entries
    scale = np.abs(v).max()
    assert np.abs(rotated.imag).max() <= 1e-14 * scale
    for i in range(v.shape[0]):
        for j in range(v.shape[1]):
            q = rotated.real[i, j]
            err = abs(q - v[i, j])
            assert err <= max(1e-10 * max(abs(q), abs(v[i, j])), 1e-14 * scale), (i, j)


def test_criterion_8c_kepler_elements_match_spherical_basis():
    """Every rho^2 element for n <= 4 matches the spherical-basis route to 1e-8."""
    cfg = KeplerConfig(max_n=4, target_shell=2, gamma_grid=(1e-3,))
    direct = build_rho2(cfg).entries
    via, u = oracles.rho2_parabolic_via_spherical(4)
    assert np.abs(u @ u.T - np.eye(10)).max() <= 1e-10
    scale = np.abs(direct).max()
    denom = np.maximum(np.maximum(np.abs(via), np.abs(direct)), 1e-6 * scale)
    assert (np.abs(via - direct) / denom).max() <= 1e-8


def test_criterion_8d_zero_coupling_limits():
    """lambda=0 / gamma=0 give W = 0 and unit shell projections exactly."""
    cfg = HHConfig(lam=0.0, num_shells=8)
    _, part = enumerate_basis(cfg)
    v = build_v(cfg)
    d = eigh(build_h(cfg))
    for g in part.groups:
        assert w_perturbative(v, part, g.label, cfg.lam) == 0.0
        assert w_exact(d, g.indices, shell_energy=g.energy) == 0.0
        picked = projection_onto_subset(d, g.indices)[list(g.indices)]
        assert np.all(picked == 1.0)

    kcfg = KeplerConfig(max_n=6, target_shell=3, gamma_grid=(1e-3,))
    _, kpart = enumerate_parabolic_basis(kcfg)
    kd = eigh(build_kepler_h(kcfg, 0.0, build_rho2(kcfg)))
    for g in kpart.groups:
        assert w_exact(kd, g.indices, shell_energy=g.energy) == 0.0
        picked = projection_onto_subset(kd, g.indices)[list(g.indices)]
        assert np.all(picked == 1.0)


def test_criterion_9_numerical_hygiene(hh_scan, kepler_scan):
    """Reconstruction, orthogonality, completeness hold for every matrix
    behind the critical-value results."""

    def check(h: SymmetricMatrix, d):
        dim = d.dim
        vecs = oracles.assembled_eigenvectors(d)
        rebuilt = vecs @ np.diag(d.eigenvalues) @ vecs.T
        assert np.abs(rebuilt - h.entries).max() <= 1e-10 * np.abs(h.entries).max()
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(dim)).max() <= 1e-10
        assert np.abs((vecs ** 2).sum(axis=1) - 1.0).max() <= 1e-10

    check(hh_scan["h"], hh_scan["decomp"])
    for h, d in zip(kepler_scan["hamiltonians"], kepler_scan["decomps"]):
        check(h, d)
