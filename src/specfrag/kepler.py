"""Diamagnetic Kepler problem in the m=0 parabolic bound-state basis.

Atomic units throughout (hbar = m_e = e = 1, Rydberg = 1/2), magnetic field
along z expressed by the dimensionless strength gamma, cyclotron frequency
omega = gamma/2. At m=0 the paramagnetic term vanishes and the perturbation
is the diamagnetic one, (gamma^2/8) * rho^2 with rho^2 = x^2 + y^2.

In parabolic coordinates (xi, eta, phi) the m=0 bound states of shell n are

    psi_{n1 n2}(xi, eta) = sqrt(2)/n^2 * exp(-(xi+eta)/(2n))
                           * L_{n1}(xi/n) * L_{n2}(eta/n) / sqrt(2 pi),

with rho^2 = xi*eta and volume element (xi+eta)/4 dxi deta dphi. The rho^2
element between shells n and n' then separates into two 1D integrals

    J_k(p, p') = a^-(k+1) * integral t^k e^-t L_p(t/(a n)) L_p'(t/(a n')) dt,
    a = (n + n')/(2 n n'),  k = 1, 2,

and  <n1 n2|rho^2|n1' n2'> = (C_n C_n'/4) * (J_2(n1,n1') J_1(n2,n2')
                              + J_1(n1,n1') J_2(n2,n2')),  C_n = sqrt(2)/n^2.

The basis is linalg.triangular_basis with quanta (n1, n2): shell n holds
|n1, n - 1 - n1> in ascending n1 from index n(n-1)/2, and the n1 <-> n2
exchange (z-parity) is the symmetry every matrix declares. build_rho2
says how the J_k are evaluated and checked.

The bound basis is incomplete (no continuum), so results depend on the
truncation at max_n shells (default 20); that cut is part of the model
here, not a numerical knob.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, NumericalError, is_real, is_whole
from .linalg import ShellPartition, SymmetricMatrix, triangular_basis, triangular_exchange

QUADRATURE_AGREEMENT_RTOL = 1e-8
# Both rule sizes integrate the polynomial integrands exactly, so any
# disagreement is summation roundoff, observed at ~1e-14 of the matrix scale.
# Elements below FLOOR * scale carry no weight in the Hamiltonian; flooring
# the denominator there keeps the relative check from amplifying that noise
# (a wrong rule would miss by orders of magnitude, not parts in 1e10).
QUADRATURE_FLOOR_REL = 1e-6


def shell_energy(n):
    """Coulomb bound energy -1/(2 n^2) in atomic units, of an int or
    elementwise of an int array."""
    return -0.5 / (n * n)


# the scaled-energy window of the default scan, and its number of points
DEFAULT_EPS_WINDOW = (-0.80, -0.30)
DEFAULT_GRID_POINTS = 61


def default_gamma_grid(target_shell: int = 10) -> tuple[float, ...]:
    """The default scan: DEFAULT_GRID_POINTS geometric gamma values whose
    zeroth-order scaled energies E_n * gamma^(-2/3) for the target shell
    run from -0.8 to -0.3 (DEFAULT_EPS_WINDOW), the transition window."""
    e_n = abs(shell_energy(target_shell))
    g_lo, g_hi = ((e_n / abs(eps)) ** 1.5 for eps in DEFAULT_EPS_WINDOW)
    return tuple(float(g) for g in np.geomspace(g_lo, g_hi, DEFAULT_GRID_POINTS))


@dataclass(frozen=True)
class KeplerConfig:
    max_n: int = 20
    target_shell: int = 10
    gamma_grid: tuple[float, ...] | None = None  # None: default_gamma_grid(target_shell)

    def __post_init__(self):
        # a boolean or a string is refused, not read as a number
        if not (is_whole(self.max_n) and self.max_n >= 1):
            raise ConfigurationError(f"max_n must be a positive integer, got {self.max_n!r}")
        if not (is_whole(self.target_shell) and 1 <= self.target_shell <= self.max_n):
            raise ConfigurationError(
                f"target_shell must lie in [1, max_n={self.max_n}], got {self.target_shell!r}"
            )
        # integral floats are kept as the ints they equal, which the basis needs
        object.__setattr__(self, "max_n", int(self.max_n))
        object.__setattr__(self, "target_shell", int(self.target_shell))
        given = default_gamma_grid(self.target_shell) if self.gamma_grid is None else self.gamma_grid
        try:
            grid = tuple(given)
        except TypeError:  # a lone number is not a grid
            grid = ()
        if not grid or not all(is_real(g) and math.isfinite(g) and g > 0 for g in grid):
            raise ConfigurationError("gamma_grid must hold one or more positive finite values")
        object.__setattr__(self, "gamma_grid", tuple(float(g) for g in grid))


def enumerate_parabolic_basis(cfg: KeplerConfig) -> tuple[np.ndarray, ShellPartition]:
    """The quanta (n1, n2) of each m=0 state, in linalg.triangular_basis's
    order: ascending principal n = n1 + n2 + 1, then ascending n1; shell n
    holds n states and has energy -1/(2n^2). Also the partition into
    shells."""
    return triangular_basis(cfg.max_n, 1, shell_energy)


def _rho2_entries(cfg: KeplerConfig, nodes: int) -> np.ndarray:
    # imported here, so that Henon-Heiles runs and every validate skip it
    from numpy.polynomial import laguerre

    quanta, partition = enumerate_parabolic_basis(cfg)
    t, w = laguerre.laggauss(nodes)
    rho2 = np.zeros((len(quanta), len(quanta)))
    starts = {g.label: g.indices[0] for g in partition.groups}
    for n in range(1, cfg.max_n + 1):
        # the shell pairs (n, n' >= n): only one shell's tables at a time
        nps = np.arange(n, cfg.max_n + 1)
        a = (n + nps) / (2.0 * n * nps)
        # one elementwise lagvander call gives both tables,
        # left[pair, p, node] = L_p(t/(a n)), right[pair, node, p'] = L_p'(t/(a n'))
        x = t / np.concatenate([a * n, a * nps])[:, None]
        tables = laguerre.lagvander(x, cfg.max_n - 1)
        left, right = np.swapaxes(tables[:nps.size], 1, 2), tables[nps.size:]
        j1, j2 = (a[:, None, None] ** (-(k + 1)) * ((left * (w * t ** k)) @ right)
                  for k in (1, 2))
        # pair 0, (n, n), is analytically symmetric, but the matmul's reduction
        # order is position-dependent; symmetrize so the n1<->n2 exchange
        # holds bitwise
        for jk in (j1, j2):
            jk[0] = 0.5 * (jk[0] + jk[0].T)
        for npr, j1p, j2p in zip(nps.tolist(), j1, j2):
            pref = (math.sqrt(2.0) / n ** 2) * (math.sqrt(2.0) / npr ** 2) / 4.0
            # bra |p1 p2> = |bi, n-1-bi>, ket |q1 q2> = |kj, npr-1-kj>, by
            # enumeration order; reversed slices give the p2, q2 axes
            block = pref * (
                j2p[:n, :npr] * j1p[n - 1::-1, npr - 1::-1]
                + j1p[:n, :npr] * j2p[n - 1::-1, npr - 1::-1]
            )
            bra = slice(starts[n], starts[n] + n)
            ket = slice(starts[npr], starts[npr] + npr)
            rho2[bra, ket] = block
            rho2[ket, bra] = block.T
    return rho2


def build_rho2(cfg: KeplerConfig) -> SymmetricMatrix:
    """rho^2 operator matrix with a built-in quadrature self-check.

    Each integrand of J_k is e^-t times a polynomial of degree at most
    2 max_n, so one N-node Gauss-Laguerre rule (numpy's laggauss) with t^k
    folded into its weights is already exact, since N >= max_n + 4; a
    second evaluation at twice the node count must agree to
    QUADRATURE_AGREEMENT_RTOL relative, else the offending element is
    named in a NumericalError.

    Both k share one pair of Laguerre tables (lagvander), built one shell n
    at a time for its pairs (n, n' >= n), so the tables never outgrow about
    max_n^2 N floats; the check holds at most two comparison arrays beside
    the two evaluations, so the build's peak stays a few times a dense
    rho^2. The matrix it returns keeps only its sector pieces, about half
    of one.

    The matrix declares its exact Z2 symmetry, the n1 <-> n2 exchange, and
    that is checked here, once; build_h carries it to every H(gamma).
    """
    nodes = max(cfg.max_n + 4, 12)
    first = _rho2_entries(cfg, nodes)
    second = _rho2_entries(cfg, 2 * nodes)
    scale = np.abs(first).max()
    # RTOL * max(|first|, |second|, FLOOR * scale) and |first - second|,
    # built in place: the same IEEE values as the expressions spelled out,
    # with at most two dim x dim arrays beside the two rules
    tol = np.abs(first)
    np.maximum(tol, np.abs(second), out=tol)
    np.maximum(tol, QUADRATURE_FLOOR_REL * scale, out=tol)
    tol *= QUADRATURE_AGREEMENT_RTOL
    diff = np.subtract(first, second)
    # written so that NaN fails it
    bad = ~(np.abs(diff, out=diff) <= tol)
    quanta, _ = triangular_basis(cfg.max_n, 1, shell_energy)
    if np.any(bad):
        i, jdx = np.argwhere(bad)[0]
        (n1, n2), (n1p, n2p) = quanta[[i, jdx]].tolist()
        raise NumericalError(
            f"quadrature self-check failed for <n1={n1}, n2={n2}|rho^2|n1={n1p}, n2={n2p}>: "
            f"{first[i, jdx]!r} vs {second[i, jdx]!r} at {nodes}/{2 * nodes} nodes"
        )
    # SymmetricMatrix checks first's nonzeros and keeps its sector pieces;
    # only first is held by then
    del second, tol, diff, bad
    return SymmetricMatrix(first, perm=triangular_exchange(quanta))


def build_h(cfg: KeplerConfig, gamma: float, rho2: SymmetricMatrix) -> SymmetricMatrix:
    """H = diag(-1/(2n^2)) + (gamma^2/8) rho^2, from rho2 = build_rho2(cfg),
    built once for a whole gamma scan.

    H is the SymmetricMatrix rho2.scaled_plus_diagonal(gamma^2 / 8, E): it
    shares rho2's pieces by reference, so a scan gathers nothing and holds
    the pieces once, and no dense H is formed. It keeps the exact symmetry
    build_rho2 declares, the n1 <-> n2 exchange (z-parity), without a new
    check, so eigh solves its two sectors as separate blocks, each bitwise
    the block of the dense sum. At gamma = 0 every off-diagonal
    0.0 * rho2 + 0.0 is +0.0 and every diagonal entry is E + 0.0 * rho2, so
    H is the bare Coulomb diagonal bitwise, still declaring the exchange.
    """
    if not (math.isfinite(gamma) and gamma >= 0):
        raise InputError(f"gamma must be non-negative and finite, got {gamma}")
    quanta, _ = enumerate_parabolic_basis(cfg)
    if rho2.dim != len(quanta):
        raise InputError(
            f"rho2 has dim {rho2.dim} but the basis holds {len(quanta)} states"
        )
    return rho2.scaled_plus_diagonal(gamma * gamma / 8.0, shell_energy(quanta.sum(axis=1) + 1))


def scaled_energy(e: float, gamma: float) -> float:
    """Standard dimensionless energy eps = E * gamma^(-2/3)."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise InputError(f"gamma must be positive and finite, got {gamma}")
    return e * gamma ** (-2.0 / 3.0)
