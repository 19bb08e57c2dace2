"""Fragmentation metrics: strength functions, spreading widths, the
chaoticity ratio kappa, exact complement projections, and the first-order
perturbative estimate W with its block-unitary invariance.

Conventions
-----------
The spreading width of a distribution over perturbed levels is the minimal
energy interval E_b - E_a spanned by a contiguous run of eigenstates that
captures at least half the probability. Endpoints are eigenvalue positions,
not half-spacing midpoints; among equal-width minimal windows the
lowest-energy one is reported (the width itself is unaffected).

kappa = spreading width / D0, where D0 is the unperturbed spacing between
the target shell and its nearest neighboring shell. kappa >= 1 marks the
destruction of the shell's approximate quantum number.

W estimates, to first order in the coupling, the average weight that the
target shell's states leak into other shells. It is evaluated with the raw
basis states: the exact result is invariant under any unitary mixing inside
degenerate shells, so no secular diagonalization is needed. That invariance
is executable here (invariance_gap), not just assumed.

The exact counterpart selects, for each scan point, dim T_N perturbed
eigenstates to stand for the shell; three selection rules are provided. The
contiguous run maximizing total shell weight (PROJECTION_WINDOW) is the
default: unlike TOP_PROJECTION it cannot cherry-pick shell-flavored states
scattered across an already fragmented spectrum, which keeps the complement
weight honest once mixing is strong, and unlike ENERGY_WINDOW it tracks the
perturbed levels after they drift away from the unperturbed shell energy.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, InputError, NumericalError
from .linalg import (ShellPartition, SpectralDecomposition, SymmetricMatrix,
                     projection_onto_subset, random_block_unitary)

WEIGHT_SUM_TOL = 1e-6


@dataclass(frozen=True)
class StrengthFunction:
    """Probability weights of a reference set of basis states over the
    perturbed spectrum, with the eigenvalue axis attached."""

    eigen_energies: np.ndarray
    weights: np.ndarray


class StateSelection(enum.Enum):
    """How the exact curve picks the dim T_N eigenstates standing for a shell."""

    ENERGY_WINDOW = "energy-window"      # the dim T_N levels closest to E_N^(0)
    TOP_PROJECTION = "top-projection"    # the dim T_N levels of largest shell weight
    PROJECTION_WINDOW = "projection-window"  # contiguous run maximizing total shell weight


def strength_function(d: SpectralDecomposition, shell: Sequence[int]) -> StrengthFunction:
    """Shell-averaged strength function: weight (1/|shell|) * sum of squared
    coefficients, per eigenstate.

    A singleton set [alpha] gives the local distribution of one basis state,
    P_alpha(E_i) = |c_i^alpha|^2, whose spreading width is the local width;
    only the shell-averaged form is invariant under intra-shell basis
    changes."""
    shell = list(shell)
    w = projection_onto_subset(d, shell) / len(shell)
    return StrengthFunction(eigen_energies=d.eigenvalues, weights=w)


def spreading_width(sf: StrengthFunction, return_window: bool = False):
    """Minimal energy interval capturing at least half the probability.

    Two-pointer sweep over contiguous eigenstate runs; 0 if a single level
    already holds >= 0.5. Rejects anything that is not a distribution over
    an ascending finite spectrum: non-finite energies or weights, negative
    weights, or weights that do not sum to 1 within WEIGHT_SUM_TOL.
    """
    e = np.asarray(sf.eigen_energies, dtype=float)
    p = np.asarray(sf.weights, dtype=float)
    if e.shape != p.shape or e.ndim != 1 or e.size == 0:
        raise InputError("strength function needs matching 1D energies and weights")
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(p))):
        raise InputError("eigen energies and weights must be finite")
    if np.any(p < 0):
        raise InputError("weights must be non-negative")
    if np.any(np.diff(e) < 0):
        raise InputError("eigen energies must be ascending")
    total = p.sum()
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise InputError(f"weights sum to {total!r}, not 1; refusing to measure width")

    # the sweep runs on Python floats: the same IEEE operations in the same
    # order as on numpy scalars, without their per-element overhead
    e, p = e.tolist(), p.tolist()
    best = math.inf
    window = (0, len(e) - 1)
    a = 0
    s = 0.0
    for b, weight in enumerate(p):
        s += weight
        while s - p[a] >= 0.5:
            s -= p[a]
            a += 1
        if s >= 0.5:
            width = e[b] - e[a]
            if width < best:
                best = width
                window = (a, b)
    if return_window:
        return best, window
    return best


def chaoticity(gamma_spr: float, d0: float) -> float:
    """kappa = gamma_spr / d0. kappa >= 1 flags destruction of the shell's
    approximate symmetry."""
    if not np.isfinite(d0) or d0 <= 0:
        raise InputError(f"d0 must be positive, got {d0}")
    if not np.isfinite(gamma_spr) or gamma_spr < 0:
        raise InputError(f"gamma_spr must be non-negative, got {gamma_spr}")
    return float(gamma_spr / d0)


def select_eigenstates(
    d: SpectralDecomposition,
    shell: Sequence[int],
    selection: StateSelection = StateSelection.PROJECTION_WINDOW,
    shell_energy: float | None = None,
) -> np.ndarray:
    """Indices (ascending) of the dim T_N eigenstates standing for a shell.

    The shell is checked by projection_onto_subset alone: a shell that is
    empty, repeats a state or names one outside the basis is an InputError,
    so dim T_N never exceeds the decomposition's dimension."""
    shell = list(shell)
    proj = projection_onto_subset(d, shell)
    dim_t = len(shell)

    if selection is StateSelection.TOP_PROJECTION:
        picked = np.argsort(-proj, kind="stable")[:dim_t]
    elif selection is StateSelection.ENERGY_WINDOW:
        if shell_energy is None:
            raise ConfigurationError("energy-window selection needs the shell energy")
        picked = np.argsort(np.abs(d.eigenvalues - shell_energy), kind="stable")[:dim_t]
    elif selection is StateSelection.PROJECTION_WINDOW:
        csum = np.concatenate([[0.0], np.cumsum(proj)])
        sums = csum[dim_t:] - csum[:-dim_t]
        start = int(np.argmax(sums))  # first maximum, deterministic
        picked = np.arange(start, start + dim_t)
    else:
        raise ConfigurationError(f"unknown selection {selection!r}")
    return np.sort(picked)


def w_exact(
    d: SpectralDecomposition,
    shell: Sequence[int],
    selection: StateSelection = StateSelection.PROJECTION_WINDOW,
    shell_energy: float | None = None,
) -> float:
    """Average complement weight of the selected eigenstates: mean over the
    selection of (1 - shell weight). 0 at zero coupling, and crossing 0.5
    means the shell's states have mostly leaked elsewhere."""
    shell = list(shell)
    picked = select_eigenstates(d, shell, selection, shell_energy)
    proj = projection_onto_subset(d, shell)
    return float(1.0 - proj[picked].mean())


def w_perturbative_terms(
    v: SymmetricMatrix,
    partition: ShellPartition,
    target: int,
    lam: float,
) -> list[tuple[int, float]]:
    """Per-source-shell contributions W_n to the first-order estimate.

    W_n = (lam^2 / dim T_N) * sum_{i in T_N} sum_{alpha in T_n}
          |V_alpha,i|^2 / (E_N - E_n)^2, one term per shell n != N.

    NumericalError when a term is not finite, as an overflow leaves it.
    """
    tgt = partition.group(target)
    t_idx = np.asarray(tgt.indices)
    dim_t = t_idx.size
    terms: list[tuple[int, float]] = []
    # an overflow shows as a term that is not finite, which the check
    # below reports; numpy's warning would only repeat it
    with np.errstate(all="ignore"):
        # V's target columns, a dim x dim_t slab formed from its pieces and
        # squared in place; each shell sums its own rows of it
        squares = v.columns(t_idx)
        squares *= squares
        for g in partition.groups:
            if g.label == target:
                continue
            # ShellPartition's strictly increasing energies keep denom nonzero
            denom = tgt.energy - g.energy
            leak = squares[np.asarray(g.indices)].sum()
            term = float(lam * lam * leak / (denom * denom) / dim_t)
            if not math.isfinite(term):
                raise NumericalError(f"the W_pt term of shell {g.label} is not finite ({term!r})")
            terms.append((g.label, term))
    return terms


def w_perturbative(v: SymmetricMatrix, partition: ShellPartition, target: int, lam: float) -> float:
    """First-order estimate of the average weight outside the target shell.

    NumericalError when a term or the sum is not finite. Exactly quadratic
    in lam; invariant under block-unitary mixing inside shells, which is
    why raw basis states suffice (see invariance_gap).

    It is the leading term of the exact complement weight, not a bound on
    it: w_exact = w_perturbative * (1 + O(lam^2)) as lam -> 0. At a fixed
    coupling the absolute gap therefore grows with the estimate itself and
    is no longer small once the estimate nears the 0.5 crossing.
    """
    w = float(sum(term for _, term in w_perturbative_terms(v, partition, target, lam)))
    if not math.isfinite(w):  # finite terms can still sum past the float range
        raise NumericalError(f"W_pt is not finite ({w!r})")
    return w


def invariance_gap(
    v: SymmetricMatrix,
    partition: ShellPartition,
    target: int,
    lam: float,
    seed: int,
) -> float:
    """|W(U^T V U) - W(V)| for a seeded random block-unitary U.

    The theorem says this vanishes; the function exists so the claim stays
    executable rather than rhetorical.
    """
    u = random_block_unitary(partition, seed)
    rotated = SymmetricMatrix(u.T @ v.entries @ u)
    return abs(
        w_perturbative(rotated, partition, target, lam)
        - w_perturbative(v, partition, target, lam)
    )


def critical_parameter(
    curve: Sequence[tuple[float, float]], threshold: float = 0.5
) -> tuple[float | None, tuple[float, float] | None]:
    """First crossing of a sampled curve through a threshold, as
    (critical, bracket).

    Grid scan plus linear interpolation between the bracketing samples; a
    sample landing exactly on the threshold is itself the crossing, with
    bracket (x, x), and two neighbouring samples on opposite sides of it
    bracket one (compared, so no underflow can hide it). The axis must be
    strictly monotone. No crossing gives (None, None). Non-finite samples
    are rejected.
    """
    samples = tuple((float(x), float(w)) for x, w in curve)
    if len(samples) < 2:
        raise InputError("need at least 2 samples to bracket a crossing")
    if not np.all(np.isfinite(samples)):
        raise InputError("curve samples must be finite")
    xs = np.array([x for x, _ in samples])
    dx = np.diff(xs)
    if not (np.all(dx > 0) or np.all(dx < 0)):
        raise InputError("curve axis must be strictly monotone")

    for k in range(len(samples)):
        x, w = samples[k]
        if w == threshold:
            return x, (x, x)
        if k + 1 < len(samples):
            x2, w2 = samples[k + 1]
            if w2 != threshold and (w < threshold) != (w2 < threshold):
                t = (threshold - w) / (w2 - w)
                return x + t * (x2 - x), (x, x2)
    return None, None
