"""Truncated Henon-Heiles Hamiltonian in the 2D Cartesian oscillator basis.

The system is the unit-mass, unit-frequency planar oscillator with the odd
cubic coupling q1^2 q2 - q2^3/3. Matrix elements come from ladder algebra,
q = sqrt(hbar/2) (a + a^dagger), evaluated in closed form: every nonzero
element is an exact integer expression under a square root times
(hbar/2)^(3/2), so the build has no truncation error of its own. The only
truncation is the basis cut itself, which contaminates the top three shells
of H; analyses therefore stay below that edge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .linalg import ShellGroup, ShellPartition, SymmetricMatrix


@dataclass(frozen=True)
class OscState:
    """One 2D oscillator number state |n1, n2>."""

    n1: int
    n2: int

    @property
    def shell(self) -> int:
        return self.n1 + self.n2

    def energy(self, hbar: float) -> float:
        return hbar * (self.shell + 1)


@dataclass(frozen=True)
class HHConfig:
    """Basis and coupling parameters.

    num_shells counts the shell groups N = 0 .. num_shells-1, so the basis
    holds num_shells*(num_shells+1)/2 states. The cubic operator couples
    shells up to three apart, so fewer than 4 shells makes the model
    degenerate; enumeration still works there, but the experiment driver
    refuses such configs.
    """

    hbar: float = 0.01
    lam: float = 1.0
    num_shells: int = 30

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ConfigurationError(f"hbar must be positive, got {self.hbar}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigurationError(f"lambda must be non-negative, got {self.lam}")
        if int(self.num_shells) != self.num_shells or self.num_shells < 1:
            raise ConfigurationError(
                f"num_shells must be a positive integer, got {self.num_shells}"
            )


def enumerate_basis(cfg: HHConfig) -> tuple[list[OscState], ShellPartition]:
    """Canonical basis order: ascending shell N, then ascending n1."""
    states: list[OscState] = []
    groups: list[ShellGroup] = []
    for n in range(cfg.num_shells):
        start = len(states)
        for n1 in range(n + 1):
            states.append(OscState(n1, n - n1))
        groups.append(
            ShellGroup(
                label=n,
                indices=tuple(range(start, len(states))),
                energy=cfg.hbar * (n + 1),
            )
        )
    return states, ShellPartition(tuple(groups))


def build_h0(cfg: HHConfig) -> SymmetricMatrix:
    """Diagonal harmonic part, entries hbar*(n1+n2+1)."""
    states, _ = enumerate_basis(cfg)
    return SymmetricMatrix(np.diag([s.energy(cfg.hbar) for s in states]))


def _ladder_tables(size: int, hbar: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1-D tables of <m|q|n>, <m|q^2|n> and <m|q^3|n> for m, n < size (at
    least 3, the reach of q^3)."""
    c = hbar / 2.0
    k = np.arange(size)
    q = np.diag(math.sqrt(c) * np.sqrt(k[1:]), 1)
    q2 = np.diag(c * np.sqrt(k[2:] * (k[2:] - 1)), 2)
    # Python's float pow: numpy's vector pow can differ from it by an ulp
    k32 = np.array([float(j) ** 1.5 for j in range(1, size)])
    q3 = np.diag(c ** 1.5 * 3.0 * k32, 1) + np.diag(
        c ** 1.5 * np.sqrt(k[3:] * (k[3:] - 1) * (k[3:] - 2)), 3
    )
    return q + q.T, q2 + q2.T + np.diag(c * (2 * k + 1)), q3 + q3.T


def build_v(cfg: HHConfig) -> SymmetricMatrix:
    """Matrix of q1^2 q2 - q2^3/3 (the coupling strength is NOT folded in;
    callers form H = H0 + lambda*V so one build serves a whole scan).

    Elements vanish unless the shells differ by exactly 1 or 3, and V
    conserves the parity of n1 since q1 only appears squared; the matrix
    declares that symmetry, and construction checks it. The build fills
    one shell-pair block at a time from the 1-D ladder tables.
    """
    size = cfg.num_shells
    q, q2, q3 = _ladder_tables(max(size, 3), cfg.hbar)
    starts = [n * (n + 1) // 2 for n in range(size)]
    v = np.zeros((starts[-1] + size, starts[-1] + size))
    for n in range(size):
        for npr in (n + 1, n + 3):
            if npr >= size:
                continue
            # bra |i, n-i>, ket |j, npr-j>, by enumeration order; reversed
            # slices give the n2 axes
            block = q2[: n + 1, : npr + 1] * q[n::-1, npr::-1] - (
                np.eye(n + 1, npr + 1) * q3[n::-1, npr::-1]
            ) / 3.0
            bra = slice(starts[n], starts[n] + n + 1)
            ket = slice(starts[npr], starts[npr] + npr + 1)
            v[bra, ket] = block
            v[ket, bra] = block.T
    # basis index starts[n] + i holds n1 = i
    n1 = np.concatenate([np.arange(n + 1) for n in range(size)])
    return SymmetricMatrix(v, sign=np.where(n1 % 2, -1.0, 1.0))


def build_h(cfg: HHConfig) -> SymmetricMatrix:
    """Full Hamiltonian H0 + lambda*V, bitwise the sum diag(H0) + lambda*V.

    Declares the exact Z2 symmetry it has: the parity of n1 (the reflection
    q1 -> -q1 of the potential's C3v symmetry), so eigh solves the even-n1
    and odd-n1 states as separate blocks. The symmetry is V's, checked in
    build_v; the diagonal H0 needs only the O(dim) check of
    SymmetricMatrix.scaled_plus_diagonal.
    """
    states, _ = enumerate_basis(cfg)
    energies = np.array([s.energy(cfg.hbar) for s in states])
    return build_v(cfg).scaled_plus_diagonal(cfg.lam, energies)


def bound_energy_ceiling(lam: float) -> float:
    """Energy 1/(6*lambda^2) of the potential saddle; classical motion is
    bound only below it, so truncated-basis states above are resonance
    artifacts rather than genuine bound levels."""
    if not math.isfinite(lam) or lam <= 0:
        raise InputError(f"lambda must be positive, got {lam}")
    return 1.0 / (6.0 * lam * lam)
