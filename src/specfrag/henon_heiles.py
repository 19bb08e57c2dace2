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


def _q_elem(m: int, n: int, hbar: float) -> float:
    # <m|q|n>
    if abs(m - n) != 1:
        return 0.0
    return math.sqrt(hbar / 2.0) * math.sqrt(max(m, n))


def _q2_elem(m: int, n: int, hbar: float) -> float:
    # <m|q^2|n>
    if m == n:
        return (hbar / 2.0) * (2 * n + 1)
    if abs(m - n) == 2:
        k = max(m, n)
        return (hbar / 2.0) * math.sqrt(k * (k - 1))
    return 0.0


def _q3_elem(m: int, n: int, hbar: float) -> float:
    # <m|q^3|n>
    if abs(m - n) == 3:
        k = max(m, n)
        return (hbar / 2.0) ** 1.5 * math.sqrt(k * (k - 1) * (k - 2))
    if abs(m - n) == 1:
        k = min(m, n)
        return (hbar / 2.0) ** 1.5 * 3.0 * (k + 1) ** 1.5
    return 0.0


def build_v(cfg: HHConfig) -> SymmetricMatrix:
    """Matrix of q1^2 q2 - q2^3/3 (the coupling strength is NOT folded in;
    callers form H = H0 + lambda*V so one build serves a whole scan).

    Elements vanish unless the shells differ by exactly 1 or 3, and V
    conserves the parity of n1 since q1 only appears squared.
    """
    states, _ = enumerate_basis(cfg)
    dim = len(states)
    v = np.zeros((dim, dim))
    for j, ket in enumerate(states):
        for i in range(j + 1):
            bra = states[i]
            dn = abs(bra.shell - ket.shell)
            if dn != 1 and dn != 3:
                continue
            e = 0.0
            if abs(bra.n2 - ket.n2) == 1 and (
                bra.n1 == ket.n1 or abs(bra.n1 - ket.n1) == 2
            ):
                e += _q2_elem(bra.n1, ket.n1, cfg.hbar) * _q_elem(bra.n2, ket.n2, cfg.hbar)
            if bra.n1 == ket.n1 and abs(bra.n2 - ket.n2) in (1, 3):
                e -= _q3_elem(bra.n2, ket.n2, cfg.hbar) / 3.0
            v[j, i] = e
    return SymmetricMatrix(v)


def build_h(cfg: HHConfig) -> SymmetricMatrix:
    """Full Hamiltonian H0 + lambda*V.

    Declares the exact Z2 symmetry it has: the parity of n1 (the reflection
    q1 -> -q1 of the potential's C3v symmetry), so eigh solves the even-n1
    and odd-n1 states as separate blocks.
    """
    states, _ = enumerate_basis(cfg)
    h0 = build_h0(cfg)
    v = build_v(cfg)
    parity = [(-1.0) ** s.n1 for s in states]
    return SymmetricMatrix(h0.entries + cfg.lam * v.entries, sign=parity)


def bound_energy_ceiling(lam: float) -> float:
    """Energy 1/(6*lambda^2) of the potential saddle; classical motion is
    bound only below it, so truncated-basis states above are resonance
    artifacts rather than genuine bound levels."""
    if not math.isfinite(lam) or lam <= 0:
        raise InputError(f"lambda must be positive, got {lam}")
    return 1.0 / (6.0 * lam * lam)
