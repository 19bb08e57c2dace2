"""Truncated Henon-Heiles Hamiltonian in the 2D oscillator basis.

The system is the unit-mass, unit-frequency planar oscillator with the odd
cubic coupling q1^2 q2 - q2^3/3. Matrix elements come from ladder algebra,
q = sqrt(hbar/2) (a + a^dagger), evaluated in closed form: every nonzero
element is an exact integer expression under a square root times
(hbar/2)^(3/2), so the build has no truncation error of its own. The only
truncation is the basis cut itself, which contaminates the top three shells
of H; analyses therefore stay below that edge.

build_v and build_h write the model in the Cartesian basis |n1, n2>.
build_v_circular and build_h_circular rotate build_v's matrix, shell by
shell, into a real circular basis |N, l>, where the potential's C3v
symmetry is exact block structure: the coupling r^3 sin(3 phi) / 3 changes
the angular momentum l by 3, so the classes l mod 3 are blocks, and the
mirror q1 -> -q1 maps l to -l. eigh then solves H as three blocks (A1, A2
and one E, which serves both E partners) instead of the two n1-parity
blocks of the Cartesian basis.
Shell projections, and with them every metric, are the same in both bases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, NumericalError
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
        # finiteness first: int() raises its own errors on NaN and infinities
        if not (
            math.isfinite(self.num_shells)
            and int(self.num_shells) == self.num_shells
            and self.num_shells >= 1
        ):
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
    declares that parity as the blocks n1 mod 2, and construction checks
    that no entry joins them. The build fills one shell-pair block at a
    time from the 1-D ladder tables.
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
    return SymmetricMatrix(v, blocks=n1 % 2)


def build_h(cfg: HHConfig) -> SymmetricMatrix:
    """Full Hamiltonian H0 + lambda*V, bitwise the sum diag(H0) + lambda*V.

    Declares the exact Z2 symmetry it has, the parity of n1 (the reflection
    q1 -> -q1 of the potential's C3v symmetry), as the blocks n1 mod 2, so
    eigh solves the even-n1 and odd-n1 states as separate blocks. The
    blocks are V's, checked in build_v; the diagonal H0 needs only the
    O(dim) check of SymmetricMatrix.scaled_plus_diagonal. build_h_circular declares all of
    C3v and splits the same spectrum into three blocks.
    """
    states, _ = enumerate_basis(cfg)
    energies = np.array([s.energy(cfg.hbar) for s in states])
    return build_v(cfg).scaled_plus_diagonal(cfg.lam, energies)


# largest entry the circular rotation may leave where the selection rules
# put an exact zero, or between mirror-image entries, relative to max |V|
CIRCULAR_RESIDUE_RTOL = 1e-12


def _circular_rotations(size: int) -> list[np.ndarray]:
    """U_N for N < size, the real part of each shell's Cartesian-to-circular
    rotation.

    With a_+ = (a1 - i a2) / sqrt(2) and a_- = (a1 + i a2) / sqrt(2), the
    state of p a_+ quanta and N - p a_- quanta (angular momentum
    l = 2p - N) has Cartesian coefficient i^n2 U_N[n1, p] on |n1, n2>, with
    U_N[n1, p] = K sqrt(C(N, p)) / (sqrt(C(N, n1)) 2^(N/2)) and K the
    coefficient of t^n2 in (1 + t)^p (1 - t)^(N - p). K is kept in exact
    integers, shell N + 1's from shell N's by one more factor (1 - t), or
    (1 + t) for p = N + 1, so U_N is orthogonal to roundoff; a float
    recurrence loses digits to cancellation. Columns p and N - p are equal
    up to the sign (-1)^n2, bitwise.
    """
    rotations = []
    k = np.ones((1, 1), dtype=object)  # K of shell 0, rows n2, columns p
    for n in range(size):
        root_c = np.sqrt(np.array([math.comb(n, j) for j in range(n + 1)], dtype=float))
        # row n1 holds n2 = N - n1
        rotations.append(k[::-1].astype(float) * root_c / (root_c[:, None] * math.sqrt(2.0**n)))
        nxt = np.zeros((n + 2, n + 2), dtype=object)
        nxt[:-1, :-1] = k
        nxt[1:, :-1] -= k
        nxt[:-1, -1] = k[:, -1]
        nxt[1:, -1] += k[:, -1]
        k = nxt
    return rotations


def build_v_circular(cfg: HHConfig) -> SymmetricMatrix:
    """build_v's matrix in the real circular basis, with C3v declared.

    Shell N keeps the indices enumerate_basis gives it; its state p is
    i^l times the circular state of _circular_rotations, l = 2p - N. That
    phase makes V real: with z = q1 + i q2 = sqrt(hbar) (a_- + a_+^dagger),
    V = Im(z^3) / 3 links l only to l +- 3, and each shell-pair block is
    G o (U_N^T (S o V_NM) U_M), where S = (-1)^((d - 1) / 2) for the odd
    step d = m2 - n2 of a nonzero element and G = +1 or -1 for
    l' - l = +3 or -3.

    The matrix declares the blocks l mod 3 and the mirror l <-> -l (the
    reflection q1 -> -q1), which swaps blocks 1 and 2. Entries the
    selection rule makes zero and the gap between mirror-image entries are
    roundoff; NumericalError if either exceeds CIRCULAR_RESIDUE_RTOL *
    max |V|. They are then written exactly: zeros between the classes, and
    each block's second half of entries copied from its mirror image, so
    the declared structure holds bitwise. The Cartesian V is dropped before
    the circular matrix is declared.
    """
    size = cfg.num_shells
    starts = [n * (n + 1) // 2 for n in range(size)]
    shell = np.repeat(np.arange(size), np.arange(1, size + 1))
    p = np.arange(shell.size) - np.repeat(starts, np.arange(1, size + 1))
    ell = 2 * p - shell  # the angular momentum l
    v = build_v(cfg).entries
    tol = CIRCULAR_RESIDUE_RTOL * max(v.max(), -v.min())
    rot = _circular_rotations(size)
    blocks = []
    for n in range(size):
        for npr in (n + 1, n + 3):
            if npr >= size:
                continue
            bra = slice(starts[n], starts[n] + n + 1)
            ket = slice(starts[npr], starts[npr] + npr + 1)
            d = (npr - np.arange(npr + 1)) - (n - np.arange(n + 1))[:, None]
            block = rot[n].T @ (np.where(d % 4 == 1, 1.0, -1.0) * v[bra, ket]) @ rot[npr]
            dl = ell[ket] - ell[bra, None]
            residue = np.abs(block[np.abs(dl) != 3]).max(initial=0.0)
            block *= np.sign(dl) * (np.abs(dl) == 3)
            residue = max(residue, np.abs(block - block[::-1, ::-1]).max())
            if residue > tol:
                raise NumericalError(
                    f"circular rotation of shells {n} and {npr} left {residue:.3e}, "
                    f"more than {tol:.3e}"
                )
            # the mirror reverses both axes of a block, and so its flat order
            flat = block.reshape(-1)
            half = flat.size // 2
            flat[flat.size - half:] = flat[:half][::-1]
            blocks.append((bra, ket, block))
    # the blocks hold all of V that is needed; the dense Cartesian copy goes
    # before the circular one is allocated
    del v
    vc = np.zeros((shell.size, shell.size))
    for bra, ket, block in blocks:
        vc[bra, ket] = block
        vc[ket, bra] = block.T
    return SymmetricMatrix(vc, perm=np.arange(shell.size) + shell - 2 * p, blocks=ell % 3)


def build_h_circular(cfg: HHConfig) -> SymmetricMatrix:
    """H0 + lambda*V in build_v_circular's basis, bitwise the sum
    diag(H0) + lambda*V, with its C3v structure declared. H0 is the same
    diagonal as in build_h, since the rotation stays inside each shell."""
    states, _ = enumerate_basis(cfg)
    energies = np.array([s.energy(cfg.hbar) for s in states])
    return build_v_circular(cfg).scaled_plus_diagonal(cfg.lam, energies)


def bound_energy_ceiling(lam: float) -> float:
    """Energy 1/(6*lambda^2) of the potential saddle; classical motion is
    bound only below it, so truncated-basis states above are resonance
    artifacts rather than genuine bound levels."""
    if not math.isfinite(lam) or lam <= 0:
        raise InputError(f"lambda must be positive, got {lam}")
    return 1.0 / (6.0 * lam * lam)
