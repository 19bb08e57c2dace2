"""Truncated Henon-Heiles Hamiltonian in the real circular oscillator basis.

The system is the unit-mass, unit-frequency planar oscillator with the odd
cubic coupling q1^2 q2 - q2^3/3 = Im(z^3) / 3, z = q1 + i q2. The basis
states are i^l |n_+, n_->, with n_+ and n_- quanta of the circular modes
a_+- = (a1 -+ i a2) / sqrt(2), shell N = n_+ + n_- and angular momentum
l = n_+ - n_-. enumerate_basis gives each state's quanta (n_+, n_-) in the
layout of linalg.triangular_basis: shell N holds n_+ = 0 .. N from index
N(N+1)/2. There z = sqrt(hbar) (a_- + a_+^dagger), the phases i^l make
the coupling the real (z^3 + z^3^T) / 6, which build_v writes in closed
form, so the build has no truncation or rotation error of its own. The only
truncation is the basis cut itself, which contaminates the top three shells
of H; analyses therefore stay below that edge.

In this basis the potential's C3v symmetry is exact block structure: z^3
raises l by 3, so V links l only to l +- 3 and the classes l mod 3 are
blocks. An element between two classes is never written, so it is an exact
zero. The mirror q1 -> -q1 maps l to -l, swapping n_+ and n_-, and a mirror
pair of elements comes from the terms k and 3 - k of build_v, which give
the same value, so the two are equal bitwise. eigh then solves H as three
blocks (A1, A2 and one E, which serves both E partners).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, is_real
from .linalg import ShellPartition, SymmetricMatrix, triangular_basis, triangular_exchange


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
        # a boolean or a string is refused, not read as a number; finiteness
        # before int(), which raises its own errors on NaN and infinities
        if not (is_real(self.hbar) and math.isfinite(self.hbar) and self.hbar > 0):
            raise ConfigurationError(f"hbar must be positive, got {self.hbar!r}")
        if not (is_real(self.lam) and math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigurationError(f"lambda must be non-negative, got {self.lam!r}")
        if not (
            is_real(self.num_shells)
            and math.isfinite(self.num_shells)
            and int(self.num_shells) == self.num_shells
            and self.num_shells >= 1
        ):
            raise ConfigurationError(
                f"num_shells must be a positive integer, got {self.num_shells}"
            )
        # an integral float is kept as the int it equals, which the basis needs
        object.__setattr__(self, "num_shells", int(self.num_shells))


def enumerate_basis(cfg: HHConfig) -> tuple[np.ndarray, ShellPartition]:
    """The quanta (n_+, n_-) of each state, in linalg.triangular_basis's
    order: ascending shell N, then ascending n_+; shell N starts at index
    N(N+1)/2 and has energy hbar*(N+1). Also the partition into shells."""
    return triangular_basis(cfg.num_shells, 0, lambda n: cfg.hbar * (n + 1))


def symmetry(quanta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The structure V declares on enumerate_basis's states: the mirror
    l <-> -l as a permutation of the basis, and the blocks l mod 3."""
    return triangular_exchange(quanta), (quanta[:, 0] - quanta[:, 1]) % 3


def build_v(cfg: HHConfig) -> SymmetricMatrix:
    """Matrix of q1^2 q2 - q2^3/3 (the coupling strength is NOT folded in;
    callers form H = H0 + lambda*V so one build serves a whole scan).

    The term C(3, k) a_-^k a_+^dagger^(3-k) of z^3 takes the ket
    (n_+, n_-) to the bra (n_+ + 3 - k, n_- - k), shell N + 3 - 2k, with
    the element hbar^(3/2) / 6 * C(3, k) * sqrt((n_+ + 1) ... (n_+ + 3 - k)
    * n_- ... (n_- - k + 1)); V holds it there and at its transpose. So
    elements vanish unless the shells differ by exactly 1 or 3. These
    elements are V's nonzeros (about 7 per row); they go to
    SymmetricMatrix.from_nonzeros, which checks them as a list and
    scatters them into V's sector pieces, so no dense V is formed. The
    matrix declares the blocks l mod 3 and the mirror l <-> -l (the
    reflection q1 -> -q1), which swaps blocks 1 and 2; construction checks
    both bitwise on the nonzeros.
    """
    quanta, partition = enumerate_basis(cfg)
    n_plus, n_minus = quanta.T
    shell = n_plus + n_minus
    starts = np.array([g.indices[0] for g in partition.groups])
    bras, kets, values = [], [], []
    for k in range(4):
        ket = np.flatnonzero((n_minus >= k) & (shell + 3 - 2 * k < cfg.num_shells))
        # the integer under the root, exact in int64
        root = np.sqrt(
            (n_plus[ket, None] + np.arange(1, 4 - k)).prod(axis=1)
            * (n_minus[ket, None] - np.arange(k)).prod(axis=1)
        )
        bras.append(starts[shell[ket] + 3 - 2 * k] + n_plus[ket] + 3 - k)
        kets.append(ket)
        values.append(cfg.hbar ** 1.5 / 6.0 * math.comb(3, k) * root)
    perm, blocks = symmetry(quanta)
    return SymmetricMatrix.from_nonzeros(
        len(quanta), np.concatenate(bras), np.concatenate(kets), np.concatenate(values),
        perm=perm, blocks=blocks,
    )


def build_h(cfg: HHConfig) -> SymmetricMatrix:
    """Full Hamiltonian H0 + lambda*V with V's C3v structure, the
    SymmetricMatrix V.scaled_plus_diagonal(lambda, H0): it shares V's
    pieces (about a sixth of a dense V at 60 shells), so no dense V or H is
    formed, and each block eigh forms from it is bitwise the block of the
    dense sum. H0 depends on the shell alone, so it is mirror-invariant and
    needs only the O(dim) check."""
    quanta, _ = enumerate_basis(cfg)
    return build_v(cfg).scaled_plus_diagonal(cfg.lam, cfg.hbar * (quanta.sum(axis=1) + 1))


def bound_energy_ceiling(lam: float) -> float:
    """Energy 1/(6*lambda^2) of the potential saddle; classical motion is
    bound only below it, so truncated-basis states above are resonance
    artifacts rather than genuine bound levels."""
    if not math.isfinite(lam) or lam <= 0:
        raise InputError(f"lambda must be positive, got {lam}")
    return 1.0 / (6.0 * lam * lam)
