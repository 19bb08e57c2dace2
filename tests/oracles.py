"""Independent reference implementations the test suite checks the library
against.

Everything here deliberately avoids the code paths under test: the oscillator
cubic-coupling elements are integrated on a position-space grid instead of
ladder algebra, the circular-basis coupling is multiplied out from circular
ladder operators, or built in the Cartesian basis and rotated shell by shell
into the circular one, instead of written in closed form, the parabolic
rho^2 elements are recomputed in the spherical basis and rotated over, and
their Gauss-Laguerre rule is also run for all shell pairs at once, the
spreading width is found by enumerating every contiguous window, a
matrix's declared structure is decided by comparing every pair of entries,
or, for a list of nonzeros, by writing the list into one dense array and
checking each nonzero against that array, and W_pt is summed from the
dense array's columns, the basis layout both models share is enumerated one state at a time, a
Hamiltonian c * A + diag(d) is formed as one dense array and its symmetry
blocks are gathered out of it, and a decomposition's full-basis
eigenvectors are assembled from its sectors, which the library itself
never does.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import (
    eval_genlaguerre,
    eval_hermite,
    eval_laguerre,
    eval_legendre,
    roots_hermite,
    roots_laguerre,
    roots_legendre,
)

from specfrag.errors import InputError
from specfrag.linalg import SymmetricMatrix


# -------------------------------------------------------------- basis layout


def triangular_basis_loop(num_shells: int, first_label: int, energy):
    """Both models' basis one state at a time: the quanta (a, s - a) of
    shell s = 0 .. num_shells-1 in ascending a, and per shell the tuple
    (label, indices, energy(label)) with label = first_label + s, energy
    called on a Python int."""
    quanta: list[tuple[int, int]] = []
    groups: list[tuple[int, tuple[int, ...], float]] = []
    for s in range(num_shells):
        start = len(quanta)
        for a in range(s + 1):
            quanta.append((a, s - a))
        label = first_label + s
        groups.append((label, tuple(range(start, len(quanta))), energy(label)))
    return quanta, groups


def basis_index(quanta: np.ndarray) -> dict[tuple[int, int], int]:
    """The index of each state, keyed by its quanta (a, b)."""
    return {(a, b): i for i, (a, b) in enumerate(quanta.tolist())}


# ---------------------------------------------------------------- oscillator

def build_h0(cfg) -> SymmetricMatrix:
    """The Hénon–Heiles harmonic part: diagonal, hbar * (N + 1) on each of
    the N + 1 states of shell N, written one state at a time."""
    return SymmetricMatrix(np.diag(
        [cfg.hbar * (n + 1) for n in range(cfg.num_shells) for _ in range(n + 1)]
    ))


def hermite_v_element(bra: tuple, ket: tuple, hbar: float, nodes: int = 24) -> float:
    """<bra|q1^2 q2 - q2^3/3|ket> by 2D Gauss-Hermite quadrature.

    Position-space oscillator functions phi_n(q) with q = sqrt(hbar) x reduce
    the integral to hbar^(3/2) times a polynomial integral against
    exp(-x^2-y^2); the tensor rule is exact once 2*nodes-1 covers the degree.
    """
    m1, m2 = bra
    n1, n2 = ket
    x, w = roots_hermite(nodes)

    def psi(n, t):
        norm = 1.0 / math.sqrt((2.0 ** n) * math.factorial(n) * math.sqrt(math.pi))
        return norm * eval_hermite(n, t)

    fx = psi(m1, x) * psi(n1, x)
    fy = psi(m2, x) * psi(n2, x)
    # operator in scaled coordinates: hbar^(3/2) (x^2 y - y^3/3)
    ix2 = np.sum(w * fx * x * x)
    ix0 = np.sum(w * fx)
    iy1 = np.sum(w * fy * x)
    iy3 = np.sum(w * fy * x ** 3)
    return hbar ** 1.5 * (ix2 * iy1 - ix0 * iy3 / 3.0)


def circular_v_matrix(num_shells: int, hbar: float) -> np.ndarray:
    """q1^2 q2 - q2^3/3 = Im(z^3) / 3 between the real circular states of
    the first num_shells shells, from circular ladder operators alone.

    z = q1 + i q2 = sqrt(hbar) (a_- + a_+^dagger), with
    a_+- = (a1 -+ i a2) / sqrt(2). Shell N holds the states
    i^l |n_+, n_->, l = n_+ - n_-, in ascending n_+. z^3 raises l by 3, so
    on these states the phases turn (z^3 - z^3^dagger) / 6i into the real
    (z^3 + z^3^T) / 6. z only raises n_+ and lowers n_-, so every product
    between basis states stays inside the basis's occupations and the
    truncated ladder matrices multiply out exactly.
    """
    top = num_shells - 1  # the largest occupation of either mode
    a = np.diag(np.sqrt(np.arange(1.0, top + 1)), 1)
    eye = np.eye(top + 1)
    a_plus, a_minus = np.kron(a, eye), np.kron(eye, a)  # index n_+ (top+1) + n_-
    z = math.sqrt(hbar) * (a_minus + a_plus.T)
    z3 = z @ z @ z
    keep = [p * (top + 1) + (n - p) for n in range(num_shells) for p in range(n + 1)]
    return ((z3 + z3.T) / 6.0)[np.ix_(keep, keep)]


def cartesian_states(num_shells: int) -> list[tuple[int, int]]:
    """The Cartesian states |n1, n2> of the first num_shells shells, in
    ascending shell N and then ascending n1, so shell N holds the indices
    of the circular basis's shell N."""
    return [(n1, n - n1) for n in range(num_shells) for n1 in range(n + 1)]


def cartesian_v_matrix(num_shells: int, hbar: float) -> np.ndarray:
    """q1^2 q2 - q2^3/3 between the Cartesian states, from 1-D ladder
    tables of q, q^2 and q^3 with q = sqrt(hbar/2) (a + a^dagger), one
    shell-pair block at a time. Elements vanish unless the shells differ by
    exactly 1 or 3."""
    c = hbar / 2.0
    k = np.arange(max(num_shells, 3))  # at least the reach of q^3
    q = np.diag(math.sqrt(c) * np.sqrt(k[1:]), 1)
    q2 = np.diag(c * np.sqrt(k[2:] * (k[2:] - 1)), 2)
    # Python's float pow: numpy's vector pow can differ from it by an ulp
    k32 = np.array([float(j) ** 1.5 for j in range(1, k.size)])
    q3 = np.diag(c ** 1.5 * 3.0 * k32, 1) + np.diag(
        c ** 1.5 * np.sqrt(k[3:] * (k[3:] - 1) * (k[3:] - 2)), 3
    )
    q, q2, q3 = q + q.T, q2 + q2.T + np.diag(c * (2 * k + 1)), q3 + q3.T
    starts = [n * (n + 1) // 2 for n in range(num_shells)]
    v = np.zeros((starts[-1] + num_shells, starts[-1] + num_shells))
    for n in range(num_shells):
        for npr in (n + 1, n + 3):
            if npr >= num_shells:
                continue
            # bra |i, n-i>, ket |j, npr-j>; reversed slices give the n2 axes
            block = q2[: n + 1, : npr + 1] * q[n::-1, npr::-1] - (
                np.eye(n + 1, npr + 1) * q3[n::-1, npr::-1]
            ) / 3.0
            bra = slice(starts[n], starts[n] + n + 1)
            ket = slice(starts[npr], starts[npr] + npr + 1)
            v[bra, ket] = block
            v[ket, bra] = block.T
    return v


def cartesian_h(num_shells: int, hbar: float, lam: float):
    """H0 + lam * V in the Cartesian basis, declaring its exact Z2
    symmetry, the parity of n1, as the blocks n1 mod 2."""
    states = cartesian_states(num_shells)
    h0 = np.diag([hbar * (n1 + n2 + 1) for n1, n2 in states])
    v = cartesian_v_matrix(num_shells, hbar)
    return SymmetricMatrix(h0 + lam * v, blocks=[n1 % 2 for n1, _ in states])


def circular_rotations(num_shells: int) -> list[np.ndarray]:
    """U_N for N < num_shells, the real part of each shell's
    Cartesian-to-circular rotation.

    The state of p a_+ quanta and N - p a_- quanta (angular momentum
    l = 2p - N) has Cartesian coefficient i^n2 U_N[n1, p] on |n1, n2>, with
    U_N[n1, p] = K sqrt(C(N, p)) / (sqrt(C(N, n1)) 2^(N/2)) and K the
    coefficient of t^n2 in (1 + t)^p (1 - t)^(N - p). K is kept in exact
    integers, shell N + 1's from shell N's by one more factor (1 - t), or
    (1 + t) for p = N + 1, so U_N is orthogonal to roundoff; a float
    recurrence loses digits to cancellation.
    """
    rotations = []
    k = np.ones((1, 1), dtype=object)  # K of shell 0, rows n2, columns p
    for n in range(num_shells):
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


def rotate_to_circular(m: np.ndarray, num_shells: int) -> np.ndarray:
    """C^dagger m C for a matrix m between the Cartesian states, with C the
    block-diagonal rotation onto the real circular states i^l |n_+, n_->
    (circular_v_matrix's basis): C[(n1, n2), p] = i^(n2 + l) U_N[n1, p].

    Complex: an operator real in the circular basis comes out with an
    imaginary part of roundoff, which the caller can bound.
    """
    states = cartesian_states(num_shells)
    u = np.zeros((len(states), len(states)))
    for n, rot in enumerate(circular_rotations(num_shells)):
        shell = slice(n * (n + 1) // 2, (n + 1) * (n + 2) // 2)
        u[shell, shell] = rot
    n2 = np.array([s[1] for s in states])
    ell = np.array([2 * p - n for n in range(num_shells) for p in range(n + 1)])
    # powers of i are exact, so the phases add no roundoff of their own
    row, col = 1j ** (n2 % 4), 1j ** (ell % 4)
    inner = (row.conj()[:, None] * m) * row
    return col.conj()[:, None] * (u.T @ inner.real @ u + 1j * (u.T @ inner.imag @ u)) * col


# ------------------------------------------------------- kepler, spherical

def radial_r4_integral(n: int, l: int, npr: int, lpr: int, nodes: int = 24) -> float:
    """integral R_nl(r) R_npr,lpr(r) r^4 dr for hydrogen bound states."""
    kappa = 1.0 / n + 1.0 / npr

    def poly(nn, ll, r):
        # R without its exponential: (2/n^2) sqrt((n-l-1)!/(n+l)!) (2r/n)^l L
        c = (2.0 / nn ** 2) * math.sqrt(
            math.factorial(nn - ll - 1) / math.factorial(nn + ll)
        )
        s = 2.0 * r / nn
        return c * s ** ll * eval_genlaguerre(nn - ll - 1, 2 * ll + 1, s)

    t, w = roots_laguerre(nodes)
    r = t / kappa
    return float(np.sum(w * poly(n, l, r) * poly(npr, lpr, r) * r ** 4) / kappa)


def angular_sin2_integral(l: int, lpr: int, nodes: int = 24) -> float:
    """integral Y_l0 Y_lpr,0 sin^2(theta) dOmega, real spherical harmonics."""
    u, w = roots_legendre(nodes)
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi)) * math.sqrt(
        (2 * lpr + 1) / (4.0 * math.pi)
    )
    vals = eval_legendre(l, u) * eval_legendre(lpr, u) * (1.0 - u * u)
    return float(2.0 * math.pi * norm * np.sum(w * vals))


def rho2_spherical_matrix(max_n: int) -> np.ndarray:
    """rho^2 = r^2 sin^2(theta) between spherical states (n,l), m=0,
    ordered ascending n then l."""
    states = [(n, l) for n in range(1, max_n + 1) for l in range(n)]
    dim = len(states)
    out = np.zeros((dim, dim))
    for i, (n, l) in enumerate(states):
        for j in range(i, dim):
            npr, lpr = states[j]
            val = radial_r4_integral(n, l, npr, lpr) * angular_sin2_integral(l, lpr)
            out[i, j] = out[j, i] = val
    return out


def parabolic_spherical_overlap(n: int, nodes: int = 24) -> np.ndarray:
    """Shell-n overlap block U[i, j] = <spherical (n, l=j) | parabolic (n1=i)>
    at m=0, by tensor Gauss-Laguerre over scaled parabolic coordinates.

    With xi = n u, eta = n v both wavefunctions carry exp(-(u+v)/2), so the
    combined weight is exactly the Laguerre one and the rest is polynomial:
    r = n(u+v)/2, cos(theta) = (u-v)/(u+v), volume element 2*pi*(xi+eta)/4.
    """
    u, w = roots_laguerre(nodes)
    uu, vv = np.meshgrid(u, w_ := u, indexing="ij")
    ww = np.outer(w, w)
    s = uu + vv
    out = np.zeros((n, n))
    for n1 in range(n):
        n2 = n - 1 - n1
        par = (
            math.sqrt(2.0) / n ** 2
            * eval_laguerre(n1, uu)
            * eval_laguerre(n2, vv)
            / math.sqrt(2.0 * math.pi)
        )
        for l in range(n):
            c = (2.0 / n ** 2) * math.sqrt(
                math.factorial(n - l - 1) / math.factorial(n + l)
            ) * math.sqrt((2 * l + 1) / (4.0 * math.pi))
            # (2r/n)^l P_l(cos) = s^l P_l((u-v)/s): polynomial, nodes keep s>0
            sph = c * s ** l * eval_legendre(l, (uu - vv) / s) * eval_genlaguerre(
                n - l - 1, 2 * l + 1, s
            )
            # measure: 2*pi * (xi+eta)/4 * dxi deta = 2*pi * n^3 s/4 * du dv
            out[n1, l] = np.sum(ww * par * sph * 2.0 * math.pi * n ** 3 * s / 4.0)
    return out


def rho2_parabolic_via_spherical(max_n: int) -> tuple[np.ndarray, np.ndarray]:
    """rho^2 in the parabolic basis obtained entirely from the spherical side:
    block-diagonal overlap U rotating the spherical matrix. Returns (matrix, U)."""
    blocks = [parabolic_spherical_overlap(n) for n in range(1, max_n + 1)]
    dim = sum(b.shape[0] for b in blocks)
    u = np.zeros((dim, dim))
    pos = 0
    for b in blocks:
        k = b.shape[0]
        u[pos : pos + k, pos : pos + k] = b
        pos += k
    sph = rho2_spherical_matrix(max_n)
    return u @ sph @ u.T, u


def rho2_entries_all_pairs(max_n: int, nodes: int) -> np.ndarray:
    """The parabolic rho^2 matrix at one Gauss-Laguerre rule, with the
    Laguerre tables of every shell pair n <= n' built at once.

    The same arithmetic as kepler._rho2_entries, one batch of pairs instead
    of one shell's pairs at a time, so the two must agree bitwise: each
    pair's product is the same GEMM with the same shapes. Shell n starts at
    index n(n-1)/2 and holds |n1, n-1-n1> in ascending n1.
    """
    from numpy.polynomial import laguerre

    t, w = laguerre.laggauss(nodes)
    ns, nps = np.triu_indices(max_n)
    ns, nps = ns + 1, nps + 1
    a = (ns + nps) / (2.0 * ns * nps)
    # left[pair, p, node] = L_p(t/(a n)), right[pair, node, p'] = L_p'(t/(a n'))
    left = np.swapaxes(laguerre.lagvander(t / (a * ns)[:, None], max_n - 1), 1, 2)
    right = laguerre.lagvander(t / (a * nps)[:, None], max_n - 1)
    diag = ns == nps
    j = []
    for k in (1, 2):
        jk = a[:, None, None] ** (-(k + 1)) * ((left * (w * t ** k)) @ right)
        jk[diag] = 0.5 * (jk[diag] + np.swapaxes(jk[diag], 1, 2))
        j.append(jk)

    dim = max_n * (max_n + 1) // 2
    rho2 = np.zeros((dim, dim))
    for n, npr, j1, j2 in zip(ns.tolist(), nps.tolist(), *j):
        pref = (math.sqrt(2.0) / n ** 2) * (math.sqrt(2.0) / npr ** 2) / 4.0
        block = pref * (
            j2[:n, :npr] * j1[n - 1::-1, npr - 1::-1]
            + j1[:n, :npr] * j2[n - 1::-1, npr - 1::-1]
        )
        bra = slice(n * (n - 1) // 2, n * (n + 1) // 2)
        ket = slice(npr * (npr - 1) // 2, npr * (npr + 1) // 2)
        rho2[bra, ket] = block
        rho2[ket, bra] = block.T
    return rho2


# ------------------------------------------------------------ metrics side

def brute_force_spreading_width(energies, weights, return_window: bool = False):
    """Minimal E_b - E_a over all contiguous index windows holding >= 0.5,
    by plain O(n^2) enumeration. The window is the lowest-energy minimal
    one: of those, the one that ends lowest, then the one with the fewest
    levels."""
    e = np.asarray(energies, dtype=float)
    p = np.asarray(weights, dtype=float)
    best = (math.inf, 0, 0)  # (width, b, -a)
    for a in range(e.size):
        s = 0.0
        for b in range(a, e.size):
            s += p[b]
            if s >= 0.5:
                best = min(best, (e[b] - e[a], b, -a))
    width, b, minus_a = best
    return (width, (-minus_a, b)) if return_window else width


def hydrogen_ground_rho2() -> float:
    """<1s|r^2 sin^2 theta|1s> by direct 3D quadrature (radial x angular)."""
    t, w = roots_laguerre(32)
    # |1s|^2 = exp(-2r)/pi; radial: int exp(-2r) r^4 dr = int e^-t (t/2)^4 dt/2
    radial = float(np.sum(w * (t / 2.0) ** 4) / 2.0)
    u, wl = roots_legendre(32)
    angular = float(np.sum(wl * (1.0 - u * u)))  # int sin^2 d(cos)
    return (1.0 / math.pi) * radial * angular * 2.0 * math.pi


# --------------------------------------------------------- linalg structure

def dense_structure_check(a, perm, blocks) -> np.ndarray | None:
    """What SymmetricMatrix(a, perm, blocks) should hold, or None
    where it should refuse a finite square a, by comparing every pair of
    entries in plain loops.

    The lower triangle is mirrored onto the upper one (plus 0.0, so an
    off-diagonal -0.0 turns +0.0) and the diagonal kept as given. perm must
    be an involution that maps each block into one block, and then every
    pair (i, j) must satisfy m[perm[i], perm[j]] == m[i, j] and, where the
    labels differ, m[i, j] == 0.
    """
    a = np.asarray(a, dtype=float)
    dim = a.shape[0]
    m = np.empty_like(a)
    for i in range(dim):
        for j in range(dim):
            m[i, j] = a[i, i] if i == j else a[max(i, j), min(i, j)] + 0.0
    perm = list(range(dim)) if perm is None else [int(k) for k in perm]
    labels = [0] * dim if blocks is None else [int(k) for k in blocks]
    if any(perm[perm[i]] != i for i in range(dim)):
        return None
    images = {}
    for i in range(dim):
        if images.setdefault(labels[i], labels[perm[i]]) != labels[perm[i]]:
            return None
    for i in range(dim):
        for j in range(dim):
            if m[perm[i], perm[j]] != m[i, j]:
                return None
            if labels[i] != labels[j] and m[i, j] != 0.0:
                return None
    return m


def lower_nonzeros(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The list the dense constructor is fed: a's strict lower triangle's
    nonzeros (!= 0.0) and its whole diagonal, signed zeros included, in
    row-major order, as (rows, cols, values)."""
    keep = np.tril(a != 0.0, -1) | np.eye(a.shape[0], dtype=bool)
    rows, cols = np.nonzero(keep)
    return rows, cols, a[rows, cols]


def place_checked(dim: int, rows, cols, values, perm, labels) -> np.ndarray:
    """The dense matrix a list of nonzeros gives, or InputError, decided on
    one dim x dim array: each nonzero is written at (row, col), then all of
    them at (col, row), so the last write to a place holds it; then, each
    over the whole list and in this order, every nonzero must find its own
    value at its place, the value at its image under perm (+0.0 where
    nothing was written), and labels equal at its row and column. perm and
    labels are an involution and block labels it maps onto blocks."""
    i, j = np.asarray(rows), np.asarray(cols)
    values = np.asarray(values, dtype=float)
    perm, labels = np.asarray(perm), np.asarray(labels)
    out = np.zeros((dim, dim))
    out[i, j] = values
    out[j, i] = values
    if not np.array_equal(out[i, j], values):
        raise InputError("matrix has two different values for one entry or its mirror")
    if not np.array_equal(out[perm[i], perm[j]], values):
        raise InputError("matrix does not commute with its declared symmetry")
    if np.any(labels[i] != labels[j]):
        raise InputError("matrix has a nonzero entry between two declared blocks")
    return out


def w_perturbative_dense_terms(v: np.ndarray, partition, target: int,
                               lam: float) -> list[tuple[int, float]]:
    """W_pt's terms from the dense V's target columns, each shell's rows
    gathered by fancy indexing: (lam^2 / dim T_N) * sum of |V_alpha,i|^2
    over the shell's rows, over (E_N - E_n)^2, per shell n != N."""
    tgt = partition.group(target)
    t_idx = np.asarray(tgt.indices)
    squares = v[:, t_idx] ** 2
    terms = []
    for g in partition.groups:
        if g.label != target:
            denom = tgt.energy - g.energy
            leak = squares[np.asarray(g.indices)].sum()
            terms.append((g.label, float(lam * lam * leak / (denom * denom) / t_idx.size)))
    return terms


def w_perturbative_dense(v: np.ndarray, partition, target: int, lam: float) -> float:
    """W_pt: w_perturbative_dense_terms summed."""
    return float(sum(term for _, term in w_perturbative_dense_terms(v, partition, target, lam)))


def scaled_plus_diagonal(a, c: float, d) -> np.ndarray:
    """c * A + diag(d) as one dense array, for a SymmetricMatrix or a dense
    A: c * A + 0.0, so an off-diagonal -0.0 turns +0.0, with
    d + c * diag(A) on its diagonal."""
    a = a.entries if isinstance(a, SymmetricMatrix) else np.asarray(a)
    h = c * a
    h += 0.0
    h[np.diag_indices(a.shape[0])] = np.asarray(d, dtype=float) + c * a.diagonal()
    return h


def sector_block(h: np.ndarray, sector) -> np.ndarray:
    """The block of the dense symmetric h on one symmetry sector, gathered
    out of h: the sector's fixed states first, then one row
    (e_r + parity * e_q) / sqrt(2) per pair r, q. Since h = PhP holds
    bitwise, each element's partner terms collapse exactly onto
    sqrt(2) * h[r, fixed] and h[r, r'] + parity * h[r, q']."""
    nf = sector.fixed.size
    b = np.empty((sector.size, sector.size))
    rows = h[sector.reps]
    b[:nf, :nf] = h[np.ix_(sector.fixed, sector.fixed)]
    b[nf:, :nf] = math.sqrt(2.0) * rows[:, sector.fixed]
    b[:nf, nf:] = b[nf:, :nf].T
    b[nf:, nf:] = rows[:, sector.reps] + rows[:, sector.partners] * sector.parity
    return b


def assembled_eigenvectors(d) -> np.ndarray:
    """The dim x dim matrix whose column i holds eigenstate i of the
    decomposition d in the basis its matrix was written in.

    A sector's row r is a fixed basis state, or the pair
    (e_r + parity * e_q) / sqrt(2) with q its partner, so a block
    eigenvector y puts y_r on a fixed state, y_r / sqrt(2) on r and
    parity * y_r / sqrt(2) on q.
    """
    vecs = np.zeros((d.dim, d.dim))
    for part in d.sectors:
        sec, y, cols = part.sector, part.vectors, part.columns
        nf = sec.fixed.size
        vecs[np.ix_(sec.fixed, cols)] = y[:nf]
        pair = y[nf:] / math.sqrt(2.0)
        vecs[np.ix_(sec.reps, cols)] = pair
        vecs[np.ix_(sec.partners, cols)] = sec.parity * pair
    return vecs
