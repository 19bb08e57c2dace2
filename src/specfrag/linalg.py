"""Real-symmetric linear algebra underneath the fragmentation metrics.

One class, SymmetricMatrix, holds every operator and Hamiltonian here: an
operator a model builds once (V, rho^2), checked against the exact
symmetry and blocks it declares, and each H = c * A + diag(d) made from
it, which shares its pieces. No run holds a dense V or H, and rho^2 is
dense only inside its build (kepler._rho2_entries): once built, an
operator's diagonal lives in one array, its other entries once in one
buffer, and one slot table says where each lives (see _scatter); the
scatter writes by it, and columns and entries read by it. eigh solves the
symmetry sectors as separate blocks and validates each on the spot; the
decomposition it returns stays in sector form, which projection_onto_subset,
and with it every metric, reads directly.

numpy's solves release the GIL, so independent decompositions can run on
several Python threads at once; single_threaded_blas pins numpy's bundled
OpenBLAS to one thread, so each solve runs whole on the thread that calls it.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConvergenceError, InputError

ORTHOGONALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-10
COMPLETENESS_TOL = 1e-10


class SymmetricMatrix:
    """Real symmetric matrix with an optional exact Z2 symmetry and
    optional exact blocks, held as its sector pieces; with a scale c, the
    Hamiltonian H = c * A + diag(d) of such a matrix A.

    The lower triangle of the input is authoritative; construction mirrors
    it onto the upper triangle, so ``entries[i, j] == entries[j, i]`` holds
    exactly (bitwise), not merely within roundoff.

    The symmetry is an involution P of the basis, ``(P x)[i] = x[perm[i]]``
    with ``perm[perm[i]] == i``. Omitted, perm defaults to the identity and
    the matrix has one symmetry sector. A declared P must commute with the
    matrix exactly: ``entries[i, j] == entries[perm[i], perm[j]]`` for
    every pair, else InputError.

    blocks gives each basis state an integer label; omitted, every state is
    in block 0. Declared blocks must be exact, ``entries[i, j] == 0`` for
    every pair with different labels, and perm must map blocks onto blocks:
    all states of one block go to states of one block, which may be the same
    one or another, else InputError. A parity, a sign per basis state that
    the matrix commutes with, is declared as blocks: label 0 for the states
    of sign +1 and 1 for those of sign -1.

    The checks run on the matrix's nonzeros only (see _check_nonzeros),
    which the dense constructor reads off its input: the strict lower
    triangle's nonzeros and the whole diagonal. The matrix keeps no
    dim x dim array: it holds its diagonal as given, perm, blocks, and
    one buffer of its off-diagonal entries with the slot table that says
    where each lives (see _scatter). Per orbit of blocks, the four pieces
    eigh forms its sector blocks from (see _Orbit) are views of that
    buffer. Signed zeros: the diagonal holds the value given there, -0.0
    included, and every other zero is +0.0. ``columns`` reads any columns
    through the slot table, and ``entries`` is all of them.

    scale is None for a matrix a constructor built, and c for an H that
    scaled_plus_diagonal made from one. Every entry read, in entries,
    columns or a block eigh solves, is the diagonal's on the diagonal and
    c * A_ij + 0.0 off it, c = 1.0 unscaled: bitwise the dense entry.

    Everything held is frozen after construction and safe to share across
    threads.
    """

    __slots__ = ("scale", "diagonal", "perm", "blocks", "_orbits", "_layout")

    def __init__(self, entries, perm=None, blocks=None) -> None:
        a = _array(entries, float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError(f"expected a square matrix, got shape {a.shape}")
        dim = a.shape[0]
        if dim < 1:
            raise InputError("matrix dimension must be at least 1")
        if not _finite(a):
            raise InputError("matrix entries must be finite")
        self._build(dim, lambda: _lower_nonzeros(a), perm, blocks)

    @classmethod
    def from_nonzeros(cls, dim: int, rows, cols, values, perm=None,
                      blocks=None) -> SymmetricMatrix:
        """The dim x dim matrix that holds values[k] at (rows[k], cols[k])
        and at its mirror (cols[k], rows[k]), and +0.0 wherever nothing is
        given.

        Either triangle may be given, or both; a nonzero given twice, as
        itself or as its mirror, must carry the same value each time, else
        InputError. perm and blocks are declared and checked as for the
        dense constructor. Given a dense matrix's strict lower triangle
        nonzeros and its whole diagonal, it holds bitwise what the dense
        constructor holds for that matrix.
        """
        if isinstance(dim, bool) or not (isinstance(dim, (int, np.integer)) and dim >= 1):
            raise InputError(f"matrix dimension must be an integer of at least 1, got {dim!r}")
        if int(dim) > np.iinfo(np.intp).max // np.dtype(np.intp).itemsize:
            raise InputError(f"matrix dimension {dim!r} is past numpy's index range")
        i, j = _basis_indices(rows, dim, "rows"), _basis_indices(cols, dim, "cols")
        x = _array(values, float)
        if not i.shape == j.shape == x.shape:
            raise InputError("rows, cols and values must be 1-D and of one length")
        if not _finite(x):
            raise InputError("matrix entries must be finite")
        m = object.__new__(cls)
        m._build(dim, lambda: (i, j, x), perm, blocks)
        return m

    def scaled_plus_diagonal(self, c: float, diagonal) -> SymmetricMatrix:
        """H = c * A + diag(diagonal), A being this unscaled matrix: H holds
        c and its own diagonal, and shares A's perm, blocks, pieces and
        slot table by reference, so a scan over couplings neither repeats the
        O(dim^2) check nor gathers anything.

        c * A commutes with P bitwise because A does, and so does the sum
        once the diagonal is invariant under the permutation,
        diagonal[perm[i]] == diagonal[i], since the same operands then go
        through the same operations; an entry between two blocks is
        c * 0.0 + 0.0 == 0.0. The O(dim) condition is what is checked.
        Overflow is decided without forming H: rounding is monotone, so
        fl(|c| * max|A_ij|), i != j, is infinite exactly when one such
        c * A_ij overflows; H's diagonal d + c * diag(A) is checked alone.
        InputError if this matrix is already scaled, or if the diagonal's
        shape, its finiteness or invariance, or H's finiteness fails.
        """
        if self.scale is not None:
            raise InputError("matrix is already scaled; scale the operator it was made from")
        c = float(c)
        d = np.asarray(diagonal, dtype=float)
        if d.shape != (self.dim,):
            raise InputError(f"diagonal must hold {self.dim} entries, got shape {d.shape}")
        if not (math.isfinite(c) and _finite(d)):
            raise InputError("scale and diagonal must be finite")
        if not np.array_equal(d[self.perm], d):
            raise InputError("diagonal is not invariant under the declared symmetry")
        with np.errstate(over="ignore"):  # an overflow is reported below
            h_diagonal = d + c * self.diagonal
        if not (_finite(h_diagonal) and math.isfinite(abs(c) * self._abs_max())):
            raise InputError("matrix entries must be finite")
        h_diagonal.flags.writeable = False
        return object.__new__(type(self))._hold(
            c, h_diagonal, self.perm, self.blocks, self._orbits, self._layout)

    def _build(self, dim: int, nonzeros: Callable[[], tuple], perm, blocks) -> None:
        """Check perm and blocks, then check the nonzeros, scatter them into
        the pieces and freeze it all."""
        p = _involution(dim, perm)
        labels = _blocks(dim, p, blocks)
        i, j, x = nonzeros()
        _check_nonzeros(dim, i, j, x, p, labels)
        diagonal, orbits, layout = _scatter(dim, i, j, x, p, labels)
        for arr in (diagonal, p, labels):
            arr.flags.writeable = False
        self._hold(None, diagonal, p, labels, orbits, layout)

    def _hold(self, *values) -> SymmetricMatrix:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.diagonal.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """columns(range(dim)), read-only: the dense matrix, for tests and
        inspection; no run reads it."""
        h = self.columns(np.arange(self.dim))
        h.flags.writeable = False
        return h

    def columns(self, idx) -> np.ndarray:
        """entries[:, idx], bitwise, as a dim x len(idx) array formed with
        no dim x dim one: each A[a, b] is read at its slot (see _scatter),
        and one that joins two blocks, which no slot holds, is +0.0. idx
        holds basis indices, in any order and with repeats, else
        InputError."""
        idx = _basis_indices(idx, self.dim, "idx")
        buf = self._layout[0]
        # the slot of a place that joins two blocks may fall past the
        # buffer: clip it, then zero the place
        out = buf.take(_slots(self._layout, np.arange(self.dim)[:, None], idx), mode="clip")
        np.putmask(out, self.blocks[:, None] != self.blocks[idx], 0.0)
        self._scaled(out, out)
        out[idx, np.arange(idx.size)] = self.diagonal[idx]
        return out

    def _abs_max(self) -> float:
        """max |A_ij|, i != j: the buffer holds every such nonzero, and +0.0s."""
        buf = self._layout[0]
        return max(-float(buf.min()), float(buf.max()))

    def _scaled(self, piece: np.ndarray, out: np.ndarray, states: np.ndarray | None = None):
        """c * piece + 0.0 written into out, c = 1.0 when unscaled, with the
        diagonal at states on out's diagonal when states are given."""
        np.multiply(piece, 1.0 if self.scale is None else self.scale, out=out)
        out += 0.0
        if states is not None:
            out[np.diag_indices(states.size)] = self.diagonal[states]
        return out

    def _block(self, orbit: _Orbit, sec: _Sector) -> np.ndarray:
        """sec's block of H in the basis of its fixed states, then one
        vector (e_r + parity * e_q) / sqrt(2) per pair: bitwise the block
        gathered out of the dense H. Because H = PHP holds bitwise, each
        element's partner terms collapse exactly onto sqrt(2) * rf and
        rr + parity * rq, and the block comes out bitwise symmetric."""
        nf = sec.fixed.size
        b = np.empty((sec.size, sec.size))
        if nf:  # only an even sector has fixed states
            self._scaled(orbit.ff, b[:nf, :nf], sec.fixed)
            rf = self._scaled(orbit.rf, b[nf:, :nf])
            rf *= _SQRT2
            b[:nf, nf:] = rf.T
        rr = self._scaled(orbit.rr, b[nf:, nf:], sec.reps)
        if orbit.rq is None:
            rr += 0.0  # the even sector's exact zeros, (c * 0.0 + 0.0) * 1.0
        else:
            rq = self._scaled(orbit.rq, np.empty_like(orbit.rq))
            rq *= sec.parity
            rr += rq
        return b

    def __repr__(self) -> str:
        return f"SymmetricMatrix(dim={self.dim})"


def _involution(dim: int, perm) -> np.ndarray:
    p = np.arange(dim) if perm is None else _array(perm).copy()
    if p.shape != (dim,):
        raise InputError(f"symmetry perm must hold {dim} entries")
    if not np.issubdtype(p.dtype, np.integer) or p.min() < 0 or p.max() >= dim:
        raise InputError(f"symmetry perm must hold basis indices in [0, {dim - 1}]")
    if not np.array_equal(p[p], np.arange(dim)):
        raise InputError("symmetry perm is not an involution")
    return p


def _blocks(dim: int, perm: np.ndarray, blocks) -> np.ndarray:
    """Checked block labels, all 0 when none are declared; the matrix
    entries between blocks are checked by the caller."""
    if blocks is None:
        return np.zeros(dim, dtype=int)
    labels = _array(blocks).copy()
    if labels.shape != (dim,) or not np.issubdtype(labels.dtype, np.integer):
        raise InputError(f"blocks must hold {dim} integer labels")
    # one image block per block: no label pairs with two image labels
    pairs = set(zip(labels.tolist(), labels[perm].tolist()))
    if len({label for label, _ in pairs}) != len(pairs):
        raise InputError("symmetry perm does not map blocks onto blocks")
    return labels


def _array(values, dtype=None) -> np.ndarray:
    """np.asarray(values, dtype), or InputError where numpy cannot form it
    (ragged lists, strings where numbers belong)."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise InputError(f"expected an array of numbers: {exc}") from None


def _basis_indices(values, dim: int, what: str) -> np.ndarray:
    """values as a 1-D intp array of basis indices in [0, dim - 1], else
    InputError: floats and booleans are refused, not read as indices."""
    idx = _array(values)
    if idx.ndim != 1 or (idx.size and not np.issubdtype(idx.dtype, np.integer)):
        raise InputError(f"{what} must be a 1-D array of integer basis indices, "
                         f"got dtype {idx.dtype} and shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= dim):
        raise InputError(f"basis index out of range: {what} spans "
                         f"[{idx.min()}, {idx.max()}] but dim = {dim}")
    return idx.astype(np.intp, copy=False)


def _finite(x: np.ndarray) -> bool:
    """np.all(np.isfinite(x)) without a mask of x's size: a NaN makes the
    minimum and maximum NaN, and an infinity is one of them."""
    return x.size == 0 or (math.isfinite(x.min()) and math.isfinite(x.max()))


def _lower_nonzeros(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, a[i, j]) for the nonzeros of a's strict lower triangle
    (!= 0.0, so +-0.0 count as zero) and its whole diagonal, signed zeros
    included."""
    mask = np.tril(a != 0.0, -1)
    mask.flat[::a.shape[0] + 1] = True
    i, j = np.nonzero(mask)
    return i, j, a[i, j]


_CHUNK = 4096  # nonzeros per pass of the check and the scatter


def _chunks(n: int) -> Iterator[slice]:
    """Slices of _CHUNK nonzeros covering n: the passes over a list hold
    temporaries of one chunk, not of the list."""
    return (slice(s, s + _CHUNK) for s in range(0, n, _CHUNK))


def _place_keys(i: np.ndarray, j: np.ndarray, dim: int) -> np.ndarray:
    """One int64 key per unordered place {i, j}, max * dim + min: a place
    and its mirror share it, and a lower triangle read row by row comes out
    in ascending order."""
    key = np.maximum(i, j, dtype=np.int64)
    key *= dim
    key += np.minimum(i, j, dtype=np.int64)
    return key


def _check_nonzeros(dim: int, i: np.ndarray, j: np.ndarray, x: np.ndarray,
                    perm: np.ndarray, labels: np.ndarray) -> None:
    """Check the declared structure of the matrix that holds each nonzero
    (i, j, value) at (i, j) and (j, i), and +0.0 wherever nothing is
    given, on the list itself.

    In order, each over the whole list: the values given at one place or
    at its mirror must agree; each nonzero's image under P must hold the
    same value, an image nothing is given at holding 0.0; and
    labels[i] == labels[j] must hold. The list is sorted by place (key
    max * dim + min), unless it already is, so that the values of a place
    are neighbours and each image is found by binary search. Every entry
    of the matrix is a nonzero or the mirror of one, so a check of the
    nonzeros covers all of them; and P is an involution, so a zero whose
    image is nonzero fails at that image. The decisions are those of
    checking every pair of the dense matrix, and comparisons are of values
    (-0.0 == 0.0). A failed check raises InputError. All checks run on
    every matrix, undeclared structure included. The passes after the sort
    run chunk by chunk (_chunks), so that the check holds about one key per
    nonzero beside the list itself.
    """
    if not x.size:
        return
    key, held = _place_keys(i, j, dim), x
    if np.any(key[1:] < key[:-1]):
        order = np.argsort(key)
        key, held = key[order], x[order]
        del order
    if np.any((key[1:] == key[:-1]) & (held[1:] != held[:-1])):
        raise InputError("matrix has two different values for one entry or its mirror")
    # a place's values agree now, so the first of them, which a binary
    # search finds, stands for all
    for s in _chunks(x.size):
        image = _place_keys(perm[i[s]], perm[j[s]], dim)
        at = np.searchsorted(key, image)
        np.minimum(at, key.size - 1, out=at)
        value = held[at]
        value[key[at] != image] = 0.0
        if not np.array_equal(value, x[s]):
            raise InputError("matrix does not commute with its declared symmetry")
    for s in _chunks(x.size):
        if np.any(labels[i[s]] != labels[j[s]]):
            raise InputError("matrix has a nonzero entry between two declared blocks")


@dataclass(frozen=True)
class SectorEigenpairs:
    """One symmetry sector's share of a decomposition: the sector's basis,
    its block's eigenvalues (ascending) and eigenvectors in sector
    coordinates (one column each), and the columns those eigenstates take
    in the decomposition's merged order."""

    sector: _Sector
    eigenvalues: np.ndarray
    vectors: np.ndarray
    columns: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric
    matrix, kept per symmetry sector: eigenstate i is the sector
    eigenvector whose merged column is i. That form is the whole contract:
    no full-basis eigenvector is formed (see projection_onto_subset)."""

    eigenvalues: np.ndarray
    sectors: tuple[SectorEigenpairs, ...]

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])


@dataclass(frozen=True)
class ShellGroup:
    """One degenerate subspace: a label, the basis indices it contains and
    their shared zeroth-order energy."""

    label: int
    indices: tuple[int, ...]
    energy: float


@dataclass(frozen=True)
class ShellPartition:
    """Ordered grouping of basis indices into degenerate subspaces.

    Groups must have distinct labels, be disjoint, jointly cover 0..dim-1
    and have strictly increasing energies.
    """

    groups: tuple[ShellGroup, ...]

    def __post_init__(self):
        if not self.groups:
            raise InputError("partition needs at least one group")
        seen: set[int] = set()
        total = 0
        for g in self.groups:
            if not g.indices:
                raise InputError(f"group {g.label} is empty")
            total += len(g.indices)
            seen.update(g.indices)
        if len(seen) != total:
            raise InputError("partition groups overlap")
        if len(set(self.labels())) != len(self.groups):
            raise InputError("partition group labels must be distinct")
        if seen != set(range(total)):
            raise InputError("partition groups must jointly cover 0..dim-1")
        energies = [g.energy for g in self.groups]
        if any(b <= a for a, b in zip(energies, energies[1:])):
            raise InputError("group energies must strictly increase")

    @property
    def dim(self) -> int:
        return sum(len(g.indices) for g in self.groups)

    def labels(self) -> tuple[int, ...]:
        return tuple(g.label for g in self.groups)

    def group(self, label: int) -> ShellGroup:
        for g in self.groups:
            if g.label == label:
                return g
        raise InputError(f"no group labeled {label!r} in partition")


def triangular_basis(
    num_shells: int, first_label: int, energy: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, ShellPartition]:
    """The basis layout of both models: shell s = 0 .. num_shells-1 holds
    the s + 1 states (a, s - a), in ascending a, from index s(s+1)/2, and is
    the group labeled first_label + s with energy(label).

    Returns the read-only (dim, 2) int array of quanta (a, s - a), one row
    per state, and the checked partition into shells. energy maps an int
    array of labels to their energies elementwise.
    """
    shell = np.repeat(np.arange(num_shells), np.arange(1, num_shells + 1))
    a = np.arange(shell.size) - shell * (shell + 1) // 2
    quanta = np.stack([a, shell - a], axis=1)
    quanta.flags.writeable = False
    labels = np.arange(num_shells) + first_label
    groups = tuple(
        ShellGroup(label, tuple(range(s * (s + 1) // 2, (s + 1) * (s + 2) // 2)), e)
        for s, (label, e) in enumerate(zip(labels.tolist(), energy(labels).tolist()))
    )
    return quanta, ShellPartition(groups)


def triangular_exchange(quanta: np.ndarray) -> np.ndarray:
    """The exchange (a, b) -> (b, a) of triangular_basis's quanta as a
    permutation of the basis: (a, b) sits a places into its shell, and
    (b, a) b places."""
    return np.arange(len(quanta)) - quanta[:, 0] + quanta[:, 1]


def eigh(m: SymmetricMatrix) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix, validated.

    Each sector of the matrix's Z2 symmetry, per orbit of its blocks (one
    sector when nothing is declared), is formed into its own block from the
    orbit's pieces (SymmetricMatrix._block) and solved with LAPACK's
    divide-and-conquer driver (numpy.linalg.eigh). The two sectors of a
    pair of blocks that the symmetry swaps have the same block matrix (see
    _orbit_states), which is solved once and serves both. Every solved
    block is checked for orthogonality, residual (against the block's own
    Frobenius norm) and completeness at the module tolerances. The
    eigenvalues are merged into one ascending order; a stable merge keeps
    equal eigenvalues in sector order, so the result is deterministic. The
    block eigenvectors are kept as they are, with the merged column each
    one takes.

    Raises ConvergenceError (naming the full matrix dimension) if a block
    solve fails, violates a tolerance or yields NaN, or if a block's
    Frobenius norm, the residual gate's scale, overflows.
    """
    dim = m.dim
    sectors: list[_Sector] = []
    solved: list[tuple[np.ndarray, np.ndarray]] = []
    for orbit in m._orbits:
        for sec in orbit.sectors:
            sectors.append(sec)
            solved.append(solved[-1] if sec.twin else _solve_block(m._block(orbit, sec), dim))

    vals = np.concatenate([v for v, _ in solved])
    order = np.argsort(vals, kind="stable")
    cols = np.empty(dim, dtype=int)
    cols[order] = np.arange(dim)
    parts = []
    start = 0
    for sec, (v, y) in zip(sectors, solved):
        part = SectorEigenpairs(sec, v, y, cols[start:start + sec.size])
        start += sec.size
        for arr in (v, y, part.columns):
            arr.flags.writeable = False
        parts.append(part)
    vals = vals[order]
    vals.flags.writeable = False
    return SpectralDecomposition(vals, tuple(parts))


_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class _Sector:
    """Orthonormal basis of the eigenspace of eigenvalue parity (+1 or -1)
    of the involution P inside one orbit of blocks: the fixed basis states
    (perm[i] == i) if parity is +1, then one vector
    (e_r + parity * e_q) / sqrt(2) per swapped pair r, q = perm[r]. twin
    marks a sector whose block matrix equals the previous sector's."""

    fixed: np.ndarray
    reps: np.ndarray
    partners: np.ndarray
    parity: float
    twin: bool = False

    @property
    def size(self) -> int:
        return self.fixed.size + self.reps.size

    def share(self, inside: np.ndarray) -> np.ndarray:
        """Per sector row, the share of its basis states that the 0/1
        indicator inside marks: 0 or 1 for a fixed state, 0, 1/2 or 1 for
        a pair, each of whose states holds half the row's weight."""
        pair = inside[self.reps] + inside[self.partners]
        return np.concatenate([inside[self.fixed], 0.5 * pair])


@dataclass(frozen=True, eq=False)
class _Orbit:
    """One orbit of blocks under P, its nonempty sectors (even first) and
    A's entries on it in four read-only pieces, scattered once from A's
    nonzeros and shared by those sectors and by every H scaled from A:
    ff = A[fixed, fixed], rf = A[reps, fixed], rr = A[reps, reps] and
    rq = A[reps, partners]. Every other entry of A in the orbit is one of
    them or its mirror, since A = PAP; ff, rr and rq are bitwise symmetric.
    rq is None where P swaps two blocks: no entry joins them, so it is an
    exact zero."""

    sectors: tuple[_Sector, ...]
    ff: np.ndarray
    rf: np.ndarray
    rr: np.ndarray
    rq: np.ndarray | None


def _orbit_states(perm: np.ndarray, blocks: np.ndarray) -> Iterator[tuple]:
    """(fixed, reps, swapped) per orbit of the blocks under P, in ascending
    order of the orbit's lowest label: the states P fixes, one
    representative r per swapped pair (r, perm[r]), and whether P swaps two
    blocks.

    A block that P maps onto itself has the sectors of P restricted to it:
    its fixed states and pairs in the even one, its pairs in the odd one.
    A pair of blocks that P swaps has no fixed states; each swapped pair's
    representative r is taken from the lower-labelled block. No entry joins
    the two blocks, so h[r, perm[r']] is an exact zero and both sectors'
    block matrices hold the values h[r, r']: the odd one is a twin, solved
    with the even one.
    """
    idx = np.arange(perm.size)
    # a set, not np.unique, which would import numpy.ma
    for label in sorted(set(blocks.tolist())):
        inside = blocks == label
        image = blocks[perm[np.argmax(inside)]]
        if image < label:
            continue  # the orbit was handled at its lower label
        if image == label:
            yield idx[inside & (perm == idx)], idx[inside & (perm > idx)], False
        else:
            yield idx[:0], idx[inside], True


_ROLES = 3  # of a basis state in its orbit: fixed, representative, partner


def _slots(layout: tuple, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where the buffer holds A[a, b], a broadcast against b, for a and b
    in one block (see _scatter)."""
    _, base, role, pos = layout
    slot = base[a, role[b]]
    slot += pos[b]
    return slot


def _scatter(dim: int, i: np.ndarray, j: np.ndarray, x: np.ndarray, perm: np.ndarray,
             labels: np.ndarray) -> tuple[np.ndarray, tuple[_Orbit, ...], tuple]:
    """The diagonal, the orbits with their pieces and the slot table of the
    matrix a checked list of nonzeros gives.

    Every piece of every orbit lies in one buffer, in the order ff, rf, rr,
    rq (none where two blocks swap) and fr, rf's transpose.
    The slot table (buf, base, role, pos) says where A[a, b] lives for a
    and b in one block: at buf[base[a, role[b]] + pos[b]]. role is 0 for a
    fixed state, 1 for a representative and 2 for a partner; pos is a
    state's position among its orbit's states of that role, a partner
    taking its representative's; and base[a, role] is where a's row starts
    in the piece that holds a's places with states of that role: a fixed
    row in ff, fr, fr, a representative's in rf, rr, rq and a partner's in
    rf, rq, rr. A partner's row and column are its representative's
    (A = PAP), so a place, its mirror and their images under P share one
    slot, and the check made their values agree. No slot holds a place
    that joins two blocks, which is an exact zero.

    The diagonal holds the value given at each diagonal place (+0.0 where
    none is), and the buffer the entries off it: each nonzero is written at
    its slot and its mirror's plus 0.0, so a -0.0 turns +0.0, and the
    diagonal's slots hold +0.0. The buffer and its views, the pieces, are
    read-only.
    """
    diagonal = np.zeros(dim)
    on = i == j
    diagonal[i[on]] = x[on]
    del on
    orbits, total, *table = _lay_out(perm, labels)
    buf = np.zeros(total)
    layout = (buf, *table)
    for s in _chunks(x.size):
        value = np.where(i[s] == j[s], 0.0, x[s] + 0.0)
        buf[_slots(layout, i[s], j[s])] = value
        buf[_slots(layout, j[s], i[s])] = value
    for arr in layout:
        arr.flags.writeable = False
    held = []
    for sectors, shapes, at in orbits:
        views = [buf[o:o + math.prod(shape)].reshape(shape) if shape else None
                 for o, shape in zip(at, shapes[:4])]
        held.append(_Orbit(sectors, *views))
    return diagonal, tuple(held), layout


def _lay_out(perm: np.ndarray, labels: np.ndarray) -> tuple:
    """_scatter's layout, with no buffer: per orbit its nonempty sectors,
    piece shapes and offsets; the buffer's size; and base, role and pos."""
    role, pos = np.empty(perm.size, dtype=np.intp), np.empty(perm.size, dtype=np.intp)
    base = np.empty((perm.size, _ROLES), dtype=np.intp)
    orbits, total = [], 0
    for fixed, reps, swapped in _orbit_states(perm, labels):
        partners = perm[reps]
        sectors = (_Sector(fixed, reps, partners, 1.0),
                   _Sector(fixed[:0], reps, partners, -1.0, twin=swapped))
        nf, nr = fixed.size, reps.size
        shapes = (nf, nf), (nr, nf), (nr, nr), None if swapped else (nr, nr), (nf, nr)
        at = []
        for shape in shapes:
            at.append(total)
            total += math.prod(shape) if shape else 0
        ff, rf, rr, rq, fr = at
        width = np.array([nf, nr, nr])
        for r, (members, first) in enumerate(((fixed, (ff, fr, fr)), (reps, (rf, rr, rq)),
                                              (partners, (rf, rq, rr)))):
            role[members] = r
            pos[members] = np.arange(members.size)
            base[members] = np.array(first) + pos[members, None] * width
        orbits.append((tuple(sec for sec in sectors if sec.size), shapes, at))
    return orbits, total, base, role, pos


def sector_form_size(perm, blocks=None) -> tuple[int, int]:
    """For a matrix that declares this perm and these blocks: the number of
    floats its sector form's buffer holds and the size of the largest
    block eigh solves, read off _lay_out with no buffer allocated."""
    p = _involution(len(perm), perm)
    orbits, total, *_ = _lay_out(p, _blocks(p.size, p, blocks))
    return total, max(sec.size for sectors, _, _ in orbits for sec in sectors)


def _solve_block(b: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of one symmetry block of a dim x dim matrix, validated."""
    k = b.shape[0]
    where = f"a {k}x{k} block of a {dim}x{dim} matrix"
    try:
        vals, vecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge on {where}") from exc

    # Each gate is written so that NaN fails it. The defects are formed in
    # place in two k x k scratch arrays, each value bitwise the one the
    # plain expression (|Y^T Y - I|, column norms of B Y - Y diag(vals),
    # row sums of Y^2) gives.
    gram = np.matmul(vecs.T, vecs)
    gram.flat[::k + 1] -= 1.0
    ortho = np.abs(gram, out=gram).max()
    if not ortho <= ORTHOGONALITY_TOL:
        raise ConvergenceError(
            f"eigenvectors of {where} lost orthogonality (deviation {ortho:.3e})"
        )
    # an overflowed norm would make the residual gate below check nothing;
    # the gate reports it, so numpy's overflow warning is not needed
    with np.errstate(over="ignore"):
        fro = np.linalg.norm(b)
    if not math.isfinite(fro):
        raise ConvergenceError(f"the Frobenius norm of {where} is not finite ({fro})")
    resid = np.matmul(b, vecs, out=gram)
    scratch = np.multiply(vecs, vals, out=np.empty_like(vecs))
    resid -= scratch
    resid *= resid
    residual = np.sqrt(resid.sum(axis=0)).max()
    if not residual <= RESIDUAL_TOL * fro:
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds tolerance for {where} "
            f"(block |H|_F = {fro:.3e})"
        )
    squares = np.multiply(vecs, vecs, out=scratch)
    completeness = np.abs(squares.sum(axis=1) - 1.0).max()
    if not completeness <= COMPLETENESS_TOL:
        raise ConvergenceError(f"eigenvector completeness defect {completeness:.3e} on {where}")
    if not np.all(np.diff(vals) >= 0):
        raise ConvergenceError(f"eigenvalues of {where} not ascending")
    return vals, vecs


def projection_onto_subset(d: SpectralDecomposition, subset: Iterable[int]) -> np.ndarray:
    """Per-eigenstate weight inside a set of basis states.

    Returns w_i = sum over alpha in subset of c_i^alpha squared, one value
    per eigenstate. Each w_i lies in [0, 1] and the w_i sum to |subset|
    (completeness of the truncated space).

    Computed in sector coordinates, for any subset: a sector eigenvector y
    puts y_r^2 on a fixed state and y_r^2 / 2 on each state of a pair, so
    w_i sums y_r^2 over the sector rows r, weighted by each row's share of
    states inside the subset (_Sector.share). Rows are summed in order.
    """
    idx = _basis_indices(list(subset), d.dim, "subset")
    if idx.size == 0:
        raise InputError("subset must be nonempty")
    if len(set(idx.tolist())) != idx.size:
        raise InputError("subset contains duplicate basis indices")
    inside = np.zeros(d.dim)
    inside[idx] = 1.0
    w = np.empty(d.dim)
    for part in d.sectors:
        share = part.sector.share(inside)
        rows = np.flatnonzero(share)
        w[part.columns] = (part.vectors[rows] ** 2 * share[rows, None]).sum(axis=0)
    return w


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None],
                         Callable[[], bytes] | None] | None:
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS
    and its get_corename, which names the CPU kernel it dispatches to (None
    where not exported), or None when numpy ships no OpenBLAS that exposes
    the first two."""
    root = Path(np.__file__).parent
    for lib_path in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                            *root.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                if core is not None:
                    core.restype, core.argtypes = ctypes.c_char_p, []
                return get, set_, core
    return None


@contextlib.contextmanager
def single_threaded_blas() -> Iterator[bool]:
    """Run the body with numpy's bundled OpenBLAS on one thread.

    Yields True once the thread count is pinned to 1: each solve then runs
    on its caller's thread, and its result no longer depends on the BLAS
    thread setting of the environment. On exit, also when the body raises,
    restores the count it found. Yields False and
    changes nothing when no such OpenBLAS is found (another BLAS): the
    caller should then keep to one thread of its own. The count is
    process-wide, so two of these contexts must not overlap on different
    threads.
    """
    lib = _openblas()
    if lib is None:
        yield False
        return
    get, set_, _ = lib
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)


def random_block_unitary(partition: ShellPartition, seed: int) -> np.ndarray:
    """Random real orthogonal matrix that is block-diagonal on a partition.

    Each diagonal block is the Q factor of a standard-normal draw from a
    PCG64 generator, its columns' signs fixed so that R's diagonal is
    nonnegative, so the result is deterministic per seed. Entries outside
    the diagonal blocks are exactly zero, and U^T U = I holds to 1e-12 or
    better (Householder QR).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = partition.dim
    u = np.zeros((dim, dim))
    for g in partition.groups:
        idx = np.asarray(g.indices, dtype=int)
        q, r = np.linalg.qr(rng.standard_normal((idx.size, idx.size)))
        # a sign of +-1 per column, never 0, even where R's diagonal is
        u[np.ix_(idx, idx)] = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return u
