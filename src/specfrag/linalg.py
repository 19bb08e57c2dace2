"""Dense real-symmetric linear algebra underneath the fragmentation metrics.

Every matrix in this package is small (a few hundred to a few thousand
rows), so storage is plain dense float64 throughout. A matrix may declare
an exact Z2 symmetry, an involution of its basis, and a block label per
basis state; a parity of the basis is declared as two blocks. Construction
checks bitwise that the matrix commutes with the involution, that no entry
joins two blocks and that the involution maps blocks onto blocks. The
check works on a list of nonzeros (row, column, value): it writes each
one and its mirror into the one dim x dim array the matrix keeps, then
checks on those nonzeros only that each agrees with what its place holds
(a mirror or a duplicate that disagrees fails there), the involution and
the blocks. That decides exactly as checking every pair would: every
entry is a nonzero or the mirror of one, and the involution is its own
inverse, so a zero whose image is nonzero is found at that image, which
fails its own check. An operator built from its nonzeros
(SymmetricMatrix.from_nonzeros) is never held twice; the dense
constructor feeds the same check one list, its strict lower triangle's
nonzeros and its whole diagonal.
Finiteness is read off the minimum and maximum, with no mask. eigh then
solves the even and odd sectors of each orbit of blocks as separate
blocks, and those of a pair of blocks the involution swaps only once,
since both have the same block matrix. The structure is checked once per
model: SymmetricMatrix.scaled_plus_diagonal forms c*A + diag(d) from an
already checked A and checks only that d is invariant, so a scan over
couplings never repeats the dim x dim check. Decompositions are validated
on the spot: orthogonality, residual and completeness checks run on every
block right after its solve, and a violation, NaN or a block norm that
overflows included, raises ConvergenceError instead of letting bad numbers
propagate into the metrics.

Decompositions stay in sector form, and that form is their whole
contract: projection_onto_subset, and with it every metric, reads the
block eigenvectors directly, and no full-basis eigenvector is formed.

numpy's solves release the GIL, so independent decompositions can run on
several Python threads at once. single_threaded_blas pins numpy's bundled
OpenBLAS to one thread around such a pool: each solve then runs entirely on
its caller's thread, and its result no longer depends on the BLAS thread
setting of the environment.
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
    """Dense real symmetric matrix with an optional exact Z2 symmetry and
    optional exact blocks.

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

    The checks run on the matrix's nonzeros only (see _place_checked),
    each of which is written at its place and at its mirror. The dense
    constructor reads them off its input: the strict lower triangle's
    nonzeros and the whole diagonal. from_nonzeros is handed them.
    ``entries`` is the mirror of the lower triangle bitwise, with an
    off-diagonal -0.0 turned into +0.0 and the diagonal kept as given.

    Entries, perm and blocks are frozen after construction and safe to
    share across threads.
    """

    __slots__ = ("entries", "perm", "blocks")

    def __init__(self, entries, perm=None, blocks=None) -> None:
        a = np.asarray(entries, dtype=float)
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
        """The dim x dim matrix that holds values[k], as given, at
        (rows[k], cols[k]) and at its mirror (cols[k], rows[k]), and +0.0
        wherever nothing is given.

        Either triangle may be given, or both; a nonzero given twice, as
        itself or as its mirror, must carry the same value each time, else
        InputError. perm and blocks are declared and checked as for the
        dense constructor, on the given entries, so the matrix is built and
        checked without a second dim x dim array. Given a dense matrix's
        strict lower triangle nonzeros and its whole diagonal, it holds
        bitwise what the dense constructor holds for that matrix.
        """
        if not (isinstance(dim, (int, np.integer)) and dim >= 1):
            raise InputError(f"matrix dimension must be an integer of at least 1, got {dim!r}")
        i, j = np.asarray(rows), np.asarray(cols)
        x = np.asarray(values, dtype=float)
        if not (i.ndim == 1 and i.shape == j.shape == x.shape):
            raise InputError("rows, cols and values must be 1-D and of one length")
        if not (np.issubdtype(i.dtype, np.integer) and np.issubdtype(j.dtype, np.integer)):
            raise InputError("rows and cols must hold integer indices")
        if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= dim):
            raise InputError(f"rows and cols must hold basis indices in [0, {dim - 1}]")
        if not _finite(x):
            raise InputError("matrix entries must be finite")
        m = object.__new__(cls)
        m._build(dim, lambda: (i, j, x), perm, blocks)
        return m

    def scaled_plus_diagonal(self, c: float, diagonal) -> SymmetricMatrix:
        """c * A + diag(diagonal), with A's symmetry and no O(dim^2) check.

        Every entry is the sum diag(diagonal) + c * A forms, bitwise, signed
        zeros included (an off-diagonal -0.0 of c * A becomes +0.0). The
        result keeps A's perm and blocks: c * A commutes with P bitwise
        because A does, and so does the sum once the diagonal is invariant
        under the permutation, diagonal[perm[i]] == diagonal[i], since the
        same operands then go through the same operations. An entry between
        two blocks is c * 0.0 + 0.0 == 0.0. The O(dim) condition is what is
        checked; InputError if it or finiteness fails. The result is the
        only dim x dim array this allocates.
        """
        c = float(c)
        d = np.asarray(diagonal, dtype=float)
        if d.shape != (self.dim,):
            raise InputError(f"diagonal must hold {self.dim} entries, got shape {d.shape}")
        if not (math.isfinite(c) and _finite(d)):
            raise InputError("scale and diagonal must be finite")
        if not np.array_equal(d[self.perm], d):
            raise InputError("diagonal is not invariant under the declared symmetry")
        with np.errstate(over="ignore"):  # an overflow is reported below
            out = c * self.entries
            out += 0.0
            out[np.diag_indices(self.dim)] = d + c * self.entries.diagonal()
        if not _finite(out):
            raise InputError("matrix entries must be finite")
        # past the constructor, whose checks the reasoning above replaces
        m = object.__new__(SymmetricMatrix)
        m._freeze(out, self.perm, self.blocks)
        return m

    def _build(self, dim: int, nonzeros: Callable[[], tuple], perm, blocks) -> None:
        """Check perm and blocks, then place and check the nonzeros in a
        zero-filled dim x dim array and freeze it."""
        p = _involution(dim, perm)
        labels = _blocks(dim, p, blocks)
        full = np.zeros((dim, dim))
        _place_checked(full, nonzeros, p, labels)
        self._freeze(full, p, labels)

    def _freeze(self, entries: np.ndarray, perm: np.ndarray, blocks: np.ndarray) -> None:
        for name, arr in zip(self.__slots__, (entries, perm, blocks)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"SymmetricMatrix(dim={self.dim})"


def _involution(dim: int, perm) -> np.ndarray:
    p = np.arange(dim) if perm is None else np.array(perm)
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
    labels = np.array(blocks)
    if labels.shape != (dim,) or not np.issubdtype(labels.dtype, np.integer):
        raise InputError(f"blocks must hold {dim} integer labels")
    # one image block per block: no label pairs with two image labels
    pairs = set(zip(labels.tolist(), labels[perm].tolist()))
    if len({label for label, _ in pairs}) != len(pairs):
        raise InputError("symmetry perm does not map blocks onto blocks")
    return labels


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


def _place_checked(out: np.ndarray, nonzeros: Callable[[], tuple], perm: np.ndarray,
                   labels: np.ndarray) -> None:
    """Write each nonzero (i, j, value) of the batch nonzeros() returns
    into the zero-filled out at (i, j) and (j, i), then check the declared
    structure on those nonzeros only.

    nonzeros is called twice, once to write and once to check, and the
    first batch is dropped before the second is read, so the two are never
    held at once. Keeping one batch for both raised a Kepler run's peak RSS
    from 50.6 to 54.4 MiB at max_n 30 and from 76.0 to 88.0 MiB at max_n
    40, so the batch is read twice. Each nonzero must find its own value in
    out (a duplicate or mirror that disagrees fails), P must give
    out[perm[i], perm[j]] == value, and labels[i] == labels[j] must hold.
    Every entry of out is a nonzero or the mirror of one, so a check of the
    nonzeros covers all of them; and P is an involution, so a zero whose
    image is nonzero fails at that image. The decisions are those of
    checking every pair of out. A failed check raises InputError. All
    checks run on every matrix: an undeclared perm is the identity, which
    maps each entry onto itself, and undeclared blocks give every state one
    label.
    """
    i, j, values = nonzeros()
    out[i, j] = values
    out[j, i] = values
    del i, j, values
    i, j, values = nonzeros()
    if not np.array_equal(out[i, j], values):
        raise InputError("matrix has two different values for one entry or its mirror")
    if not np.array_equal(out[perm[i], perm[j]], values):
        raise InputError("matrix does not commute with its declared symmetry")
    if np.any(labels[i] != labels[j]):
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
    eigenvector whose merged column is i (see projection_onto_subset)."""

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
    sector when nothing is declared), is gathered into its own block and
    solved with LAPACK's divide-and-conquer driver (numpy.linalg.eigh).
    SymmetricMatrix checked bitwise that the symmetry commutes with the
    matrix and that no entry joins two blocks, so no entry couples two
    sectors and the blocks are exact. The two sectors of a pair of blocks
    that the symmetry swaps have the same block matrix (see _sectors), which
    is solved once and serves both. Every solved block is checked for
    orthogonality, residual (against the block's own Frobenius norm) and
    completeness at the module tolerances. The eigenvalues are merged into
    one ascending order; a stable merge keeps equal eigenvalues in sector
    order, so the result is deterministic. The block eigenvectors are kept
    as they are, with the merged column each one takes.

    The entries are finite: the constructor and scaled_plus_diagonal refuse
    any other. Raises ConvergenceError (naming the full matrix dimension)
    if a block solve fails, violates a tolerance or yields NaN, or if a
    block's Frobenius norm, the residual gate's scale, overflows.
    """
    h = m.entries
    dim = m.dim
    sectors = _sectors(m.perm, m.blocks)
    solved: list[tuple[np.ndarray, np.ndarray]] = []
    for sec in sectors:
        solved.append(solved[-1] if sec.twin else _solve_block(sec.block(h), dim))

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

    def block(self, h: np.ndarray) -> np.ndarray:
        # Index gathers only. Because H = PHP holds bitwise, the partner
        # terms of each matrix element collapse exactly onto the ones kept
        # here, and the block comes out bitwise symmetric.
        nf = self.fixed.size
        b = np.empty((self.size, self.size))
        rows = h[self.reps]  # one row gather serves the three column picks
        b[:nf, :nf] = h[np.ix_(self.fixed, self.fixed)]
        b[nf:, :nf] = _SQRT2 * rows[:, self.fixed]
        b[:nf, nf:] = b[nf:, :nf].T
        b[nf:, nf:] = rows[:, self.reps] + rows[:, self.partners] * self.parity
        return b

    def share(self, inside: np.ndarray) -> np.ndarray:
        """Per sector row, the share of its basis states that the 0/1
        indicator inside marks: 0 or 1 for a fixed state, 0, 1/2 or 1 for
        a pair, each of whose states holds half the row's weight."""
        pair = inside[self.reps] + inside[self.partners]
        return np.concatenate([inside[self.fixed], 0.5 * pair])


def _sectors(perm: np.ndarray, blocks: np.ndarray) -> list[_Sector]:
    """The nonempty sectors of P, orbit by orbit of the blocks under P in
    ascending order of the orbit's lowest label, even (parity +1) first.

    A block that P maps onto itself has the sectors of P restricted to it:
    its fixed states and pairs in the even one, its pairs in the odd one.
    A pair of blocks that P swaps has no fixed states; each swapped pair's
    representative r is taken from the lower-labelled block. No entry joins
    the two blocks, so h[r, perm[r']] is an exact zero and both sectors'
    block matrices hold the values h[r, r']: the odd one is a twin, solved
    with the even one.
    """
    idx = np.arange(perm.size)
    sectors = []
    # a set, not np.unique, which would import numpy.ma
    for label in sorted(set(blocks.tolist())):
        inside = blocks == label
        image = blocks[perm[np.argmax(inside)]]
        if image < label:
            continue  # the orbit was handled at its lower label
        if image == label:
            fixed = idx[inside & (perm == idx)]
            reps = idx[inside & (perm > idx)]
        else:
            fixed, reps = idx[:0], idx[inside]
        partners = perm[reps]
        sectors += [_Sector(fixed, reps, partners, 1.0),
                    _Sector(fixed[:0], reps, partners, -1.0, twin=bool(image != label))]
    return [sec for sec in sectors if sec.size]


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
    idx = np.asarray(list(subset))
    if idx.size == 0:
        raise InputError("subset must be nonempty")
    if not np.issubdtype(idx.dtype, np.integer):
        raise InputError(f"subset must hold integer basis indices, got dtype {idx.dtype}")
    if len(set(idx.tolist())) != idx.size:
        raise InputError("subset contains duplicate basis indices")
    if idx.min() < 0 or idx.max() >= d.dim:
        raise InputError(
            f"basis index out of range: subset spans [{idx.min()}, {idx.max()}] "
            f"but dim = {d.dim}"
        )
    inside = np.zeros(d.dim)
    inside[idx] = 1.0
    w = np.empty(d.dim)
    for part in d.sectors:
        share = part.sector.share(inside)
        rows = np.flatnonzero(share)
        w[part.columns] = (part.vectors[rows] ** 2 * share[rows, None]).sum(axis=0)
    return w


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    or None when numpy ships no OpenBLAS that exposes them."""
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
                return get, set_
    return None


@contextlib.contextmanager
def single_threaded_blas() -> Iterator[bool]:
    """Run the body with numpy's bundled OpenBLAS on one thread.

    Yields True once the thread count is pinned to 1, and on exit, also
    when the body raises, restores the count it found. Yields False and
    changes nothing when no such OpenBLAS is found (another BLAS): the
    caller should then keep to one thread of its own. The count is
    process-wide, so two of these contexts must not overlap on different
    threads.
    """
    lib = _openblas()
    if lib is None:
        yield False
        return
    get, set_ = lib
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
