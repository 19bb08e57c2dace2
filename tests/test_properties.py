"""Property tests of the sector-form decomposition, of the
SymmetricMatrix constructor's structure checks, of its nonzero form
SymmetricMatrix.from_nonzeros, of both constructors' list check against
the dense-array oracle with faults injected into the list, and of
SymmetricMatrix.scaled_plus_diagonal, on random involutions, random
matrices that commute with them (some split into blocks the involution
swaps, some sparse, some broken on purpose) and random subsets of the
basis; and of the spreading width, the crossing interpolation, the shell
partition's validation and W's block-rotation invariance, on random
distributions, curves, partitions and small models."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import assembled_eigenvectors, brute_force_spreading_width, dense_structure_check
from specfrag import henon_heiles, kepler
from specfrag.errors import InputError
from specfrag.linalg import (
    ShellGroup,
    ShellPartition,
    SymmetricMatrix,
    eigh,
    projection_onto_subset,
)
from specfrag.metrics import (
    StrengthFunction,
    critical_parameter,
    invariance_gap,
    spreading_width,
    w_perturbative,
)

# derandomized, so the suite draws the same examples on every run
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def involutions(draw, max_dim=12):
    """perm of a random involution: some states fixed, the others swapped
    in pairs."""
    dim = draw(st.integers(1, max_dim))
    order = draw(st.permutations(range(dim)))
    pairs = draw(st.integers(0, dim // 2))
    perm = np.arange(dim)
    for r, q in zip(order[:pairs], order[pairs:2 * pairs]):
        perm[r], perm[q] = q, r
    return perm


@st.composite
def commuting(draw):
    """A symmetric matrix A + PAP, which commutes with P bitwise."""
    perm = draw(involutions())
    seed = draw(st.integers(0, 2**32 - 1))
    a = np.random.default_rng(seed).standard_normal((perm.size, perm.size))
    a = a + a.T
    return a + a[np.ix_(perm, perm)], perm


@st.composite
def subsets(draw, perm):
    """A nonempty subset of the basis; closed under perm when drawn so."""
    marks = np.array(draw(st.lists(st.booleans(), min_size=perm.size, max_size=perm.size)))
    if draw(st.booleans()):
        marks |= marks[perm]
    marks[draw(st.integers(0, perm.size - 1))] = True
    return np.flatnonzero(marks)


def assert_hygienic(h: np.ndarray, d) -> None:
    """Acceptance criterion 9's checks on the assembled eigenvectors."""
    vecs = assembled_eigenvectors(d)
    rebuilt = vecs @ np.diag(d.eigenvalues) @ vecs.T
    assert np.abs(rebuilt - h).max() <= 1e-10 * np.abs(h).max()
    assert np.abs(vecs.T @ vecs - np.eye(d.dim)).max() <= 1e-10
    assert np.abs((vecs ** 2).sum(axis=1) - 1.0).max() <= 1e-10


@PROPERTY
@given(st.data())
def test_sector_projection_matches_assembled_eigenvectors(data):
    h, perm = data.draw(commuting())
    d = eigh(SymmetricMatrix(h, perm))
    for _ in range(3):
        idx = data.draw(subsets(perm))
        dense = (assembled_eigenvectors(d)[idx] ** 2).sum(axis=0)
        np.testing.assert_allclose(projection_onto_subset(d, idx), dense, rtol=0, atol=1e-14)


@PROPERTY
@given(commuting())
def test_assembled_eigenvectors_pass_criterion_9(case):
    h, perm = case
    assert_hygienic(h, eigh(SymmetricMatrix(h, perm)))


@PROPERTY
@given(commuting(), st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)),
       st.integers(0, 2**32 - 1), st.data())
def test_scaled_plus_diagonal_passes_public_check(case, c, seed, data):
    h, perm = case
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(perm.size)
    diagonal = e + e[perm]  # invariant under perm
    # blocks that perm maps onto themselves or swaps, as in
    # declared_structures, with -0.0 between them: the places no piece
    # holds, which must read +0.0 at every scale
    fixed = perm == np.arange(perm.size)
    labels = np.where(fixed, 3 * rng.integers(0, 2, perm.size), rng.integers(0, 4, perm.size))
    labels = np.where(np.arange(perm.size) <= perm, labels, np.array(LABEL_IMAGE)[labels[perm]])
    h = np.where(labels[:, None] == labels, h, -0.0)
    m = SymmetricMatrix(h, perm, labels).scaled_plus_diagonal(c, diagonal)
    rechecked = SymmetricMatrix(m.entries, m.perm)
    assert rechecked.entries.tobytes() == m.entries.tobytes()
    dense = oracles.scaled_plus_diagonal(h, c, diagonal)
    assert m.entries.tobytes() == dense.tobytes()
    idx = np.array(data.draw(st.lists(st.integers(0, perm.size - 1), min_size=1,
                                      max_size=2 * perm.size)))
    assert m.columns(idx).tobytes() == dense[:, idx].tobytes()


@PROPERTY
@given(commuting(), st.data())
def test_scaled_plus_diagonal_rejects_diagonal_not_invariant(case, data):
    h, perm = case
    swapped = np.flatnonzero(perm != np.arange(perm.size))
    if swapped.size == 0:
        return  # every diagonal is invariant under the identity
    diagonal = np.zeros(perm.size)
    diagonal[data.draw(st.sampled_from(swapped.tolist()))] = 1.0
    with pytest.raises(InputError, match="invariant"):
        SymmetricMatrix(h, perm).scaled_plus_diagonal(1.0, diagonal)


# the involution's action on the block labels of declared_structures: it
# fixes blocks 0 and 3 and swaps blocks 1 and 2
LABEL_IMAGE = (0, 2, 1, 3)


@st.composite
def declared_structures(draw):
    """((perm, blocks), a) for the constructor: a sparse or dense
    matrix that commutes with a random involution and has no entry
    between blocks the involution maps onto blocks, then, as drawn, left
    as it is or given -0.0 entries (mirrored or not), one nonzero whose
    mirror is zero, a zero where its image under the involution is
    nonzero, a nonzero between two blocks, one entry off by 1, the upper
    entry at the image of a nonzero off by 1, or other block labels. perm
    and blocks are each sometimes left undeclared."""
    # the seeded generator, not hypothesis, draws most choices, so that
    # examples do not shrink towards trivial involutions
    dim = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = np.arange(dim)
    order = rng.permutation(dim)
    pairs = rng.integers(0, dim // 2 + 1)
    perm[order[:pairs]], perm[order[pairs:2 * pairs]] = order[pairs:2 * pairs], order[:pairs]
    labels = np.zeros(dim, dtype=int)
    for i in range(dim):
        if perm[i] == i:
            labels[i] = rng.choice([0, 3])
        elif i < perm[i]:
            labels[i] = rng.integers(0, 4)
            labels[perm[i]] = LABEL_IMAGE[labels[i]]
    density = draw(st.sampled_from([0.15, 0.5, 1.0]))
    a = rng.standard_normal((dim, dim)) * (rng.random((dim, dim)) < density)
    a = a + a.T
    a = a + a[np.ix_(perm, perm)]
    a[labels[:, None] != labels] = 0.0

    i, j = rng.integers(0, dim, 2)
    flaw = draw(st.sampled_from(
        ["none", "negative-zeros", "one-sided", "zero-image", "between-blocks", "off-by-one",
         "upper-image", "labels"]))
    if flaw == "negative-zeros":
        zeros = a == 0.0
        a[zeros & (rng.random((dim, dim)) < 0.5)] = -0.0
    elif flaw == "one-sided" and i != j:
        a[i, j], a[j, i] = 1.5, 0.0
    elif flaw == "zero-image":
        nonzero = np.argwhere(a != 0.0)
        if nonzero.size:
            r, c = perm[nonzero[rng.integers(0, len(nonzero))]]
            a[r, c] = a[c, r] = 0.0
    elif flaw == "between-blocks":
        apart = np.argwhere(labels[:, None] != labels)
        if apart.size:
            r, c = apart[rng.integers(0, len(apart))]
            a[r, c] = a[c, r] = 1e-300
    elif flaw == "off-by-one":
        a[i, j] += 1.0
    elif flaw == "upper-image":
        # the upper entry at the image of a lower nonzero: ignored, as the
        # lower triangle is authoritative, but read by a check that reads
        # the image from the input as it stands
        r, c = np.nonzero(np.tril(a != 0.0, -1))
        flipped = np.flatnonzero(perm[r] < perm[c])
        if flipped.size:
            k = flipped[rng.integers(0, flipped.size)]
            a[perm[r[k]], perm[c[k]]] += 1.0
    elif flaw == "labels":
        labels = rng.integers(0, 3, dim)
    declared = rng.random(2) < 0.8
    return tuple(x if keep else None for x, keep in zip((perm, labels), declared)), a


@PROPERTY
@given(declared_structures())
def test_constructor_decides_as_dense_oracle(case):
    (perm, blocks), a = case
    expected = dense_structure_check(a, perm, blocks)
    if expected is None:
        with pytest.raises(InputError):
            SymmetricMatrix(a, perm, blocks)
    else:
        assert SymmetricMatrix(a, perm, blocks).entries.tobytes() == expected.tobytes()


def shuffled_nonzeros(a, rng):
    """The nonzeros of a's lower triangle and its whole diagonal, signed
    zeros included, as (rows, cols, values): in a random order, some also
    given again as their mirror, with the same value."""
    rows, cols = np.nonzero(np.tril(a != 0.0, -1))
    diag = np.arange(a.shape[0])
    order = rng.permutation(rows.size + diag.size)
    rows, cols = np.r_[rows, diag][order], np.r_[cols, diag][order]
    values = a[rows, cols]
    twice = rng.random(rows.size) < 0.3
    return np.r_[rows, cols[twice]], np.r_[cols, rows[twice]], np.r_[values, values[twice]]


@PROPERTY
@given(declared_structures(), st.integers(0, 2**32 - 1))
def test_nonzero_form_builds_and_decides_as_dense_constructor(case, seed):
    # declared_structures' flaws include a non-commuting perm, a nonzero
    # between two blocks and a zero whose image is nonzero
    (perm, blocks), a = case
    rows, cols, values = shuffled_nonzeros(a, np.random.default_rng(seed))
    try:
        dense = SymmetricMatrix(a, perm, blocks)
    except InputError:
        with pytest.raises(InputError):
            SymmetricMatrix.from_nonzeros(a.shape[0], rows, cols, values, perm, blocks)
        return
    m = SymmetricMatrix.from_nonzeros(a.shape[0], rows, cols, values, perm, blocks)
    for name in ("entries", "perm", "blocks"):
        assert getattr(m, name).tobytes() == getattr(dense, name).tobytes()


@PROPERTY
@given(declared_structures(), st.integers(0, 2**32 - 1),
       st.sampled_from(["mirror", "duplicate", "nan", "inf", "-inf"]))
def test_nonzero_form_rejects_disagreeing_and_non_finite_entries(case, seed, fault):
    (perm, blocks), a = case
    try:
        SymmetricMatrix(a, perm, blocks)
    except InputError:
        assume(False)  # a flaw of its own would hide the one added here
    rng = np.random.default_rng(seed)
    rows, cols, values = shuffled_nonzeros(a, rng)
    k = rng.integers(0, rows.size)
    r, c = rows[k], cols[k]
    if fault in ("mirror", "duplicate"):
        # the dense form has one value per place and no such input
        if fault == "mirror":
            r, c = c, r
        rows, cols, values = np.r_[rows, r], np.r_[cols, c], np.r_[values, values[k] + 1.0]
        with pytest.raises(InputError, match="different values"):
            SymmetricMatrix.from_nonzeros(a.shape[0], rows, cols, values, perm, blocks)
        return
    bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[fault]
    values[k] = a[max(r, c), min(r, c)] = bad
    for build in (lambda: SymmetricMatrix(a, perm, blocks),
                  lambda: SymmetricMatrix.from_nonzeros(a.shape[0], rows, cols, values,
                                                        perm, blocks)):
        with pytest.raises(InputError, match="finite"):
            build()


LIST_FAULTS = ("none", "duplicate", "mirror", "absent-image", "image-value", "between-blocks",
               "explicit-zero", "signed-diagonal")


def places(rows, cols, r, c):
    """Where the list gives the place (r, c) or its mirror."""
    return ((rows == r) & (cols == c)) | ((rows == c) & (cols == r))


@st.composite
def faulted_lists(draw):
    """(perm, blocks, a, (rows, cols, values), fault): a declared
    structure as drawn (flaws included), a list of its nonzeros, and one
    fault injected into both, or into the list alone where a dense matrix
    cannot hold it: a duplicate or a mirror that disagrees, a nonzero whose
    image is left out, an image with another value, a nonzero between two
    blocks (with its image or without), an explicit off-diagonal +-0.0 with
    no image, or +0.0 and -0.0 on the diagonal of a swapped pair."""
    (perm, blocks), a = draw(declared_structures())
    fault = draw(st.sampled_from(LIST_FAULTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = a.copy()
    dim = a.shape[0]
    p = np.arange(dim) if perm is None else perm
    labels = np.zeros(dim, dtype=int) if blocks is None else blocks
    # the off-diagonal nonzeros whose image is another place
    off = [(r, c) for r, c in np.argwhere(np.tril(a != 0.0, -1)).tolist()
           if {p[r], p[c]} != {r, c}]
    if fault in ("absent-image", "image-value") and off:
        r, c = off[rng.integers(0, len(off))]
        pr, pc = p[r], p[c]
        a[pr, pc] = a[pc, pr] = 0.0 if fault == "absent-image" else a[r, c] + 1.0
    elif fault == "between-blocks":
        apart = np.argwhere(labels[:, None] != labels)
        if apart.size:
            r, c = apart[rng.integers(0, len(apart))]
            a[r, c] = a[c, r] = 1e-300
            if rng.random() < 0.5:
                a[p[r], p[c]] = a[p[c], p[r]] = 1e-300
    elif fault == "signed-diagonal":
        pairs = np.flatnonzero(p > np.arange(dim))
        if pairs.size:
            r = pairs[rng.integers(0, pairs.size)]
            a[r, r], a[p[r], p[r]] = (0.0, -0.0) if rng.random() < 0.5 else (-0.0, 0.0)
    rows, cols, values = shuffled_nonzeros(a, rng)
    k = rng.integers(0, rows.size)
    if fault in ("duplicate", "mirror"):
        r, c = (rows[k], cols[k]) if fault == "duplicate" else (cols[k], rows[k])
        rows, cols, values = np.r_[rows, r], np.r_[cols, c], np.r_[values, values[k] + 1.0]
    elif fault == "explicit-zero":
        # an off-diagonal place that the list leaves out, and its image too
        absent = [(r, c) for r in range(dim) for c in range(r)
                  if not (places(rows, cols, r, c).any() or places(rows, cols, p[r], p[c]).any())]
        if absent:
            r, c = absent[rng.integers(0, len(absent))]
            zero = -0.0 if rng.random() < 0.75 else 0.0
            rows, cols, values = np.r_[rows, r], np.r_[cols, c], np.r_[values, zero]
    return perm, blocks, a, (rows, cols, values), fault


def decision(build):
    """build()'s entries and the blocks eigh solves, as bytes, or the
    message of its InputError."""
    try:
        m = build()
    except InputError as exc:
        return str(exc)
    solved = []
    solve = np.linalg.eigh

    def recording(b):
        solved.append(b.tobytes())
        return solve(b)

    with mock.patch.object(np.linalg, "eigh", recording):
        d = eigh(m)
    return m.entries.tobytes(), solved, d


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(faulted_lists())
def test_list_check_decides_as_dense_oracle(case):
    """Both constructors accept and refuse what writing the list into one
    dense array and checking it there does, with the same message, and
    hold what that array holds, with its signed zeros as documented: an
    off-diagonal zero is +0.0, the diagonal is held as given."""
    perm, blocks, a, listed, _ = case
    dim = a.shape[0]
    p = np.arange(dim) if perm is None else perm
    labels = np.zeros(dim, dtype=int) if blocks is None else blocks
    # the list check runs on an involution that maps blocks onto blocks
    assume(len(set(zip(labels.tolist(), labels[p].tolist()))) == len(set(labels.tolist())))
    for build, nonzeros in (
        (lambda: SymmetricMatrix(a, perm, blocks), oracles.lower_nonzeros(a)),
        (lambda: SymmetricMatrix.from_nonzeros(dim, *listed, perm, blocks), listed),
    ):
        got = decision(build)
        try:
            held = oracles.place_checked(dim, *nonzeros, p, labels)
        except InputError as exc:
            assert got == str(exc)
            continue
        held[~np.eye(dim, dtype=bool)] += 0.0
        entries, solved, d = got
        assert entries == held.tobytes()
        assert solved == [oracles.sector_block(held, part.sector).tobytes()
                          for part in d.sectors if not part.sector.twin]


@st.composite
def swapped_blocks(draw):
    """(h, perm, blocks, sizes): a block P maps onto itself, holding a
    random commuting matrix, and a pair of blocks P swaps, each holding the
    other's image; states interleaved and labels drawn at random. sizes are
    the blocks LAPACK should see: the self-mapped block's nonempty sectors
    and the swapped pair's one shared block."""
    h0, perm0 = draw(commuting())
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.standard_normal((k, k))
    c = c + c.T
    n0 = perm0.size
    dim = n0 + 2 * k
    canon = np.zeros((dim, dim))
    canon[:n0, :n0] = h0
    canon[n0:n0 + k, n0:n0 + k] = c
    canon[n0 + k:, n0 + k:] = c
    reps = np.arange(n0, n0 + k)
    perm = np.concatenate([perm0, reps + k, reps])
    labels = draw(st.lists(st.integers(-5, 20), min_size=3, max_size=3, unique=True))
    blocks = np.repeat(labels, [n0, k, k])
    # state i of the canonical order sits at index at[i]
    at = np.array(draw(st.permutations(range(dim))))
    h = np.empty_like(canon)
    h[np.ix_(at, at)] = canon
    out_perm, out_blocks = np.empty_like(perm), np.empty_like(blocks)
    out_perm[at], out_blocks[at] = at[perm], blocks
    fixed = perm0 == np.arange(n0)
    pairs = int((~fixed).sum()) // 2
    # the even sector holds the fixed states and the pairs, the odd one the pairs
    sectors = [n for n in (int(fixed.sum()) + pairs, pairs) if n]
    # orbits are solved in the order of their lowest label
    sizes = sectors + [k] if labels[0] < min(labels[1:]) else [k] + sectors
    return h, out_perm, out_blocks, sizes


@PROPERTY
@given(swapped_blocks(), st.data())
def test_swapped_blocks_match_one_sector_solve(case, data):
    h, perm, blocks, sizes = case
    m = SymmetricMatrix(h, perm, blocks)
    ref = eigh(SymmetricMatrix(h))
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as solve:
        d = eigh(m)
    assert [call.args[0].shape[0] for call in solve.call_args_list] == sizes
    assert np.abs(d.eigenvalues - ref.eigenvalues).max() <= 1e-12 * np.linalg.norm(h)
    for _ in range(3):
        # closed under perm, so each state of a degenerate pair holds the
        # same weight in it, whichever pair basis a solve picks
        idx = data.draw(subsets(perm))
        idx = np.union1d(idx, perm[idx])
        np.testing.assert_allclose(
            projection_onto_subset(d, idx), projection_onto_subset(ref, idx), rtol=0, atol=1e-10
        )


def test_kepler_hamiltonians_pass_public_check():
    cfg = kepler.KeplerConfig()  # max_n 20, the default 61-point grid
    rho2 = kepler.build_rho2(cfg)
    for gamma in cfg.gamma_grid:
        h = kepler.build_h(cfg, gamma, rho2)
        assert SymmetricMatrix(h.entries, h.perm, h.blocks).entries.tobytes() == h.entries.tobytes()


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_henon_heiles_hamiltonian_passes_public_check(lam):
    h = henon_heiles.build_h(henon_heiles.HHConfig(lam=lam))
    assert SymmetricMatrix(h.entries, h.perm, h.blocks).entries.tobytes() == h.entries.tobytes()


@st.composite
def distributions(draw):
    """Ascending energies, some of them equal, and weights in multiples of
    1/32 that sum to 1: every partial sum, and with it each window's mass,
    is exact, and windows holding exactly one half are common."""
    counts = draw(st.lists(st.integers(0, 4), max_size=8))  # sum <= 32
    counts.insert(draw(st.integers(0, len(counts))), 32 - sum(counts))
    energy = st.one_of(st.integers(-3, 3).map(float), st.floats(-10.0, 10.0))
    energies = sorted(draw(st.lists(energy, min_size=len(counts), max_size=len(counts))))
    return np.array(energies), np.array(counts) / 32.0


@PROPERTY
@given(distributions())
def test_spreading_width_matches_brute_force(dist):
    energies, weights = dist
    width = spreading_width(StrengthFunction(energies, weights))
    assert width == brute_force_spreading_width(energies, weights)


@PROPERTY
@given(distributions())
def test_spreading_window_matches_brute_force(dist):
    energies, weights = dist
    found = spreading_width(StrengthFunction(energies, weights), return_window=True)
    assert found == brute_force_spreading_width(energies, weights, return_window=True)


def first_straddle(samples, threshold):
    """The bracket of the first sample on the threshold or neighbouring pair
    on either side of it, or None."""
    for k, (x, w) in enumerate(samples):
        if w == threshold:
            return x, x
        if k + 1 < len(samples):
            x2, w2 = samples[k + 1]
            if min(w, w2) < threshold < max(w, w2):
                return x, x2
    return None


@st.composite
def curves(draw):
    """A curve on a strictly ascending or descending axis, some samples
    landing on the threshold 0.5 itself."""
    xs = draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=10, unique=True))
    xs.sort(reverse=draw(st.booleans()))
    ws = draw(st.lists(st.one_of(st.just(0.5), st.floats(-2.0, 3.0)),
                       min_size=len(xs), max_size=len(xs)))
    return list(zip(xs, ws))


@PROPERTY
@given(curves())
def test_critical_parameter_inside_straddling_bracket(curve):
    critical, found = critical_parameter(curve, threshold=0.5)
    bracket = first_straddle(curve, 0.5)
    if bracket is None:
        assert critical is None and found is None
        return
    assert found == bracket
    assert min(bracket) <= critical <= max(bracket)


@st.composite
def partitions(draw):
    """The groups of a valid partition: a shuffled basis cut into nonempty
    runs with strictly increasing energies."""
    dim = draw(st.integers(2, 12))
    order = draw(st.permutations(range(dim)))
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1), min_size=1)))
    runs = [order[a:b] for a, b in zip([0, *cuts], [*cuts, dim])]
    energies = np.cumsum(draw(st.lists(st.floats(0.01, 10.0), min_size=len(runs),
                                       max_size=len(runs))))
    return [ShellGroup(k, tuple(run), float(e)) for k, (run, e) in enumerate(zip(runs, energies))]


def regroup(group, indices=None, energy=None):
    return ShellGroup(group.label, tuple(group.indices if indices is None else indices),
                      group.energy if energy is None else energy)


@PROPERTY
@given(partitions())
def test_partition_accepts_valid_groups(groups):
    assert ShellPartition(tuple(groups)).dim == sum(len(g.indices) for g in groups)


@PROPERTY
@given(partitions(), st.data())
def test_partition_rejects_overlap(groups, data):
    i, j = data.draw(st.permutations(range(len(groups))))[:2]
    shared = data.draw(st.sampled_from(groups[i].indices))
    groups[j] = regroup(groups[j], groups[j].indices + (shared,))
    with pytest.raises(InputError, match="overlap"):
        ShellPartition(tuple(groups))


@PROPERTY
@given(partitions(), st.data())
def test_partition_rejects_non_covering(groups, data):
    i = data.draw(st.integers(0, len(groups) - 1))
    dim = sum(len(g.indices) for g in groups)
    indices = list(groups[i].indices)
    # dropping dim - 1 would leave a valid partition of 0..dim-2
    inner = [k for k, a in enumerate(indices) if a != dim - 1]
    if len(indices) > 1 and inner and data.draw(st.booleans()):
        del indices[data.draw(st.sampled_from(inner))]  # a gap in 0..dim-1
    else:
        k = data.draw(st.integers(0, len(indices) - 1))
        indices[k] = data.draw(st.sampled_from([-1, dim, dim + 5]))  # outside it
    groups[i] = regroup(groups[i], indices)
    with pytest.raises(InputError, match="cover"):
        ShellPartition(tuple(groups))


@PROPERTY
@given(partitions(), st.data())
def test_partition_rejects_non_increasing_energies(groups, data):
    k = data.draw(st.integers(1, len(groups) - 1))
    lower = groups[k - 1].energy - data.draw(st.sampled_from([0.0, 1e-12, 1.0]))
    groups[k] = regroup(groups[k], energy=lower)
    with pytest.raises(InputError, match="increase"):
        ShellPartition(tuple(groups))


@st.composite
def couplings(draw):
    """(V, partition, target shell, coupling) of a small model of either system."""
    if draw(st.booleans()):
        cfg = henon_heiles.HHConfig(hbar=draw(st.floats(0.005, 0.05)),
                                    num_shells=draw(st.integers(4, 10)))
        _, partition = henon_heiles.enumerate_basis(cfg)
        v = henon_heiles.build_v(cfg)
    else:
        cfg = kepler.KeplerConfig(max_n=draw(st.integers(2, 6)), target_shell=1)
        _, partition = kepler.enumerate_parabolic_basis(cfg)
        v = kepler.build_rho2(cfg)
    target = draw(st.sampled_from(partition.labels()))
    return v, partition, target, draw(st.floats(0.1, 2.0))


@PROPERTY
@given(couplings(), st.integers(0, 2**32 - 1))
def test_w_perturbative_invariant_under_block_rotation(case, seed):
    v, partition, target, lam = case
    w = w_perturbative(v, partition, target, lam)
    assert invariance_gap(v, partition, target, lam, seed) <= 1e-10 * w
