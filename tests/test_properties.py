"""Property tests of the sector-form decomposition and of
SymmetricMatrix.scaled_plus_diagonal, on random signed involutions, random
matrices that commute with them and random subsets of the basis."""
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specfrag import henon_heiles, kepler
from specfrag.errors import InputError
from specfrag.linalg import SymmetricMatrix, eigh, projection_onto_subset

# derandomized, so the suite draws the same examples on every run
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def involutions(draw, max_dim=12):
    """(perm, sign) of a random signed involution: some states fixed, the
    others swapped in pairs, each fixed state and pair with its own sign."""
    dim = draw(st.integers(1, max_dim))
    order = draw(st.permutations(range(dim)))
    pairs = draw(st.integers(0, dim // 2))
    perm = np.arange(dim)
    for r, q in zip(order[:pairs], order[pairs:2 * pairs]):
        perm[r], perm[q] = q, r
    flips = np.array(draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
    # a pair takes the sign drawn for its lower state
    sign = np.where(flips[np.minimum(perm, np.arange(dim))], -1.0, 1.0)
    return perm, sign


@st.composite
def commuting(draw):
    """A symmetric matrix A + PAP, which commutes with P bitwise."""
    perm, sign = draw(involutions())
    seed = draw(st.integers(0, 2**32 - 1))
    a = np.random.default_rng(seed).standard_normal((perm.size, perm.size))
    a = a + a.T
    return a + a[np.ix_(perm, perm)] * np.outer(sign, sign), perm, sign


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
    vecs = d.eigenvectors
    rebuilt = vecs @ np.diag(d.eigenvalues) @ vecs.T
    assert np.abs(rebuilt - h).max() <= 1e-10 * np.abs(h).max()
    assert np.abs(vecs.T @ vecs - np.eye(d.dim)).max() <= 1e-10
    assert np.abs((vecs ** 2).sum(axis=1) - 1.0).max() <= 1e-10


@PROPERTY
@given(st.data())
def test_sector_projection_matches_assembled_eigenvectors(data):
    h, perm, sign = data.draw(commuting())
    d = eigh(SymmetricMatrix(h, perm, sign))
    for _ in range(3):
        idx = data.draw(subsets(perm))
        dense = (d.eigenvectors[idx] ** 2).sum(axis=0)
        np.testing.assert_allclose(projection_onto_subset(d, idx), dense, rtol=0, atol=1e-14)


@PROPERTY
@given(commuting())
def test_assembled_eigenvectors_pass_criterion_9(case):
    h, perm, sign = case
    assert_hygienic(h, eigh(SymmetricMatrix(h, perm, sign)))


@PROPERTY
@given(commuting(), st.floats(-1e3, 1e3), st.integers(0, 2**32 - 1))
def test_scaled_plus_diagonal_passes_public_check(case, c, seed):
    h, perm, sign = case
    e = np.random.default_rng(seed).standard_normal(perm.size)
    diagonal = e + e[perm]  # invariant under perm
    m = SymmetricMatrix(h, perm, sign).scaled_plus_diagonal(c, diagonal)
    rechecked = SymmetricMatrix(m.entries, m.perm, m.sign)
    assert rechecked.entries.tobytes() == m.entries.tobytes()


@PROPERTY
@given(commuting(), st.data())
def test_scaled_plus_diagonal_rejects_diagonal_not_invariant(case, data):
    h, perm, sign = case
    swapped = np.flatnonzero(perm != np.arange(perm.size))
    if swapped.size == 0:
        return  # every diagonal is invariant under a sign-only involution
    diagonal = np.zeros(perm.size)
    diagonal[data.draw(st.sampled_from(swapped.tolist()))] = 1.0
    with pytest.raises(InputError, match="invariant"):
        SymmetricMatrix(h, perm, sign).scaled_plus_diagonal(1.0, diagonal)


def test_kepler_hamiltonians_pass_public_check():
    cfg = kepler.KeplerConfig()  # max_n 20, the default 61-point grid
    rho2 = kepler.build_rho2(cfg)
    for gamma in cfg.gamma_grid:
        h = kepler.build_h(cfg, gamma, rho2)
        assert SymmetricMatrix(h.entries, h.perm, h.sign).entries.tobytes() == h.entries.tobytes()


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_henon_heiles_hamiltonian_passes_public_check(lam):
    h = henon_heiles.build_h(henon_heiles.HHConfig(lam=lam))
    assert SymmetricMatrix(h.entries, h.perm, h.sign).entries.tobytes() == h.entries.tobytes()


def test_threads_read_one_assembled_eigenvectors():
    h = henon_heiles.build_h(henon_heiles.HHConfig(num_shells=20))
    d = eigh(h)
    start = threading.Barrier(2)
    seen = []

    def read():
        start.wait()
        seen.append(d.eigenvectors)

    workers = [threading.Thread(target=read) for _ in range(2)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert seen[0] is seen[1]
    assert_hygienic(h.entries, d)
