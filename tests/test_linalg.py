import tracemalloc

import numpy as np
import pytest

import oracles
import specfrag
from specfrag import henon_heiles, kepler, linalg, metrics
from specfrag.errors import ConvergenceError, InputError
from specfrag.linalg import (
    ShellGroup,
    ShellPartition,
    SymmetricMatrix,
    eigh,
    projection_onto_subset,
    random_block_unitary,
    single_threaded_blas,
)


def toy_partition():
    return ShellPartition(
        groups=(
            ShellGroup(label=0, indices=(0,), energy=1.0),
            ShellGroup(label=1, indices=(1, 2), energy=2.0),
            ShellGroup(label=2, indices=(3, 4, 5), energy=3.0),
        )
    )


class TestSymmetricMatrix:
    def test_mirrors_lower_triangle(self):
        m = SymmetricMatrix(np.array([[1.0, 99.0], [2.0, 3.0]]))
        assert m.entries[0, 1] == 2.0
        assert m.entries[1, 0] == 2.0

    def test_symmetric_input_copied_as_the_mirror_would(self):
        a = np.array([[-0.0, -0.0, 1.5], [-0.0, 2.0, 0.0], [1.5, 0.0, -0.0]])
        m = SymmetricMatrix(a)
        lower = np.tril(a)
        mirrored = lower + lower.T
        np.fill_diagonal(mirrored, a.diagonal())
        assert m.entries.tobytes() == mirrored.tobytes()
        a[0, 2] = a[2, 0] = 7.0
        assert m.entries[0, 2] == 1.5

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            SymmetricMatrix(np.array([[np.nan]]))

    @pytest.mark.parametrize("idx", [[0.5], [-1], [3], [True], [[0]]],
                             ids=["fraction", "negative", "past-the-end", "bool", "2-d"])
    def test_columns_refuses_what_is_not_basis_indices(self, idx):
        # [0.5] read column 0, [-1] the last one and [True] column 1
        m = SymmetricMatrix(np.arange(9.0).reshape(3, 3))
        with pytest.raises(InputError, match="basis ind"):
            m.columns(idx)

    def test_columns_reads_repeats_in_any_order(self):
        m = SymmetricMatrix(np.arange(9.0).reshape(3, 3))
        assert m.columns([2, 0, 2]).tobytes() == m.entries[:, [2, 0, 2]].tobytes()
        assert m.columns([]).shape == (3, 0)

    @pytest.mark.parametrize("build", [
        lambda: SymmetricMatrix.from_nonzeros(True, [0], [0], [2.0]),
        lambda: SymmetricMatrix([["a"]]),
        lambda: SymmetricMatrix.from_nonzeros(1, [0], [0], ["a"]),
        lambda: SymmetricMatrix.from_nonzeros(2, [[0], [0, 1]], [0, 1], [1.0, 1.0]),
        lambda: SymmetricMatrix(np.eye(2), perm=[[0], [0, 1]]),
        lambda: SymmetricMatrix(np.eye(2), blocks=[[0], [0, 1]]),
    ], ids=["bool-dim", "string-entries", "string-values", "ragged-rows", "ragged-perm",
            "ragged-blocks"])
    def test_constructors_refuse_bad_input_with_input_error(self, build):
        # numpy's TypeError or ValueError escaped each of these
        with pytest.raises(InputError):
            build()

    def test_immutable(self):
        m = SymmetricMatrix(np.eye(2))
        with pytest.raises(AttributeError):
            m.entries = np.zeros((2, 2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestEigh:
    def test_one_by_one(self):
        d = eigh(SymmetricMatrix(np.array([[3.5]])))
        assert d.eigenvalues[0] == 3.5
        assert abs(oracles.assembled_eigenvectors(d)[0, 0]) == 1.0

    def test_diagonal_sorted(self):
        d = eigh(SymmetricMatrix(np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_array_equal(d.eigenvalues, [1.0, 2.0, 3.0])
        # permutation eigenvectors: |C| has a single 1 per column
        perm = np.zeros((3, 3))
        perm[1, 0] = perm[2, 1] = perm[0, 2] = 1.0
        np.testing.assert_allclose(np.abs(oracles.assembled_eigenvectors(d)), perm, atol=1e-14)

    def test_reconstruction_random_6x6(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6))
        m = SymmetricMatrix(a + a.T)
        d = eigh(m)
        vecs = oracles.assembled_eigenvectors(d)
        rebuilt = vecs @ np.diag(d.eigenvalues) @ vecs.T
        assert np.abs(rebuilt - m.entries).max() <= 1e-10 * np.abs(m.entries).max()

    def test_orthogonality_and_completeness(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((12, 12))
        d = eigh(SymmetricMatrix(a + a.T))
        vecs = oracles.assembled_eigenvectors(d)
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(12)).max() <= 1e-10
        assert np.abs((vecs ** 2).sum(axis=1) - 1.0).max() <= 1e-10

    def test_overflowed_block_norm_fails_residual_gate(self):
        # |B|_F overflows to inf, and residual <= 1e-10 * inf would pass
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        with pytest.raises(ConvergenceError, match="norm of a 6x6 block of a 6x6 matrix"):
            eigh(SymmetricMatrix((a + a.T) * 1e160))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 9))
        m = SymmetricMatrix(a + a.T)
        d1, d2 = eigh(m), eigh(m)
        np.testing.assert_array_equal(d1.eigenvalues, d2.eigenvalues)
        np.testing.assert_array_equal(
            oracles.assembled_eigenvectors(d1), oracles.assembled_eigenvectors(d2)
        )

    def test_degenerate_multiplicities(self):
        d = eigh(SymmetricMatrix(np.diag([2.0, 1.0, 1.0, 1.0, 2.0])))
        np.testing.assert_allclose(d.eigenvalues, [1.0, 1.0, 1.0, 2.0, 2.0], atol=1e-14)

    def test_result_frozen(self):
        d = eigh(SymmetricMatrix(np.eye(3)))
        with pytest.raises(ValueError):
            d.eigenvalues[0] = 9.0


def record_block_sizes(monkeypatch) -> list[int]:
    """Sizes of the blocks handed to the LAPACK solver from here on."""
    sizes: list[int] = []
    solve = np.linalg.eigh

    def recording(a):
        sizes.append(a.shape[0])
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


def commuting_matrix(perm, seed):
    """A random symmetric matrix A + PAP, which commutes with P exactly."""
    a = np.random.default_rng(seed).standard_normal((len(perm), len(perm)))
    a = a + a.T
    return a + a[np.ix_(perm, perm)]


class TestSymmetryBlocks:
    # fixed points and swapped pairs
    PERM = [0, 4, 2, 5, 1, 3, 6]

    def test_blocked_matches_one_sector(self, monkeypatch):
        h = commuting_matrix(self.PERM, seed=21)
        blocked = SymmetricMatrix(h, perm=self.PERM)
        sizes = record_block_sizes(monkeypatch)
        d = eigh(blocked)
        assert sizes == [5, 2]  # even: 3 fixed + 2 pairs; odd: 2 pairs
        ref = eigh(SymmetricMatrix(h))
        np.testing.assert_allclose(d.eigenvalues, ref.eigenvalues, atol=1e-12 * np.linalg.norm(h))
        vecs = oracles.assembled_eigenvectors(d)
        rebuilt = vecs @ np.diag(d.eigenvalues) @ vecs.T
        assert np.abs(rebuilt - h).max() <= 1e-10 * np.abs(h).max()
        assert np.abs(vecs.T @ vecs - np.eye(7)).max() <= 1e-10

    def test_undeclared_is_trivial_symmetry(self):
        m = SymmetricMatrix(np.eye(3))
        np.testing.assert_array_equal(m.perm, [0, 1, 2])

    def test_rejects_non_commuting_symmetry(self):
        h = np.array([[1.0, 0.5], [0.5, 2.0]])
        with pytest.raises(InputError, match="commute"):
            SymmetricMatrix(h, perm=[1, 0])  # the swap needs equal diagonals
        with pytest.raises(InputError, match="between two declared blocks"):
            SymmetricMatrix(h, blocks=[0, 1])  # parity needs zero coupling
        off = commuting_matrix(self.PERM, seed=5)
        off[3, 0] = np.nextafter(off[3, 0], np.inf)
        with pytest.raises(InputError, match="commute"):
            SymmetricMatrix(off, perm=self.PERM)

    def test_rejects_non_involution(self):
        with pytest.raises(InputError, match="involution"):
            SymmetricMatrix(np.eye(3), perm=[1, 2, 0])

    def test_rejects_malformed_symmetry(self):
        with pytest.raises(InputError):
            SymmetricMatrix(np.eye(3), perm=[0, 1])
        with pytest.raises(InputError):
            SymmetricMatrix(np.eye(3), perm=[0, 1, 3])

    def test_decomposition_kept_per_sector(self):
        h = commuting_matrix(self.PERM, seed=8)
        d = eigh(SymmetricMatrix(h, perm=self.PERM))
        assert [part.vectors.shape for part in d.sectors] == [(5, 5), (2, 2)]
        cols = np.concatenate([part.columns for part in d.sectors])
        np.testing.assert_array_equal(np.sort(cols), np.arange(7))
        for part in d.sectors:
            np.testing.assert_array_equal(d.eigenvalues[part.columns], part.eigenvalues)

    def test_decomposition_frozen(self):
        h = commuting_matrix(self.PERM, seed=9)
        d = eigh(SymmetricMatrix(h, perm=self.PERM))
        with pytest.raises(ValueError):
            d.eigenvalues[0] = 1.0
        with pytest.raises(ValueError):
            d.sectors[0].vectors[0, 0] = 1.0
        with pytest.raises(AttributeError):
            d.sectors = ()
        with pytest.raises(AttributeError):
            d.eigenvalues = d.eigenvalues.copy()

    def test_failed_block_solve_names_full_dimension(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("synthetic")

        h = commuting_matrix(self.PERM, seed=2)
        m = SymmetricMatrix(h, perm=self.PERM)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match="5x5 block of a 7x7 matrix"):
            eigh(m)

    @pytest.mark.parametrize("nan_in, gate", [("vectors", "orthogonality"),
                                              ("values", "residual")])
    def test_nan_solve_fails_its_gate(self, nan_in, gate, monkeypatch):
        # a LAPACK handed a NaN may return NaN eigenpairs without raising
        solve = np.linalg.eigh

        def nan_solve(a):
            vals, vecs = solve(a)
            if nan_in == "vectors":
                vecs = np.full_like(vecs, np.nan)
            else:
                vals = np.full_like(vals, np.nan)
            return vals, vecs

        m = SymmetricMatrix(commuting_matrix(self.PERM, seed=3), perm=self.PERM)
        monkeypatch.setattr(np.linalg, "eigh", nan_solve)
        with pytest.raises(ConvergenceError, match=gate):
            eigh(m)


class TestScaledPlusDiagonal:
    PERM = TestSymmetryBlocks.PERM

    def checked(self, seed):
        return SymmetricMatrix(commuting_matrix(self.PERM, seed), self.PERM)

    def test_bitwise_equal_to_the_constructors_sum(self):
        a = self.checked(seed=4)
        d = np.arange(7.0)[self.PERM] + np.arange(7.0)
        for c in (0.0, -0.0, 0.37, -2.5):
            m = a.scaled_plus_diagonal(c, d)
            expected = SymmetricMatrix(np.diag(d) + c * a.entries, self.PERM)
            assert m.entries.tobytes() == expected.entries.tobytes()
            assert type(m) is SymmetricMatrix and m.scale == c and a.scale is None
            assert m.perm is a.perm and m.blocks is a.blocks
            assert m._orbits is a._orbits and m._layout is a._layout
            with pytest.raises(ValueError):
                m.entries[0, 0] = 1.0

    def test_off_diagonal_negative_zero_becomes_positive(self):
        a = SymmetricMatrix(np.array([[1.0, -2.0], [-2.0, 3.0]]))
        m = a.scaled_plus_diagonal(0.0, [5.0, 6.0])
        assert m.entries.tobytes() == np.array([[5.0, 0.0], [0.0, 6.0]]).tobytes()

    def test_rejects_diagonal_not_invariant(self):
        a = self.checked(seed=6)
        d = np.zeros(7)
        d[1] = 1.0  # 1 and 4 are swapped
        with pytest.raises(InputError, match="invariant"):
            a.scaled_plus_diagonal(1.0, d)

    def test_rejects_bad_input(self):
        a = self.checked(seed=6)
        with pytest.raises(InputError):
            a.scaled_plus_diagonal(1.0, np.zeros(6))
        with pytest.raises(InputError):
            a.scaled_plus_diagonal(np.inf, np.zeros(7))
        with pytest.raises(InputError):
            a.scaled_plus_diagonal(1.0, np.full(7, np.nan))
        with pytest.raises(InputError, match="finite"):
            a.scaled_plus_diagonal(1e308, np.zeros(7))
        with pytest.raises(InputError, match="already scaled"):
            a.scaled_plus_diagonal(2.0, np.zeros(7)).scaled_plus_diagonal(1.0, np.zeros(7))

    def test_one_class_holds_operators_and_hamiltonians(self):
        assert "SymmetricMatrix" in specfrag.__all__
        assert not any(hasattr(mod, "SectorMatrix") for mod in (specfrag, linalg))

    def test_peak_memory_is_the_result(self):
        # a finiteness mask of the result added an eighth of it
        v = henon_heiles.build_v(henon_heiles.HHConfig(num_shells=40))
        d = np.ones(v.dim)
        tracemalloc.start()
        try:
            h = v.scaled_plus_diagonal(1.0, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * h.entries.nbytes


def record_blocks(monkeypatch) -> list[np.ndarray]:
    """Copies of the blocks handed to the LAPACK solver from here on."""
    blocks: list[np.ndarray] = []
    solve = np.linalg.eigh

    def recording(a):
        blocks.append(a.copy())
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return blocks


class TestSectorForm:
    """H = c * A + diag(d) is held as A's sector pieces: every block eigh
    hands the solver is bitwise the block gathered out of the dense sum,
    entries and columns are that sum bitwise, and no dense H is held."""

    @staticmethod
    def check(m, dense, blocks):
        blocks.clear()
        d = eigh(m)
        expected = [oracles.sector_block(dense, part.sector)
                    for part in d.sectors if not part.sector.twin]
        assert [b.tobytes() for b in blocks] == [b.tobytes() for b in expected]
        assert m.entries.tobytes() == dense.tobytes()
        for idx in (np.arange(m.dim), np.arange(m.dim)[::-3]):
            assert m.columns(idx).tobytes() == m.entries[:, idx].tobytes()
        with pytest.raises(ValueError):
            m.entries[0, 0] = 1.0

    @pytest.mark.parametrize("shells", [8, 12, 30])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_henon_heiles_blocks_bitwise_dense_gathers(self, shells, lam, monkeypatch):
        cfg = henon_heiles.HHConfig(num_shells=shells, lam=lam)
        h0 = oracles.build_h0(cfg).entries.diagonal()
        dense = oracles.scaled_plus_diagonal(henon_heiles.build_v(cfg), lam, h0)
        self.check(henon_heiles.build_h(cfg), dense, record_blocks(monkeypatch))

    @pytest.mark.parametrize("max_n", [6, 12, 20])
    def test_kepler_blocks_bitwise_dense_gathers(self, max_n, monkeypatch):
        cfg = kepler.KeplerConfig(max_n=max_n, target_shell=min(max_n, 10))
        rho2 = kepler.build_rho2(cfg)
        _, groups = oracles.triangular_basis_loop(max_n, 1, kepler.shell_energy)
        energies = [e for _, indices, e in groups for _ in indices]
        blocks = record_blocks(monkeypatch)
        for gamma in (0.0, *cfg.gamma_grid):
            dense = oracles.scaled_plus_diagonal(rho2, gamma * gamma / 8.0, energies)
            self.check(kepler.build_h(cfg, gamma, rho2), dense, blocks)

    def test_plain_and_scaled_blocks_bitwise_dense_gathers(self, monkeypatch):
        # two swapped blocks and one mapped onto itself, with a fixed state
        # and a pair; scales of either sign and signed zeros
        a = SymmetricMatrix(TestBlocks().matrix(seed=5), TestBlocks.PERM, TestBlocks.BLOCKS)
        d = np.array([-0.0, 1.5, 1.5, -0.0, 0.0, 2.0, 2.0])
        blocks = record_blocks(monkeypatch)
        self.check(a, a.entries, blocks)
        for c in (0.0, -0.0, 0.37, -2.5):
            self.check(a.scaled_plus_diagonal(c, d), oracles.scaled_plus_diagonal(a, c, d), blocks)

    @staticmethod
    def traced(build):
        """(retained, peak) bytes that tracemalloc sees while build() runs,
        and the result."""
        build()
        tracemalloc.start()
        try:
            result = build()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return retained, peak, result

    def test_henon_heiles_build_h_retains_under_half_a_dense_array(self):
        # a dense H was one whole array; V is freed once its pieces are out
        retained, _, h = self.traced(lambda: henon_heiles.build_h(henon_heiles.HHConfig(num_shells=40)))
        assert retained < 0.5 * h.dim ** 2 * 8

    def test_kepler_build_h_retains_under_three_quarters_of_a_dense_array(self):
        cfg = kepler.KeplerConfig(max_n=30)
        rho2 = kepler.build_rho2(cfg)
        retained, _, _ = self.traced(lambda: kepler.build_h(cfg, cfg.gamma_grid[-1], rho2))
        assert retained < 0.75 * rho2.entries.nbytes

    def test_henon_heiles_solve_peaks_under_1_6_dense_arrays(self):
        # V and a dense H held together peaked at 2.02 arrays
        cfg = henon_heiles.HHConfig(num_shells=40)
        _, peak, d = self.traced(lambda: eigh(henon_heiles.build_h(cfg)))
        assert peak <= 1.6 * d.dim ** 2 * 8


class TestHeldAsPieces:
    """V and rho^2 keep only their sector pieces: each is bitwise what
    writing its nonzero list into one dense array gives (oracles.
    place_checked), in its entries, its columns, every block eigh solves
    and every W_pt, and no build or metric holds a dense array."""

    @staticmethod
    def henon_heiles(shells, monkeypatch):
        """(V, the list build_v hands to from_nonzeros, cfg)."""
        cfg = henon_heiles.HHConfig(num_shells=shells)
        seen = []
        build = SymmetricMatrix.from_nonzeros.__func__

        def spy(cls, dim, rows, cols, values, perm=None, blocks=None):
            seen.append((dim, rows, cols, values, perm, blocks))
            return build(cls, dim, rows, cols, values, perm, blocks)

        monkeypatch.setattr(SymmetricMatrix, "from_nonzeros", classmethod(spy))
        v = henon_heiles.build_v(cfg)
        monkeypatch.undo()
        return v, seen[0], cfg

    def check(self, m, nonzeros, partition, solve, monkeypatch):
        """m against the oracle's dense array of its nonzero list; solve
        maps a matrix to the one whose blocks eigh is checked on."""
        dim, rows, cols, values, perm, blocks = nonzeros
        dense = oracles.place_checked(dim, rows, cols, values, perm, blocks)
        assert m.entries.tobytes() == dense.tobytes()
        for g in partition.groups:
            idx = np.asarray(g.indices)
            assert m.columns(idx).tobytes() == dense[:, idx].tobytes()
            assert (metrics.w_perturbative(m, partition, g.label, 0.7).hex()
                    == oracles.w_perturbative_dense(dense, partition, g.label, 0.7).hex())
        h, dense_h = solve(m, dense)
        blocks_seen = record_blocks(monkeypatch)
        d = eigh(h)
        expected = [oracles.sector_block(dense_h, part.sector)
                    for part in d.sectors if not part.sector.twin]
        assert [b.tobytes() for b in blocks_seen] == [b.tobytes() for b in expected]

    @pytest.mark.parametrize("shells", [12, 30, 60])
    def test_henon_heiles_v_is_its_dense_list(self, shells, monkeypatch):
        v, nonzeros, cfg = self.henon_heiles(shells, monkeypatch)
        quanta, partition = henon_heiles.enumerate_basis(cfg)
        h0 = cfg.hbar * (quanta.sum(axis=1) + 1)

        def solve(m, dense):
            return (m.scaled_plus_diagonal(cfg.lam, h0),
                    oracles.scaled_plus_diagonal(dense, cfg.lam, h0))

        self.check(v, nonzeros, partition, solve, monkeypatch)

    @pytest.mark.parametrize("max_n", [12, 20])
    def test_kepler_rho2_is_its_dense_list(self, max_n, monkeypatch):
        cfg = kepler.KeplerConfig(max_n=max_n)
        rho2 = kepler.build_rho2(cfg)
        quanta, partition = kepler.enumerate_parabolic_basis(cfg)
        first = kepler._rho2_entries(cfg, max(max_n + 4, 12))
        nonzeros = (rho2.dim, *oracles.lower_nonzeros(first),
                    linalg.triangular_exchange(quanta), np.zeros(rho2.dim, dtype=int))
        self.check(rho2, nonzeros, partition, lambda m, dense: (m, dense), monkeypatch)
        energies = kepler.shell_energy(quanta.sum(axis=1) + 1)
        for gamma in (0.0, cfg.gamma_grid[0], cfg.gamma_grid[-1]):
            c = gamma * gamma / 8.0
            self.check(rho2, nonzeros, partition, lambda m, dense: (
                m.scaled_plus_diagonal(c, energies),
                oracles.scaled_plus_diagonal(dense, c, energies)), monkeypatch)

    def test_henon_heiles_build_v_peaks_under_0_35_dense_arrays(self):
        # V kept as one dense array peaked at 1.05 of it
        cfg = henon_heiles.HHConfig(num_shells=40)
        _, peak, v = TestSectorForm.traced(lambda: henon_heiles.build_v(cfg))
        assert peak < 0.35 * v.dim ** 2 * 8

    def test_henon_heiles_w_pt_stage_peaks_under_0_35_dense_arrays(self):
        # the run's w-pt stage: V, then W_pt on every scanned shell (1..26)
        cfg = henon_heiles.HHConfig(num_shells=40)
        _, partition = henon_heiles.enumerate_basis(cfg)

        def stage():
            v = henon_heiles.build_v(cfg)
            return [metrics.w_perturbative(v, partition, n, cfg.lam) for n in range(1, 27)]

        _, peak, _ = TestSectorForm.traced(stage)
        assert peak < 0.35 * partition.dim ** 2 * 8

    def test_kepler_build_h_allocates_under_0_05_dense_arrays_sharing_rho2s_pieces(self):
        # each build_h gathered rho^2's pieces again, half a dense array
        cfg = kepler.KeplerConfig(max_n=30)
        rho2 = kepler.build_rho2(cfg)
        retained, _, h = TestSectorForm.traced(
            lambda: kepler.build_h(cfg, cfg.gamma_grid[-1], rho2))
        assert retained < 0.05 * rho2.dim ** 2 * 8
        for mine, theirs in zip(h._orbits, rho2._orbits, strict=True):
            for name in ("ff", "rf", "rr", "rq"):
                assert getattr(mine, name) is getattr(theirs, name)


def hh30():
    cfg = henon_heiles.HHConfig(num_shells=30)
    return henon_heiles.build_h(cfg), henon_heiles.enumerate_basis(cfg)[1]


def kepler20():
    cfg = kepler.KeplerConfig(max_n=20)
    h = kepler.build_h(cfg, cfg.gamma_grid[-1], kepler.build_rho2(cfg))
    return h, kepler.enumerate_parabolic_basis(cfg)[1]


@pytest.mark.parametrize("build, sizes", [(hh30, [85, 70, 155]), (kepler20, [110, 100])])
def test_builder_blocks_match_one_sector_solve(build, sizes, monkeypatch):
    """The builders' declared symmetries split the solve into the expected
    sectors without moving the spectrum or any shell's projections."""
    h, partition = build()
    ref = eigh(SymmetricMatrix(h.entries))
    solved = record_block_sizes(monkeypatch)
    d = eigh(h)
    assert solved == sizes
    assert np.abs(d.eigenvalues - ref.eigenvalues).max() <= 1e-12 * np.linalg.norm(h.entries)
    for g in partition.groups:
        np.testing.assert_allclose(
            projection_onto_subset(d, g.indices),
            projection_onto_subset(ref, g.indices),
            rtol=0,
            atol=1e-10,
        )


class TestBlocks:
    # blocks 4 and 9 swapped by the involution, block 2 mapped onto itself
    # with a fixed state and a pair; states interleaved
    PERM = [3, 2, 1, 0, 4, 6, 5]
    BLOCKS = [4, 2, 2, 9, 2, 9, 4]

    def matrix(self, seed):
        h = commuting_matrix(self.PERM, seed)
        blocks = np.array(self.BLOCKS)
        h[blocks[:, None] != blocks] = 0.0
        return h

    def test_sector_form_size_counts_the_buffer(self):
        m = SymmetricMatrix(self.matrix(seed=3), self.PERM, self.BLOCKS)
        # the even block of block 2: its fixed state and its pair
        assert linalg.sector_form_size(self.PERM, self.BLOCKS) == (m._layout[0].size, 2)
        for a in (henon_heiles.build_v(henon_heiles.HHConfig(num_shells=12)),
                  kepler.build_rho2(kepler.KeplerConfig(max_n=8, target_shell=4))):
            assert linalg.sector_form_size(a.perm, a.blocks)[0] == a._layout[0].size

    def test_undeclared_is_one_block(self):
        np.testing.assert_array_equal(SymmetricMatrix(np.eye(3)).blocks, [0, 0, 0])

    def test_swapped_pair_solved_once(self, monkeypatch):
        h = self.matrix(seed=3)
        m = SymmetricMatrix(h, self.PERM, self.BLOCKS)
        sizes = record_block_sizes(monkeypatch)
        d = eigh(m)
        # block 2: even sector the fixed state and 1 pair, odd sector 1
        # pair; blocks 4 and 9: one 2x2 block for both their sectors
        assert sizes == [2, 1, 2]
        assert [part.vectors.shape[0] for part in d.sectors] == [2, 1, 2, 2]
        even, odd = d.sectors[2:]
        assert odd.vectors is even.vectors and odd.eigenvalues is even.eigenvalues
        ref = eigh(SymmetricMatrix(h))
        np.testing.assert_allclose(d.eigenvalues, ref.eigenvalues, atol=1e-12 * np.linalg.norm(h))
        vecs = oracles.assembled_eigenvectors(d)
        rebuilt = vecs @ np.diag(d.eigenvalues) @ vecs.T
        assert np.abs(rebuilt - h).max() <= 1e-10 * np.abs(h).max()

    def test_rejects_entry_between_blocks(self):
        h = self.matrix(seed=4)
        h[5, 0] = h[0, 5] = 1e-300
        with pytest.raises(InputError, match="between two declared blocks"):
            SymmetricMatrix(h, blocks=self.BLOCKS)

    def test_rejects_perm_not_mapping_blocks_onto_blocks(self):
        # the swap (0, 1) takes block 1 = {1, 2} partly onto block 0 and
        # partly onto itself
        with pytest.raises(InputError, match="blocks onto blocks"):
            SymmetricMatrix(np.eye(3), perm=[1, 0, 2], blocks=[0, 1, 1])

    def test_rejects_malformed_blocks(self):
        with pytest.raises(InputError):
            SymmetricMatrix(np.eye(3), blocks=[0, 1])
        with pytest.raises(InputError):
            SymmetricMatrix(np.eye(3), blocks=[0.0, 1.0, 1.0])

    def test_scaled_plus_diagonal_keeps_blocks(self):
        m = SymmetricMatrix(self.matrix(seed=6), self.PERM, self.BLOCKS)
        s = m.scaled_plus_diagonal(-2.0, np.ones(7))
        np.testing.assert_array_equal(s.blocks, self.BLOCKS)
        rechecked = SymmetricMatrix(s.entries, s.perm, s.blocks)
        assert rechecked.entries.tobytes() == s.entries.tobytes()


@pytest.mark.parametrize("shells, sizes", [(30, [85, 70, 155]), (60, [320, 290, 610])])
def test_circular_builder_solves_three_blocks(shells, sizes, monkeypatch):
    """The C3v form solves A1, A2 and one E block, and moves neither the
    spectrum nor any shell's projections of the Cartesian solve."""
    cfg = henon_heiles.HHConfig(num_shells=shells)
    h, partition = henon_heiles.build_h(cfg), henon_heiles.enumerate_basis(cfg)[1]
    ref = eigh(oracles.cartesian_h(shells, cfg.hbar, cfg.lam))
    solved = record_block_sizes(monkeypatch)
    d = eigh(h)
    assert solved == sizes
    assert np.abs(d.eigenvalues - ref.eigenvalues).max() <= 1e-12 * np.linalg.norm(h.entries)
    for g in partition.groups:
        np.testing.assert_allclose(
            projection_onto_subset(d, g.indices),
            projection_onto_subset(ref, g.indices),
            rtol=0,
            atol=1e-10,
        )


def lower_nonzeros(a):
    """a's lower-triangle nonzeros and its whole diagonal, as
    (rows, cols, values)."""
    rows, cols = np.nonzero(np.tril(a != 0.0, -1))
    diag = np.arange(a.shape[0])
    rows, cols = np.concatenate([rows, diag]), np.concatenate([cols, diag])
    return rows, cols, a[rows, cols]


class TestFromNonzeros:
    PERM, BLOCKS = TestBlocks.PERM, TestBlocks.BLOCKS

    def test_bitwise_equal_to_dense_constructor(self):
        h = TestBlocks().matrix(seed=8)
        dense = SymmetricMatrix(h, self.PERM, self.BLOCKS)
        rows, cols, values = lower_nonzeros(h)
        # upper entries too, and in another order: agreeing mirrors are fine
        m = SymmetricMatrix.from_nonzeros(
            7, np.r_[cols, rows[::-1]], np.r_[rows, cols[::-1]], np.r_[values, values[::-1]],
            self.PERM, self.BLOCKS)
        for name in ("entries", "perm", "blocks"):
            assert getattr(m, name).tobytes() == getattr(dense, name).tobytes()
        with pytest.raises(ValueError):
            m.entries[0, 0] = 1.0

    def test_nothing_given_is_zero(self):
        empty = np.array([], dtype=int)
        m = SymmetricMatrix.from_nonzeros(3, empty, empty, [])
        assert m.entries.tobytes() == np.zeros((3, 3)).tobytes()

    @pytest.mark.parametrize("fault, match", [
        ("non-commuting", "commute"),
        ("between-blocks", "between two declared blocks"),
        ("zero-image", "commute"),
    ])
    def test_rejects_what_the_dense_constructor_rejects(self, fault, match):
        h = TestBlocks().matrix(seed=9)
        if fault == "non-commuting":
            h[6, 0] = h[0, 6] = np.nextafter(h[6, 0], np.inf)
        elif fault == "between-blocks":
            # and at its image, so that P still commutes
            h[5, 0] = h[0, 5] = h[6, 3] = h[3, 6] = 1e-300
        else:
            # (4, 2) maps onto (4, 1), which stays nonzero
            h[4, 2] = h[2, 4] = 0.0
        with pytest.raises(InputError, match=match):
            SymmetricMatrix(h, self.PERM, self.BLOCKS)
        with pytest.raises(InputError, match=match):
            SymmetricMatrix.from_nonzeros(7, *lower_nonzeros(h), self.PERM, self.BLOCKS)

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_rejects_disagreeing_duplicate(self, mirrored):
        rows, cols, values = [1, 0, 1], [0, 0, 1], [2.0, 1.0, 3.0]
        rows, cols = rows + [0 if mirrored else 1], cols + [1 if mirrored else 0]
        with pytest.raises(InputError, match="different values"):
            SymmetricMatrix.from_nonzeros(2, rows, cols, values + [2.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InputError, match="finite"):
            SymmetricMatrix.from_nonzeros(2, [1, 0], [0, 0], [bad, 1.0])
        with pytest.raises(InputError, match="finite"):
            SymmetricMatrix(np.array([[1.0, 0.0], [bad, 1.0]]))

    def test_rejects_malformed(self):
        for args in [
            (0, [], [], []),
            (2.0, [0], [0], [1.0]),
            (2, [0, 1], [0], [1.0]),
            (2, [[0]], [[0]], [[1.0]]),
            (2, [0.0], [0], [1.0]),
            (2, [2], [0], [1.0]),
            (2, [0], [-1], [1.0]),
        ]:
            with pytest.raises(InputError):
                SymmetricMatrix.from_nonzeros(*args)
        with pytest.raises(InputError, match="involution"):
            SymmetricMatrix.from_nonzeros(3, [0], [0], [1.0], perm=[1, 2, 0])

    @pytest.mark.parametrize("dim", [10**30, 2**62])
    def test_rejects_a_dim_past_the_index_range(self, dim, monkeypatch):
        # refused before the identity perm np.arange(dim) is formed
        def unreached(*args):
            raise AssertionError("_involution ran")

        monkeypatch.setattr(linalg, "_involution", unreached)
        with pytest.raises(InputError, match="past numpy's index range"):
            SymmetricMatrix.from_nonzeros(dim, [0], [0], [1.0])


class TestProjection:
    def test_full_subset_is_ones(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8))
        d = eigh(SymmetricMatrix(a + a.T))
        np.testing.assert_allclose(
            projection_onto_subset(d, range(8)), np.ones(8), atol=1e-12
        )

    def test_unperturbed_indicator(self):
        d = eigh(SymmetricMatrix(np.diag([1.0, 2.0, 3.0, 4.0])))
        w = projection_onto_subset(d, [1])
        np.testing.assert_allclose(w, [0.0, 1.0, 0.0, 0.0], atol=1e-14)

    def test_sum_rule(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((10, 10))
        d = eigh(SymmetricMatrix(a + a.T))
        assert abs(projection_onto_subset(d, [2, 5, 6]).sum() - 3.0) <= 1e-10

    def test_pair_split_by_subset(self):
        # one pair (0, 1) of the swap; its sector rows put half their
        # weight on each state, so the subset {0} reads exactly 1/2
        h = np.array([[1.0, 0.5], [0.5, 1.0]])
        d = eigh(SymmetricMatrix(h, perm=[1, 0]))
        w = projection_onto_subset(d, [0])
        np.testing.assert_allclose(w, [0.5, 0.5], rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, oracles.assembled_eigenvectors(d)[0] ** 2, rtol=0, atol=1e-15)

    def test_rejects_bad_subset(self):
        d = eigh(SymmetricMatrix(np.eye(3)))
        with pytest.raises(InputError):
            projection_onto_subset(d, [3])
        with pytest.raises(InputError):
            projection_onto_subset(d, [])
        with pytest.raises(InputError):
            projection_onto_subset(d, [0, 0])

    @pytest.mark.parametrize("subset", [[1.7, 2.2], [1.0], [True], np.array([0.0, 2.0])],
                             ids=["fractions", "integral-float", "bool", "float-array"])
    def test_rejects_non_integer_subset(self, subset):
        # int() would read [1.7, 2.2] as the states [1, 2] and True as 1
        d = eigh(SymmetricMatrix(np.diag([1.0, 2.0, 3.0, 4.0])))
        with pytest.raises(InputError, match="integer"):
            projection_onto_subset(d, subset)


class TestShellPartition:
    def test_valid_partition(self):
        p = toy_partition()
        assert p.dim == 6
        assert p.labels() == (0, 1, 2)
        assert p.group(1).indices == (1, 2)

    def test_rejects_overlap(self):
        with pytest.raises(InputError):
            ShellPartition(
                groups=(
                    ShellGroup(label=0, indices=(0, 1), energy=1.0),
                    ShellGroup(label=1, indices=(1, 2), energy=2.0),
                )
            )

    def test_rejects_duplicate_labels(self):
        # group(1) would find only the first label-1 group
        with pytest.raises(InputError, match="labels"):
            ShellPartition(
                groups=(
                    ShellGroup(label=0, indices=(0,), energy=1.0),
                    ShellGroup(label=1, indices=(1,), energy=2.0),
                    ShellGroup(label=1, indices=(2,), energy=3.0),
                )
            )

    def test_rejects_gap(self):
        with pytest.raises(InputError):
            ShellPartition(
                groups=(
                    ShellGroup(label=0, indices=(0,), energy=1.0),
                    ShellGroup(label=1, indices=(2,), energy=2.0),
                )
            )

    def test_rejects_non_increasing_energy(self):
        with pytest.raises(InputError):
            ShellPartition(
                groups=(
                    ShellGroup(label=0, indices=(0,), energy=2.0),
                    ShellGroup(label=1, indices=(1,), energy=2.0),
                )
            )

    def test_unknown_label(self):
        with pytest.raises(InputError):
            toy_partition().group(9)


class TestRandomBlockUnitary:
    def test_singletons_give_signs(self):
        p = ShellPartition(
            groups=tuple(
                ShellGroup(label=i, indices=(i,), energy=float(i)) for i in range(5)
            )
        )
        u = random_block_unitary(p, seed=42)
        off = u - np.diag(np.diag(u))
        assert np.abs(off).max() == 0.0
        assert set(np.diag(u)) <= {1.0, -1.0}

    def test_orthogonal(self):
        p = toy_partition()
        for seed in (0, 1, 2, 3):
            u = random_block_unitary(p, seed=seed)
            assert np.abs(u.T @ u - np.eye(6)).max() <= 1e-12

    def test_exact_zeros_off_blocks(self):
        p = toy_partition()
        u = random_block_unitary(p, seed=9)
        mask = np.ones((6, 6), dtype=bool)
        for g in p.groups:
            ix = np.ix_(g.indices, g.indices)
            mask[ix] = False
        assert np.all(u[mask] == 0.0)

    def test_seed_determinism(self):
        p = toy_partition()
        np.testing.assert_array_equal(
            random_block_unitary(p, seed=123), random_block_unitary(p, seed=123)
        )
        assert not np.array_equal(
            random_block_unitary(p, seed=123), random_block_unitary(p, seed=124)
        )


class TestSingleThreadedBlas:
    def test_pins_and_restores_on_error(self):
        lib = linalg._openblas()
        if lib is None:
            pytest.skip("numpy's BLAS exposes no thread count")
        get, set_, _ = lib
        before = get()
        set_(2)
        try:
            with pytest.raises(RuntimeError):
                with single_threaded_blas() as pinned:
                    assert pinned and get() == 1
                    raise RuntimeError
            assert get() == 2
        finally:
            set_(before)

    def test_reports_unpinned_without_openblas(self, monkeypatch):
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        with single_threaded_blas() as pinned:
            assert pinned is False
