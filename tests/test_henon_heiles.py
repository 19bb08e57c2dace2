import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    basis_index,
    build_h0,
    cartesian_h,
    cartesian_states,
    cartesian_v_matrix,
    circular_rotations,
    circular_v_matrix,
    hermite_v_element,
    rotate_to_circular,
    triangular_basis_loop,
)
from specfrag.errors import ConfigurationError, InputError
from specfrag.henon_heiles import (
    HHConfig,
    bound_energy_ceiling,
    build_h,
    build_v,
    enumerate_basis,
)
from specfrag.linalg import SymmetricMatrix, eigh


def test_single_shell_basis():
    quanta, part = enumerate_basis(HHConfig(num_shells=1))
    assert quanta.tolist() == [[0, 0]]
    assert part.groups[0].energy == pytest.approx(0.01)


def test_four_shell_basis():
    quanta, part = enumerate_basis(HHConfig(num_shells=4))
    assert len(quanta) == 10
    assert [len(g.indices) for g in part.groups] == [1, 2, 3, 4]


def test_triangular_counts():
    for ns, dim in ((30, 465), (31, 496)):
        quanta, part = enumerate_basis(HHConfig(num_shells=ns))
        assert len(quanta) == ns * (ns + 1) // 2 == dim
        assert len(part.groups) == ns


def test_enumeration_order():
    quanta, part = enumerate_basis(HHConfig(num_shells=5))
    shells = quanta.sum(axis=1).tolist()
    assert shells == sorted(shells)
    for g in part.groups:
        n_plus = quanta[list(g.indices), 0].tolist()
        assert n_plus == sorted(n_plus)
        assert all(shells[i] == g.label for i in g.indices)
    energies = [g.energy for g in part.groups]
    assert energies == [0.01 * (n + 1) for n in range(5)]


def test_config_validation():
    with pytest.raises(ConfigurationError):
        HHConfig(num_shells=0)
    with pytest.raises(ConfigurationError):
        HHConfig(hbar=0.0)
    with pytest.raises(ConfigurationError):
        HHConfig(hbar=-1.0)
    with pytest.raises(ConfigurationError):
        HHConfig(lam=-0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_num_shells(value):
    with pytest.raises(ConfigurationError, match="num_shells"):
        HHConfig(num_shells=value)


def test_config_rejects_boolean_num_shells():
    with pytest.raises(ConfigurationError, match="num_shells"):
        HHConfig(num_shells=True)


@pytest.mark.parametrize(
    "field, value, name",
    [("hbar", True, "hbar"), ("lam", True, "lambda"), ("hbar", "0.01", "hbar"),
     ("lam", "1", "lambda")],
)
def test_config_rejects_non_number_couplings(field, value, name):
    # True would otherwise run as 1.0; a string would reach math.isfinite
    with pytest.raises(ConfigurationError, match=name):
        HHConfig(**{field: value})


def test_integral_float_num_shells_builds_as_int():
    # the basis needs an int: range() and np.arange refuse or mis-type a float
    cfg = HHConfig(num_shells=6.0)
    assert type(cfg.num_shells) is int
    v, expected = build_v(cfg), build_v(HHConfig(num_shells=6))
    for name in ("entries", "perm", "blocks"):
        assert getattr(v, name).tobytes() == getattr(expected, name).tobytes()


@pytest.mark.parametrize("num_shells", [1, 2, 4, 30, 60])
def test_basis_matches_loop_oracle(num_shells):
    cfg = HHConfig(num_shells=num_shells)
    quanta, part = enumerate_basis(cfg)
    ref_quanta, ref_groups = triangular_basis_loop(
        num_shells, 0, lambda n: cfg.hbar * (n + 1)
    )
    assert quanta.dtype.kind == "i" and not quanta.flags.writeable
    assert quanta.tolist() == [list(q) for q in ref_quanta]
    assert [(g.label, g.indices, g.energy) for g in part.groups] == ref_groups
    assert all(type(g.label) is int and type(g.energy) is float for g in part.groups)
    # V's diagonal is zero, so H's is H0's
    diagonal = np.array([cfg.hbar * (a + b + 1) for a, b in ref_quanta])
    assert np.diag(build_h(cfg).entries).tobytes() == diagonal.tobytes()


@pytest.mark.parametrize("num_shells", [1, 2, 4, 30])
def test_v_declares_the_layouts_exchange(num_shells):
    # (n_+, n_-) -> (n_-, n_+): shell start plus n_-
    quanta, groups = triangular_basis_loop(num_shells, 0, float)
    start = [g[1][0] for g in groups for _ in g[1]]
    expected = [s + n_minus for s, (_, n_minus) in zip(start, quanta)]
    np.testing.assert_array_equal(build_v(HHConfig(num_shells=num_shells)).perm, expected)


class TestH0:
    def test_ground_energy(self):
        h0 = build_h0(HHConfig(num_shells=3))
        assert h0.entries[0, 0] == pytest.approx(0.01)

    def test_hbar_one_state(self):
        cfg = HHConfig(hbar=1.0, num_shells=7)
        quanta, _ = enumerate_basis(cfg)
        h0 = build_h0(cfg)
        i = basis_index(quanta)[2, 3]
        assert h0.entries[i, i] == 6.0

    def test_shell_trace(self):
        cfg = HHConfig(num_shells=8)
        _, part = enumerate_basis(cfg)
        h0 = build_h0(cfg)
        for g in part.groups:
            n = g.label
            tr = sum(h0.entries[i, i] for i in g.indices)
            assert tr == pytest.approx((n + 1) * cfg.hbar * (n + 1))


def element_loop_v(num_shells, hbar):
    """The Cartesian V one basis pair at a time from the closed-form scalar
    elements of q, q^2 and q^3: the loop that the oracle's shell blocks
    replace."""
    c = hbar / 2.0

    def q(m, n):
        return math.sqrt(c) * math.sqrt(max(m, n)) if abs(m - n) == 1 else 0.0

    def q2(m, n):
        if m == n:
            return c * (2 * n + 1)
        k = max(m, n)
        return c * math.sqrt(k * (k - 1)) if abs(m - n) == 2 else 0.0

    def q3(m, n):
        if abs(m - n) == 3:
            k = max(m, n)
            return c ** 1.5 * math.sqrt(k * (k - 1) * (k - 2))
        if abs(m - n) == 1:
            return c ** 1.5 * 3.0 * (min(m, n) + 1) ** 1.5
        return 0.0

    states = cartesian_states(num_shells)
    v = np.zeros((len(states), len(states)))
    for j, (k1, k2) in enumerate(states):
        for i, (b1, b2) in enumerate(states):
            if abs(b1 + b2 - k1 - k2) in (1, 3):
                v[i, j] = q2(b1, k1) * q(b2, k2)
                if b1 == k1:
                    v[i, j] -= q3(b2, k2) / 3.0
    return v


class TestV:
    """The closed-form V, and the Cartesian oracle V that the circular one
    is checked against."""

    def test_diagonal_vanishes(self):
        v = build_v(HHConfig(num_shells=6))
        assert np.all(np.diag(v.entries) == 0.0)

    def test_pinned_elements(self):
        # Cartesian: <2, 1|V|0, 0> and <0, 3|V|0, 0>
        states = cartesian_states(5)
        v = cartesian_v_matrix(5, 0.01)
        i, j, k = (states.index(s) for s in ((2, 1), (0, 0), (0, 3)))
        assert v[i, j] == pytest.approx(math.sqrt(2) * 0.005 ** 1.5, rel=1e-14)
        assert v[k, j] == pytest.approx(-(math.sqrt(6) / 3) * 0.005 ** 1.5, rel=1e-14)

    def test_pinned_circular_elements(self):
        # z^3 / 6 takes |0, 0> to sqrt(6)/6 |3, 0> and |0, 1> to 3 sqrt(2)/6 |2, 0>
        cfg = HHConfig(num_shells=5)
        quanta, _ = enumerate_basis(cfg)
        v = build_v(cfg).entries
        i, j, k, m = (basis_index(quanta)[s] for s in ((3, 0), (0, 0), (2, 0), (0, 1)))
        assert v[i, j] == v[j, i] == pytest.approx(math.sqrt(6) / 6 * 0.01 ** 1.5, rel=1e-15)
        assert v[k, m] == pytest.approx(3 * math.sqrt(2) / 6 * 0.01 ** 1.5, rel=1e-15)

    def test_selection_rule_exact(self):
        cfg = HHConfig(num_shells=7)
        quanta, _ = enumerate_basis(cfg)
        v = build_v(cfg)
        shell, l = quanta.sum(axis=1), quanta[:, 0] - quanta[:, 1]
        for i in range(len(quanta)):
            for j in range(len(quanta)):
                if abs(shell[i] - shell[j]) not in (1, 3) or abs(l[i] - l[j]) != 3:
                    assert v.entries[i, j] == 0.0

    def test_build_peak_memory(self):
        # a dense V filled here and copied by the constructor held two
        cfg = HHConfig(num_shells=40)
        build_v(cfg)
        tracemalloc.start()
        try:
            v = build_v(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * v.entries.nbytes

    def test_hbar_scaling(self):
        v1 = build_v(HHConfig(hbar=0.01, num_shells=6)).entries
        v2 = build_v(HHConfig(hbar=0.04, num_shells=6)).entries
        np.testing.assert_allclose(v2, (0.04 / 0.01) ** 1.5 * v1, rtol=1e-13)

    @pytest.mark.parametrize("hbar", [0.01, 0.04])
    def test_matches_element_loop(self, hbar):
        # bitwise: the oracle's shell blocks do the loop's arithmetic; 12
        # shells reach k = 7, where numpy's vector pow and Python's k**1.5
        # differ
        np.testing.assert_array_equal(cartesian_v_matrix(12, hbar), element_loop_v(12, hbar))

    @pytest.mark.parametrize(
        "num_shells, bra_shells",
        [(6, range(6)), (12, (10, 11))],
        ids=["six-shells", "twelve-shells-top-two"],
    )
    def test_quadrature_oracle(self, num_shells, bra_shells):
        # the 12-shell case puts the bra in the top two shells, where the
        # shell-pair blocks reach the edge of the 1-D ladder tables
        states = cartesian_states(num_shells)
        v = cartesian_v_matrix(num_shells, 0.01)
        scale = np.abs(v).max()
        checked = 0
        for i, bra in enumerate(states):
            if sum(bra) not in bra_shells:
                continue
            for j, ket in enumerate(states):
                q = hermite_v_element(bra, ket, 0.01)
                err = abs(q - v[i, j])
                live = max(abs(q), abs(v[i, j]))
                assert err <= max(1e-10 * live, 1e-14 * scale), (bra, ket)
                checked += 1
        assert checked == len(states) * sum(n + 1 for n in bra_shells)


class TestH:
    def test_lambda_zero_is_h0(self):
        cfg = HHConfig(lam=0.0, num_shells=6)
        np.testing.assert_array_equal(build_h(cfg).entries, build_h0(cfg).entries)

    def test_lambda_zero_spectrum_multiplicities(self):
        cfg = HHConfig(lam=0.0, num_shells=6)
        d = eigh(build_h(cfg))
        expected = np.concatenate(
            [np.full(n + 1, 0.01 * (n + 1)) for n in range(6)]
        )
        np.testing.assert_allclose(d.eigenvalues, expected, atol=1e-14)

    def test_ground_state_converged(self):
        d = eigh(build_h(HHConfig(num_shells=30)))
        e0 = d.eigenvalues[0]
        assert abs(e0 - 0.01) < 2e-5  # barely shifted from the bare oscillator
        assert e0 == pytest.approx(0.009988784882773272, abs=1e-13)
        d26 = eigh(build_h(HHConfig(num_shells=26)))
        assert abs(e0 - d26.eigenvalues[0]) < 1e-12

    def test_c3v_blocks(self):
        cfg = HHConfig(num_shells=10)
        quanta, _ = enumerate_basis(cfg)
        h = build_h(cfg).entries
        l = quanta[:, 0] - quanta[:, 1]
        classes = [np.flatnonzero(l % 3 == c) for c in range(3)]
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.all(h[np.ix_(classes[a], classes[b])] == 0.0)
        full = eigh(build_h(cfg)).eigenvalues
        block_union = np.sort(
            np.concatenate([np.linalg.eigvalsh(h[np.ix_(c, c)]) for c in classes])
        )
        np.testing.assert_allclose(full, block_union, atol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_bitwise_equal_to_h0_plus_lambda_v(self, lam):
        """H is the constructor's image of the sum H0 + lambda*V, bit for
        bit, signed zeros included."""
        cfg = HHConfig(lam=lam, num_shells=12)
        quanta, _ = enumerate_basis(cfg)
        index = basis_index(quanta)
        mirror = [index[n_minus, n_plus] for n_plus, n_minus in quanta.tolist()]
        expected = SymmetricMatrix(
            build_h0(cfg).entries + lam * build_v(cfg).entries,
            mirror,
            blocks=(quanta[:, 0] - quanta[:, 1]) % 3,
        )
        assert build_h(cfg).entries.tobytes() == expected.entries.tobytes()

    def test_v_declares_c3v(self):
        cfg = HHConfig(num_shells=7)
        quanta, _ = enumerate_basis(cfg)
        index = basis_index(quanta)
        v = build_v(cfg)
        np.testing.assert_array_equal(v.blocks, (quanta[:, 0] - quanta[:, 1]) % 3)
        np.testing.assert_array_equal(
            v.perm, [index[n_minus, n_plus] for n_plus, n_minus in quanta.tolist()]
        )

    def test_declares_c3v(self):
        cfg = HHConfig(num_shells=10)
        quanta, _ = enumerate_basis(cfg)
        h, v = build_h(cfg), build_v(cfg)
        np.testing.assert_array_equal(h.perm, v.perm)
        np.testing.assert_array_equal(h.blocks, (quanta[:, 0] - quanta[:, 1]) % 3)


class TestCircular:
    def test_v_matches_ladder_oracle(self):
        cfg = HHConfig(num_shells=12)
        v = build_v(cfg).entries
        oracle = circular_v_matrix(12, cfg.hbar)
        # the i^l phases leave no sign freedom: the gauge between the two
        # is the identity
        assert np.abs(v - oracle).max() <= 1e-15 * np.abs(oracle).max()

    def test_v_matches_rotated_cartesian_oracle(self):
        cfg = HHConfig(num_shells=30)
        v = build_v(cfg).entries
        rotated = rotate_to_circular(cartesian_v_matrix(30, cfg.hbar), 30)
        assert np.abs(rotated.imag).max() <= 1e-15 * np.abs(v).max()
        assert np.abs(v - rotated.real).max() <= 1e-15 * np.abs(v).max()

    def test_rotations_orthogonal(self):
        # an oracle self-test: U_N carries the Cartesian references over
        for n, u in enumerate(circular_rotations(60)):
            assert np.abs(u.T @ u - np.eye(n + 1)).max() <= 1e-14, n

    def test_declares_c3v(self):
        cfg = HHConfig(num_shells=9)
        v = build_v(cfg)
        _, partition = enumerate_basis(cfg)
        for g in partition.groups:
            idx = np.array(g.indices)
            l = 2 * np.arange(g.label + 1) - g.label
            np.testing.assert_array_equal(v.blocks[idx], l % 3)
            np.testing.assert_array_equal(v.perm[idx], idx[::-1])  # l <-> -l
        # mirror images are exact copies, and the classes exact zeros
        assert np.array_equal(v.entries, v.entries[np.ix_(v.perm, v.perm)])
        assert np.all(v.entries[v.blocks[:, None] != v.blocks] == 0.0)

    def test_same_spectrum_as_cartesian(self):
        cfg = HHConfig(num_shells=16)
        h = cartesian_h(16, cfg.hbar, cfg.lam)
        circular, cartesian = eigh(build_h(cfg)), eigh(h)
        gap = np.abs(circular.eigenvalues - cartesian.eigenvalues).max()
        assert gap <= 1e-12 * np.linalg.norm(h.entries)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_h_bitwise_equal_to_h0_plus_lambda_v(self, lam):
        cfg = HHConfig(lam=lam, num_shells=12)
        v = build_v(cfg)
        expected = SymmetricMatrix(build_h0(cfg).entries + lam * v.entries, v.perm,
                                   blocks=v.blocks)
        h = build_h(cfg)
        assert h.entries.tobytes() == expected.entries.tobytes()
        for name in ("perm", "blocks"):
            np.testing.assert_array_equal(getattr(h, name), getattr(v, name))


def test_bound_energy_ceiling():
    assert bound_energy_ceiling(1.0) == pytest.approx(1.0 / 6.0)
    assert bound_energy_ceiling(2.0) == pytest.approx(1.0 / 24.0)
    with pytest.raises(InputError):
        bound_energy_ceiling(0.0)
    with pytest.raises(InputError):
        bound_energy_ceiling(-1.0)
