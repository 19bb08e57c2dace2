"""Diamagnetic hydrogen: sweep the field strength through the n=10 shell.

The m=0 bound states up to n=20 feel H = -1/(2n^2) + (gamma^2/8) rho^2.
Because the classical problem only depends on the scaled energy
eps = E * gamma^(-2/3), the natural scan axis is eps of the unperturbed
shell: each field value gamma maps to eps0 = E_10 * gamma^(-2/3).

The perturbative weight W_pt costs one matrix block sum for the whole
curve (it is exactly quadratic in gamma^2/8); the exact curve needs one
diagonalization per field value. Both cross 0.5 around eps ~ -0.5, the
regime where classical diamagnetic motion turns chaotic.
"""
from specfrag import critical_parameter, eigh, w_exact, w_perturbative
from specfrag.kepler import (
    KeplerConfig,
    build_h,
    build_rho2,
    enumerate_parabolic_basis,
    scaled_energy,
    shell_energy,
)


def main() -> None:
    cfg = KeplerConfig()
    _, part = enumerate_parabolic_basis(cfg)
    target = part.group(cfg.target_shell)
    e0 = shell_energy(cfg.target_shell)
    print(f"basis: {part.dim} parabolic states, shells 1..{cfg.max_n}")
    print(f"target shell n={cfg.target_shell}, E = {e0:.6f}, dim = {len(target.indices)}\n")

    rho2 = build_rho2(cfg)
    w_unit = w_perturbative(rho2, part, cfg.target_shell, 1.0)

    pt_curve, exact_curve = [], []
    print(f"{'gamma':>12} {'eps0':>8} {'W_pt':>8} {'W_exact':>8}")
    for gamma in cfg.gamma_grid:
        eps0 = scaled_energy(e0, gamma)
        wp = (gamma * gamma / 8.0) ** 2 * w_unit
        decomp = eigh(build_h(cfg, gamma, rho2=rho2))
        we = w_exact(decomp, target.indices, shell_energy=target.energy)
        pt_curve.append((eps0, wp))
        exact_curve.append((eps0, we))
        if len(pt_curve) % 6 == 1:  # the full grid is 61 lines of the same story
            print(f"{gamma:>12.6e} {eps0:>8.4f} {wp:>8.4f} {we:>8.4f}")

    print()
    for name, curve in (("W_pt", pt_curve), ("W_exact", exact_curve)):
        critical, _ = critical_parameter(curve)
        if critical is None:
            print(f"{name} = 0.5: no crossing on this grid")
        else:
            print(f"{name} = 0.5 at eps = {critical:.4f}")


if __name__ == "__main__":
    main()
