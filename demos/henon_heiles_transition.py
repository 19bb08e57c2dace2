"""Walk the Henon-Heiles spectrum from regular to chaotic.

Builds the 30-shell oscillator basis (hbar = 0.01, lambda = 1), then scans
shells N = 1..26 and prints, per shell energy E = hbar*(N+1):

  * the first-order estimate W_pt of the weight pushed out of the shell,
  * the exact complement weight W_exact from full diagonalization,
  * kappa = Gamma_spr / hbar, the spreading width in units of the shell gap.

The interesting outputs are the three crossings: W_pt and W_exact through
0.5, kappa through 1. They all land near E ~ 0.1, a factor ~1.7 below the
saddle energy 1/6 where classical escape opens up.
"""
import argparse

from specfrag import (
    chaoticity,
    critical_parameter,
    eigh,
    spreading_width,
    strength_function,
    w_exact,
    w_perturbative,
)
from specfrag.henon_heiles import (
    HHConfig,
    bound_energy_ceiling,
    build_h,
    build_v,
    enumerate_basis,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shells", type=int, default=30, help="basis size in shell groups")
    args = ap.parse_args()

    cfg = HHConfig(num_shells=args.shells)
    _, part = enumerate_basis(cfg)
    print(f"basis: {part.dim} states in {args.shells} shells, hbar={cfg.hbar}")
    print(f"classical bound motion below E = {bound_energy_ceiling(cfg.lam):.4f}\n")

    v = build_v(cfg)
    decomp = eigh(build_h(cfg))

    last_scan = min(args.shells - 4, 26)
    pt_curve, exact_curve, kappa_curve = [], [], []
    print(f"{'N':>3} {'E':>7} {'W_pt':>8} {'W_exact':>8} {'kappa':>7}")
    for n in range(1, last_scan + 1):
        g = part.group(n)
        e_n = cfg.hbar * (n + 1)
        wp = w_perturbative(v, part, n, cfg.lam)
        we = w_exact(decomp, g.indices, shell_energy=g.energy)
        sf = strength_function(decomp, g.indices)
        kappa = chaoticity(spreading_width(sf), cfg.hbar)
        pt_curve.append((e_n, wp))
        exact_curve.append((e_n, we))
        kappa_curve.append((e_n, kappa))
        print(f"{n:>3} {e_n:>7.3f} {wp:>8.4f} {we:>8.4f} {kappa:>7.3f}")

    print()
    for name, curve, thr in (
        ("W_pt  = 0.5", pt_curve, 0.5),
        ("W_ex  = 0.5", exact_curve, 0.5),
        ("kappa = 1.0", kappa_curve, 1.0),
    ):
        critical, bracket = critical_parameter(curve, threshold=thr)
        if critical is None:
            print(f"{name}: no crossing in the scanned window")
        else:
            lo, hi = bracket
            print(f"{name}: E_c = {critical:.4f}  (bracket {lo:.3f}..{hi:.3f})")


if __name__ == "__main__":
    main()
