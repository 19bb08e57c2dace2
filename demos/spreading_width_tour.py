"""How a basis shell dissolves into the exact spectrum, shell by shell.

For a few Henon-Heiles shells this prints the strength function summary:
how many eigenstates carry at least 5% of the shell's weight, the minimal
energy window holding half the probability (the spreading width), and
kappa = width / shell gap.

Low shells put all their weight on a handful of levels inside one gap
(kappa < 1: the shell is still a good quantum number). Past E ~ 0.1 the
weight smears over many gaps and the shell label stops meaning anything.
"""
from specfrag import chaoticity, eigh, spreading_width, strength_function
from specfrag.henon_heiles import HHConfig, build_h, enumerate_basis

SHELLS = (2, 5, 8, 11, 14, 17, 20)


def main() -> None:
    cfg = HHConfig()
    _, part = enumerate_basis(cfg)
    decomp = eigh(build_h(cfg))

    print(f"{'N':>3} {'E':>6} {'levels>=5%':>10} {'Gamma_spr':>10} {'kappa':>7}  window")
    for n in SHELLS:
        g = part.group(n)
        sf = strength_function(decomp, g.indices)
        width, (a, b) = spreading_width(sf, return_window=True)
        kappa = chaoticity(width, cfg.hbar)
        big = int((sf.weights >= 0.05).sum())
        e_a, e_b = sf.eigen_energies[a], sf.eigen_energies[b]
        print(
            f"{n:>3} {cfg.hbar * (n + 1):>6.2f} {big:>10} {width:>10.4f} "
            f"{kappa:>7.2f}  [{e_a:.4f}, {e_b:.4f}]"
        )

    print("\nper-state view of shell 14 (first three basis states):")
    g = part.group(14)
    for alpha in g.indices[:3]:
        sf = strength_function(decomp, [alpha])
        width = spreading_width(sf)
        # local widths differ state to state; only the shell average is
        # basis-independent
        print(f"  state {alpha}: local width {width:.4f}")


if __name__ == "__main__":
    main()
