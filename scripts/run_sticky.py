#!/usr/bin/env python3
"""Escape diagnostics on the doubling-map model with growing terminal weight.

Prints, per start level n: the exact probability that one kernel step stays
inside the two-path level set, and the expected share of the terminal weight
held by the retained path.  A bounded-weight control model is shown for
contrast: its stay probability from level n never exceeds
1 - eps (1 - pi(A_n)), the bound its minorization constant eps implies;
the script exits with status 1 if it does.
"""

import argparse

from pmcmc_lab import sticky_experiment
from pmcmc_lab.harness import sticky_control_rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--K", type=int, default=16, help="truncation level")
    parser.add_argument("--N", type=int, default=2, help="particle count")
    args = parser.parse_args()

    rows = sticky_experiment(args.K, args.N)
    control = sticky_control_rows(args.K, args.N)
    print(f"{'n':>4} {'stay':>10} {'weight share':>13} {'control stay':>13} {'control bound':>14}")
    worst = float("-inf")
    for (n, stay, suff), (_, ctrl, bound) in zip(rows, control):
        worst = max(worst, ctrl - bound)
        print(f"{n:>4} {stay:>10.6f} {suff:>13.6f} {ctrl:>13.6f} {bound:>14.6f}")
    held = worst <= 1e-12
    verdict = "within" if held else "ABOVE"
    print(f"\ncontrol stay {verdict} 1 - eps (1 - pi(A_n)) at every level (worst margin {worst:.3e})")
    print("the growing-weight model's stay probability climbs toward 1 with n.")
    return 0 if held else 1


if __name__ == "__main__":
    raise SystemExit(main())
