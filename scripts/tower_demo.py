#!/usr/bin/env python3
"""Build a covering tower over S3 * Z and compare computed homology with the
closed-form predictions level by level.

Run from the repository root:

    PYTHONPATH=src python3 scripts/tower_demo.py [--mu 3/4] [--depth 3] [--scale 12]
"""

import argparse
from fractions import Fraction

from rankgradient.towers import DEFAULT_TOWER_SCALE, build_tower, injectivity_radius, tower_report
from rankgradient.words import parse_presentation

S3 = "gens a b\nrel a^3\nrel b^2\nrel a b a b\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mu", type=Fraction, default=Fraction(3, 4))
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--scale", type=int, default=DEFAULT_TOWER_SCALE)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    a_pres, _ = parse_presentation(S3)
    print(f"building a depth-{args.depth} tower with mu = {args.mu} ...")
    covers = build_tower(a_pres, args.mu, args.depth, scale=args.scale, seed=args.seed)
    for j, cover in enumerate(covers):
        print(
            f"  level {j}: n = {cover.n}, vertices = {cover.num_vertices}, "
            f"mu = {cover.mu}, injectivity radius = {injectivity_radius(cover)}"
        )

    print("verifying homology against the closed forms ...")
    report = tower_report(covers)
    header = (
        f"  {'n':>6} {'p':>5} {'beta1':>6} {'b_12':>6} {'pred d':>7} "
        f"{'rank':>13} {'(d-1)/n':>9}"
    )
    print(header)
    for lc in report.levels:
        assert lc.b1p_match, "mod-p homology disagrees with the prediction"
        lower, upper = lc.computed_rank
        print(
            f"  {lc.n:>6} {lc.p:>5} {lc.computed_beta1:>6} {lc.computed_b1p[2]:>6} "
            f"{str(lc.predicted.d):>7} {f'[{lower}, {upper}]':>13} "
            f"{str(Fraction(lc.predicted.d - 1, lc.n)):>9}"
        )
    print(
        f"limit gradients: d -> {report.limit_d}, "
        f"b_12 -> {report.limit_b1p[2]}, beta1 -> {report.limit_beta1}"
    )


if __name__ == "__main__":
    main()
