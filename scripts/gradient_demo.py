#!/usr/bin/env python3
"""Walk the three chain families and print their gradient ratios.

Run from the repository root:

    PYTHONPATH=src python3 scripts/gradient_demo.py [--depth N]
"""

import argparse
from fractions import Fraction

from rankgradient.chains import (
    farber_chain,
    gradient_sequence,
    hnn_chain,
    lamplighter_chain,
)
from rankgradient.words import parse_presentation

FIG8 = "gens a b t\nrel t^-1 a t = b^-1\nrel t^-1 b t = b^2 a b\n"
F2_SEED = "gens a b\nsub K normal a^4, b^4, a b a^-1 b^-1\n"


def show(title, chain, report):
    print(f"\n{title}  (indices {chain.indices()})")
    if chain.truncated:
        print(f"  truncated: {chain.truncated}")
    print(f"  {'n':>6} {'index':>6} {'rank':>10} {'beta1':>6} {'(d-1)/n':>9} {'(b12-1)/n':>10}")
    for st in report.levels:
        if st.error:
            print(f"  {st.level:>6} {st.index:>6}  error: {st.error}")
            continue
        rank = f"[{st.rank_lower},{st.rank_upper}]"
        d_ratio = Fraction(st.rank_upper - 1, st.index)
        b_ratio = Fraction(st.b1p[2] - 1, st.index)
        print(
            f"  {st.level:>6} {st.index:>6} {rank:>10} {st.beta1:>6} "
            f"{str(d_ratio):>9} {str(b_ratio):>10}"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=6)
    args = parser.parse_args()

    pres, _ = parse_presentation(FIG8)
    chain = hnn_chain(pres, "t", args.depth)
    show("Ascending HNN (figure-eight group): rank gradient falls to 0",
         chain, gradient_sequence(chain))

    chain = lamplighter_chain(3, 2)
    show("Lamplighter quotient W3: (b_{1,2}-1)/index stays at 1",
         chain, gradient_sequence(chain))

    pres, specs = parse_presentation(F2_SEED)
    chain = farber_chain(pres, specs[0], min(args.depth, 3))
    show("Normal-core chain in F2: free actions, ratio locked at 1",
         chain, gradient_sequence(chain))


if __name__ == "__main__":
    main()
