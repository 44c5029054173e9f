#!/usr/bin/env python3
"""Build a random channel, conjugate it by all three routes, and show that
the routes agree up to a partial isometry while sharing output spectra with
the original channel, and check the linearizer identities at the largest
power p the gl size caps allow (p = 4 at the default sizes)."""

import argparse

import numpy as np

from qcc import gl
from qcc.channel import KrausChannel
from qcc.conjugate import conjugate_channel, find_relating_isometry
from qcc.purity import spectrum_pair_check
from qcc.random import haar_state, random_kraus_operators, rng_from_seed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-d", type=int, default=3, help="input dimension")
    ap.add_argument("--dout", type=int, default=3)
    ap.add_argument("--kraus", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = rng_from_seed(args.seed)
    ch = KrausChannel(
        d_in=args.d,
        d_out=args.dout,
        kraus=random_kraus_operators(args.d, args.dout, args.kraus, rng),
    )
    print(f"channel: {args.d} -> {args.dout}, {args.kraus} Kraus operators")

    routes = {m: conjugate_channel(ch, m) for m in ("kraus", "choi", "ancilla")}
    for name, cc in routes.items():
        print(f"  conjugate[{name}]: {cc.d_in} -> {cc.d_out}, {cc.n_kraus} operators")

    names = list(routes)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            rel = find_relating_isometry(routes[names[i]], routes[names[j]])
            print(
                f"  {names[i]:>7} ~ {names[j]:<7} residual {rel.residual:.3e}, "
                f"isometry rank {rel.rank}"
            )

    worst = 0.0
    for _ in range(5):
        _, _, dev = spectrum_pair_check(ch, haar_state(args.d, rng))
        worst = max(worst, dev)
    print(f"  shared output spectra: max deviation {worst:.3e} over 5 pure inputs")

    big = max(args.d, args.dout, args.kraus)  # the conjugate acts on C^kraus
    p = 1  # the largest p within the gl cap, max(big, 2)^p <= MAX_TOTAL_DIM
    while max(big, 2) ** (p + 1) <= gl.MAX_TOTAL_DIM:
        p += 1
    res_conj, res_shift = gl.verify_gl_identity(ch, p)
    print(
        f"  linearizer at p={p}: |omega - theta(conjugate)^+| {res_conj:.3e}, "
        f"|omega - theta L_p| {res_shift:.3e}"
    )


if __name__ == "__main__":
    main()
