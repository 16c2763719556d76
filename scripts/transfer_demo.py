#!/usr/bin/env python3
"""End-to-end homotopy transfer demo: build a random acyclic extension of a
sphere-like core, run the homotopy-operator pipeline, push the canonical
twist element to the harmonic part (the (1,0) entry by the recursion over
planar trivalent trees, the others through trivalent graph sums), and
verify the induced operations satisfy the higher associativity
relations."""

import argparse

from cycibl.algebra import check_ainfty
from cycibl.dibl import mu_from_mc, twisted_q110
from cycibl.green import (check_g_properties, green_pipeline,
                          harmonic_substructure, schwartz_kernel)
from cycibl.models import random_cyclic_dga
from cycibl.ribbon import pushforward_mc
from cycibl.words import canonical_words, dual_word


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--weight-bound", type=int, default=6)
    ap.add_argument("--max-arity", type=int, default=5)
    args = ap.parse_args()

    s = random_cyclic_dga(6, seed=args.seed)
    print(f"ambient structure: {s.name}, letters {s.basis.labels}, "
          f"degrees {s.basis.degrees}")
    g, proj, stages = green_pipeline(s)
    rep = check_g_properties(s, g, proj)
    print(f"pipeline properties: {rep.summary()}")
    kernel = schwartz_kernel(s, g)
    print(f"kernel degree {kernel.degree}, "
          f"{len(kernel.entries)} entries, twist-symmetric: "
          f"{kernel.is_symmetric_propagator()}")

    harm = harmonic_substructure(s, [0, 1])
    fam = pushforward_mc(s, harm, kernel.entries,
                         weight_bound=args.weight_bound)
    e10 = fam.entry(1, 0)
    print(f"transferred element supported on weights {e10.weights()}")
    twisted = mu_from_mc(harm, e10, args.max_arity)
    ainf = check_ainfty(twisted, args.max_arity)
    print(f"higher associativity up to arity {args.max_arity}: "
          f"{'pass' if ainf.passed else ainf.summary()}")

    square_zero = True
    for w in range(1, args.weight_bound + 1):
        for u in canonical_words(harm.basis, w):
            psi = dual_word(harm.basis, u, slot_shift=harm.slot_shift)
            if not twisted_q110(harm, fam, twisted_q110(harm, fam, psi)).is_zero():
                square_zero = False
    print(f"twisted boundary squares to zero at the truncation: {square_zero}")


if __name__ == "__main__":
    main()
