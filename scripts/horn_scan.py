# Scan dominant spectrum triples (a, b, c) with a fixed trace balance and
# report how many are feasible for the eigenvalue problem
#     c = spec(A + B),  spec(A) = a,  spec(B) = b.
# Feasibility is decided by the recursive inequality system and, as a
# cross-check, compared with positivity of the tensor multiplicity.  Exits 1
# when the two disagree on any triple.

import argparse
import itertools
import sys

from gitkit.characters import tensor_decompose
from gitkit.horn import check_triple


def dominant(r, top):
    for t in itertools.product(range(top + 1), repeat=r):
        if all(t[i] >= t[i + 1] for i in range(r - 1)):
            yield t


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rank", type=int, default=3)
    ap.add_argument("--max-entry", type=int, default=4)
    ap.add_argument("--show", type=int, default=5,
                    help="print this many infeasible triples with a reason")
    args = ap.parse_args()

    doms = list(dominant(args.rank, args.max_entry))
    total = feasible = mismatches = 0
    shown = 0
    for a in doms:
        for b in doms:
            decomp = tensor_decompose(a, b)
            trace = sum(a) + sum(b)
            for c in doms:
                if sum(c) != trace:
                    continue
                total += 1
                rep = check_triple(a, b, c)
                mult = decomp.get(c, 0)
                if rep.feasible != (mult > 0):
                    mismatches += 1
                    print("MISMATCH", a, b, c, rep.feasible, mult)
                if rep.feasible:
                    feasible += 1
                elif shown < args.show:
                    shown += 1
                    print(f"infeasible {a} {b} {c}: violates {rep.violated}")

    print()
    print(f"rank {args.rank}, entries 0..{args.max_entry}: "
          f"{total} trace-balanced triples, {feasible} feasible")
    print(f"inequality system vs tensor multiplicity: {mismatches} mismatches")
    if mismatches:
        sys.exit(1)


if __name__ == "__main__":
    main()
