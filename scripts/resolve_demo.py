"""Build projective resolutions of seeded random bounded complexes of
free abelian groups and report their shapes and classifications."""

import argparse
import random

from bigraded.rings import ZZ
from bigraded.randgen import random_chain_complex
from bigraded.model import ce_resolution, classify_map, cofibrancy_report


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-n", type=int, default=5)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    for k in range(args.n):
        y = random_chain_complex(rng, ZZ, degrees=(0, 3), max_rank=3)
        p, eps = ce_resolution(y)
        width = max((pp for pp, _ in p.ranks), default=0) + 1
        rep = classify_map(eps, "ce")
        cof = cofibrancy_report(p, "ce")
        print(f"sample {k}: input ranks {({n: y.rank(0, n) for n in y.degrees()})}")
        print(f"  resolution ranks {dict(sorted(p.ranks.items()))}")
        print(f"  width={width}  trivial_fibration={rep.is_trivial_fibration}  "
              f"cofibrancy={'pass' if cof.passes else 'fail'}")


if __name__ == "__main__":
    main()
