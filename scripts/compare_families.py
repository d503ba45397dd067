#!/usr/bin/env python3
"""Geometry, census, and percolation constants across the four families.

For each graph family this prints the patch geometry (vertex/edge counts,
packing radius, maximum degree), the number of distinct r-pattern classes
at a fixed small radius, the vertex density, and the subcritical decay
constants at a common bond probability, from the family's declared d_max
and l_max (the d_max and minsep columns are measured on the patch).

Example:
    python3 scripts/compare_families.py --radius 24 --p 0.15
"""

import argparse
import sys
import time

from percospec.graphs import FAMILIES, generate, geometry_report
from percospec.patterns import density_report, extract_r_patterns
from percospec.percolation import bounds_report


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--radius", type=float, default=24.0)
    ap.add_argument("--pattern-radius", type=float, default=1.1)
    ap.add_argument("--p", type=float, default=0.15)
    return ap.parse_args()


def main():
    args = parse_args()
    print(f"patch radius {args.radius:g}, pattern radius "
          f"{args.pattern_radius:g}, p = {args.p:g}")
    print()
    header = (f"{'family':<16} {'verts':>6} {'edges':>6} {'minsep':>7} "
              f"{'d_max':>5} {'classes':>7} {'rho':>7} {'p_c>=':>7} "
              f"{'gamma':>7} {'psi':>7}")
    print(header)
    print("-" * len(header))
    for family in FAMILIES:
        t0 = time.perf_counter()
        g = generate(family, args.radius)
        geo = geometry_report(g)
        census = extract_r_patterns(g, args.pattern_radius)
        rho = density_report(g, 0.9 * args.radius)
        bounds = bounds_report(args.p, g.d_max, g.l_max)
        dt = time.perf_counter() - t0
        print(f"{family:<16} {geo.vertex_count:>6} {geo.edge_count:>6} "
              f"{geo.min_pairwise_distance:>7.4f} {geo.d_max:>5} "
              f"{census.distinct:>7} {rho:>7.4f} "
              f"{bounds.p_c_lower:>7.4f} {bounds.gamma:>7.4f} "
              f"{bounds.psi_decay:>7.4f}   [{dt:.1f}s]")
    print()
    print("classes = distinct translation classes of the r-pattern census;")
    print("p_c>= is the rigorous subcritical threshold 1/(declared d_max - 1);")
    print("gamma and psi are the chain-prescription and escape decay rates.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
