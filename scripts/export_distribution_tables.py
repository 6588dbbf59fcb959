#!/usr/bin/env python3
"""Dump pdf curves and sampled histograms of the step/mutation distributions.

Writes one TSV per distribution (columns: x, pdf, histogram density) so the
sampler/density agreement can be eyeballed in any plotting tool.  The
reference densities come from the test suite's ``tests/helpers.py``, so scipy
must be installed.

Example:
    python scripts/export_distribution_tables.py --out-dir dist_tables --n 200000
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from swarmstack import distributions as D
from swarmstack import rng as R
from swarmstack.stages import AlgorithmOptions, recombine_rate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import mixture_pdf, notch_twin_peaks_pdf  # noqa: E402


def dump(path, draws, pdf, lo, hi, bins=120):
    hist, edges = np.histogram(draws, bins=bins, range=(lo, hi), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    lines = ["x\tpdf\thist_density"]
    for x, h in zip(centers, hist):
        lines.append(f"{x:.8g}\t{pdf(x):.8g}\t{h:.8g}")
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="dist_tables")
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--temperature", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t = args.temperature
    s = D.scale_for_temperature(t)

    tp = D.TwinPeaksParams(s=s)
    state = R.seed(args.seed, 0)
    lo, hi = -6 * s * tp.ks, 6 * s * tp.ks
    comps = D._mixture(tp)
    draws = np.array([D._sample_truncated_mixture(state, comps, lo, hi)
                      for _ in range(args.n)])
    mass = quad(lambda x: mixture_pdf(x, tp), lo, hi)[0]
    dump(out / "twin_peaks.tsv", draws,
         lambda x: mixture_pdf(x, tp) / mass, lo, hi)

    notch = D.NotchParams(tp)
    state = R.seed(args.seed, 1)
    draws = np.array([D.sample_notch_twin_peaks(state, notch, lo, hi)
                      for _ in range(args.n)])
    dump(out / "notch_twin_peaks.tsv", draws,
         notch_twin_peaks_pdf(notch, lo, hi), lo, hi)

    ft = AlgorithmOptions().fat_tail3_params(t)
    state = R.seed(args.seed, 2)
    center = 0.3
    draws = np.array([D.sample_fat_tail3(state, ft, center, 0.0, 1.0)
                      for _ in range(args.n)])
    mass = quad(lambda x: mixture_pdf(x - center, ft), 0.0, 1.0,
                limit=400)[0]
    dump(out / "fat_tail3.tsv", draws,
         lambda x: mixture_pdf(x - center, ft) / mass, 0.0, 1.0)

    rate = recombine_rate(t)
    state = R.seed(args.seed, 3)
    draws = np.array([R.bounded_exponential(state, rate, 0.0, 1.0)
                      for _ in range(args.n)])
    norm = rate / (1.0 - math.exp(-rate))
    dump(out / "bounded_exponential.tsv", draws,
         lambda x: norm * math.exp(-rate * x), 0.0, 1.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
