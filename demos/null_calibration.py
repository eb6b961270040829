"""Check the null calibration of the layer statistics.

Simulates unmodulated arrival series, evaluates the fully coherent
statistic and its blocked variants at an arbitrary frequency, and
compares each against the chi-square(2)-family law the thresholds
assume. Run with no arguments.
"""

import numpy as np

from blindsearch import (FreqDrift, SignalSpec, blocked_power, chi2_2_sf, rayleigh_power,
                         simulate_photons)

N_SIMS = 2000
M = 500
SPAN = 300.0
PROBE = FreqDrift(omega=7.3, omegadot=0.0)


def ks_distance(sample) -> float:
    """Kolmogorov-Smirnov distance between the sample and chi2(2)."""
    x = np.sort(sample)
    n = x.size
    cdf = np.array([1.0 - chi2_2_sf(v) for v in x])
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


def main():
    rng_seed = 0
    coherent = np.empty(N_SIMS)
    halves = np.empty(N_SIMS)
    for i in range(N_SIMS):
        series = simulate_photons(SignalSpec(PROBE, 0.0, M, SPAN), seed=(rng_seed, i))
        coherent[i] = rayleigh_power(series, PROBE)
        halves[i] = blocked_power(series, PROBE, kappa=1)

    ks = ks_distance(coherent)
    print(f"coherent statistic over {N_SIMS} null series of {M} photons")
    print(f"  mean {coherent.mean():.3f} (expect 2), var {coherent.var():.3f} (expect 4)")
    print(f"  KS distance to chi2(2): {ks:.4f}")
    print(f"two-block statistic:")
    print(f"  mean {halves.mean():.3f} (expect 2), var {halves.var():.3f} (expect 2)")
    for p in (0.9, 0.99, 0.999):
        q = -2.0 * np.log1p(-p)
        print(f"  P(coherent > {q:6.2f}) = {np.mean(coherent > q):.4f}   (nominal {1-p:.3f})")


if __name__ == "__main__":
    main()
