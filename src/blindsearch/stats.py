"""Photon-arrival test statistics and event simulation.

The detection statistic for a frequency/drift hypothesis is the squared
modulus of the phase-folded complex sum, normalized so that under a
uniform (null) arrival process it is asymptotically chi-square with 2
degrees of freedom. A blocked variant splits the observation span into
2**kappa equal time blocks and adds the per-block squared moduli, which
trades peak height for a wider response in frequency: the coarse layers
of a hierarchical search are built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhotonSeries:
    """Arrival times in seconds over a fixed observation span.

    ``times`` must be nondecreasing and lie in [0, span]. At least one
    photon is required.
    """

    times: np.ndarray
    span: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("times must be a nonempty 1-D array")
        if not 0 < self.span < math.inf:
            raise ValueError("span must be positive and finite")
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        if t[0] < 0 or t[-1] > self.span:
            raise ValueError("times must lie in [0, span]")
        if t.size > 1 and np.any(np.diff(t) < 0):
            raise ValueError("times must be nondecreasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "span", float(self.span))

    @property
    def count(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class FreqDrift:
    """A frequency/drift hypothesis: omega in Hz, omegadot in s^-2."""

    omega: float
    omegadot: float = 0.0

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if not math.isfinite(self.omega) or not math.isfinite(self.omegadot):
            raise ValueError("omega and omegadot must be finite")


@dataclass(frozen=True)
class SignalSpec:
    """Parameters for simulating a modulated arrival series.

    theta is the pulsed fraction in [0, 1]; theta = 0 gives the uniform
    null process. num_photons is held fixed (not Poisson).
    """

    fd: FreqDrift
    theta: float
    num_photons: int
    span: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.num_photons < 1:
            raise ValueError("num_photons must be >= 1")
        if not 0 < self.span < math.inf:
            raise ValueError("span must be positive and finite")
        end_phase = self.fd.omega * self.span + 0.5 * self.fd.omegadot * self.span * self.span
        if not math.isfinite(end_phase):  # Python floats: an overflow gives inf, not an error
            raise ValueError("the phase at the end of the span must be finite")


def phase(times, fd: FreqDrift):
    """Model phase in cycles: omega*t + omegadot*t^2/2."""
    t = np.asarray(times, dtype=float)
    return fd.omega * t + 0.5 * fd.omegadot * t * t


def _reduced_radians(times, fd: FreqDrift) -> np.ndarray:
    """2 pi times the fraction of ``phase`` nearest 0, in [-pi, pi].

    The fraction of a float64 phase in cycles is exact, so only the final
    product rounds. Multiplying the unreduced phase by 2 pi instead would
    round by up to about 7e-9 rad at 1.2e7 cycles, the reference span.
    """
    c = phase(times, fd)
    return TWO_PI * (c - np.rint(c))


def rayleigh_power(photons: PhotonSeries, fd: FreqDrift) -> float:
    """Full-coherence statistic (2/m)|sum_j exp(2 pi i phase_j)|^2.

    Lies in [0, 2m]; approximately chi-square(2) under the null when the
    span covers many cycles.
    """
    ph = _reduced_radians(photons.times, fd)
    re = np.cos(ph).sum()
    im = np.sin(ph).sum()
    return 2.0 * (re * re + im * im) / photons.count


def blocked_power(photons: PhotonSeries, fd: FreqDrift, kappa: int) -> float:
    """Blocked statistic: per-block squared moduli summed over 2**kappa blocks.

    A time t lies in block min(floor(t * (2**kappa / span)), 2**kappa - 1),
    so the blocks split [0, span] into equal parts and the span's end joins
    the last. kappa = 0 recovers ``rayleigh_power`` exactly.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if kappa == 0:
        return rayleigh_power(photons, fd)
    ph = _reduced_radians(photons.times, fd)
    re = np.cos(ph)
    im = np.sin(ph)
    nb = 1 << kappa
    block = np.minimum((photons.times * (nb / photons.span)).astype(np.int64), nb - 1)
    # times are sorted, so each block is a contiguous slice
    bounds = np.append(0, np.bincount(block, minlength=nb).cumsum())
    total = 0.0
    for k in range(nb):
        lo, hi = bounds[k], bounds[k + 1]
        if lo == hi:
            continue
        sr = re[lo:hi].sum()
        si = im[lo:hi].sum()
        total += sr * sr + si * si
    return 2.0 * total / photons.count


def chi2_2_sf(x: float) -> float:
    """Survival function of chi-square(2): exp(-x/2)."""
    if x < 0:
        raise ValueError("x must be >= 0")
    return math.exp(-0.5 * x)


def chi2_2_quantile(p: float) -> float:
    """Quantile of chi-square(2): -2*ln(1-p) for p in [0, 1)."""
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    return -2.0 * math.log1p(-p)


def chi2_2_isf(tail: float) -> float:
    """Upper quantile of chi-square(2) from the tail mass: -2*ln(tail).

    Use this instead of ``chi2_2_quantile(1 - tail)`` when the tail is
    tiny: 1 - tail is not representable below about 1e-16.
    """
    if not 0.0 < tail <= 1.0:
        raise ValueError("tail must lie in (0, 1]")
    return -2.0 * math.log(tail)


def simulate_photons(spec: SignalSpec, seed) -> PhotonSeries:
    """Draw a fixed-size arrival series with density 1 + theta*sin(2 pi phase).

    Rejection sampling against the uniform envelope on [0, span]: accept a
    candidate t with probability (1 + theta*sin(2 pi phase(t)))/(1 + theta).
    Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    m = spec.num_photons
    if spec.theta == 0.0:
        times = np.sort(rng.random(m) * spec.span)
        return PhotonSeries(times, spec.span)
    kept = []
    have = 0
    while have < m:
        want = m - have
        batch = max(1024, int(want * (1.0 + spec.theta) * 1.2))
        t = rng.random(batch) * spec.span
        u = rng.random(batch)
        accept = u * (1.0 + spec.theta) < 1.0 + spec.theta * np.sin(TWO_PI * phase(t, spec.fd))
        t = t[accept]
        kept.append(t[:want])
        have += min(t.size, want)
    times = np.sort(np.concatenate(kept))
    return PhotonSeries(times, spec.span)


def write_photons(path, photons: PhotonSeries) -> None:
    """Write one arrival time per line with a ``# T=<span>`` header.

    Floats are written with repr precision so a read round-trips exactly.
    """
    with open(path, "w") as fh:
        fh.write(f"# T={photons.span!r}\n")
        for t in photons.times:
            fh.write(f"{float(t)!r}\n")


def read_photons(path, span=None) -> PhotonSeries:
    """Read an arrival-time file.

    One time per line; blank lines and ``#`` comments are skipped. The
    span comes from the ``span`` argument when given, otherwise from a
    ``# T=<seconds>`` header line; it is an error to have neither.
    Unsorted input is sorted.
    """
    header_span = None
    times = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("T="):
                    try:
                        header_span = float(body[2:].strip())
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: bad span header: {line!r}")
                continue
            try:
                times.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad arrival time: {line!r}")
    if span is None:
        span = header_span
    if span is None:
        raise ValueError(f"{path}: no span given and no '# T=' header present")
    if not times:
        raise ValueError(f"{path}: no arrival times")
    try:
        return PhotonSeries(np.sort(np.asarray(times, dtype=float)), span)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
