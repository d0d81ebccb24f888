"""Effective sample size of an MCMC chain (Geyer's initial positive sequence).

The package reports no chain diagnostics, so the benchmark estimates ESS
itself from the ``chain.csv`` that ``ffemu bayes`` writes.
"""

from __future__ import annotations

import numpy as np


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Normalised autocorrelation of a 1-D series at every lag, via FFT."""
    x = np.asarray(x, dtype=float) - np.mean(x)
    n = x.size
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(x, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n]
    if acov[0] == 0.0:
        return np.zeros(n)
    return acov / acov[0]


def effective_sample_size(x) -> float:
    """ESS = n / tau, tau = -1 + 2 * sum of Geyer's paired autocorrelations.

    Pairs Gamma_m = rho(2m) + rho(2m + 1) are summed while they stay
    positive (Geyer 1992, initial positive sequence). A constant chain has
    ESS 0.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    rho = autocorrelation(x)
    if rho[0] == 0.0:
        return 0.0
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    negative = np.nonzero(pairs <= 0.0)[0]
    stop = negative[0] if negative.size else pairs.size
    tau = -1.0 + 2.0 * pairs[:stop].sum()
    return n / max(tau, 1.0 / n)


def min_ess(samples: np.ndarray) -> float:
    """Smallest per-column ESS of an (n_samples, n_parameters) chain."""
    return min(effective_sample_size(col) for col in np.asarray(samples, dtype=float).T)
