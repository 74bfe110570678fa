"""Two-sample Kolmogorov-Smirnov test and Pearson correlation."""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError


def _kolmogorov_sf(lam: float, tol: float = 1e-12) -> float:
    """Asymptotic KS survival function 2*sum_i (-1)^(i-1) exp(-2 i^2 lam^2).

    Terms accumulate until they drop below tol; the alternating partial sums
    can wander outside [0, 1] for small lam, so the result is clamped.
    """
    if lam <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    a = -2.0 * lam * lam
    for i in range(1, 100_000):
        term = math.exp(a * i * i)
        total += sign * term
        if term < tol:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample KS statistic and its asymptotic p-value.

    D is the exact supremum of |ECDF_a - ECDF_b| over the pooled sample
    points. The p-value uses the small-sample-corrected asymptotic series
    with effective size ne = |a||b| / (|a|+|b|):

        p = Q((sqrt(ne) + 0.12 + 0.11 / sqrt(ne)) * D)

    Identical samples give D = 0 and p = 1.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    na, nb = a.size, b.size
    if na == 0 or nb == 0:
        raise DegenerateInputError("both samples must be non-empty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DegenerateInputError("samples must be finite")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / na
    cdf_b = np.searchsorted(b, pooled, side="right") / nb
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    ne = na * nb / (na + nb)
    root = math.sqrt(ne)
    lam = (root + 0.12 + 0.11 / root) * d
    return d, _kolmogorov_sf(lam)


def pearson(x, y) -> tuple[float, float]:
    """Pearson r with a two-sided p-value from the exact t reference.

    t = r * sqrt((n - 2) / (1 - r^2)) against Student's t with n - 2 degrees
    of freedom. Needs n >= 3 and positive variance on both sides.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DegenerateInputError("need two equally long one-dimensional samples")
    n = x.size
    if n < 3:
        raise DegenerateInputError(f"need at least 3 observations, got {n}")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("zero variance makes the correlation undefined")
    r = float(xc @ yc) / math.sqrt(sx * sy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    # Imported here, not at module level, so commands that never correlate
    # (ingest, select) skip scipy's start-up time and memory.
    from scipy.special import stdtr

    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return r, min(1.0, p)
