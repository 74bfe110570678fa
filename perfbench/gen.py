"""Seeded bank-year panels for the benchmark, independent of the package.

Tobin's Q is planted on the capital ratio, ROA and loans/deposits, plus
Gaussian noise; every other ratio is independent noise, so the forest has
real and decoy candidates. Eleven countries (all four PIGS among them) and
the years 2005-2016 make each of the nine default subsamples non-empty and
large enough for a tree. About 1% of rows carry zero deposits, which the
pipeline excludes, so the exclusion path runs too.

The same (n_banks, seed) always gives the same CSV bytes: values come from
numpy's PCG64 stream and are written with repr().
"""

from __future__ import annotations

import sys

import numpy as np

COUNTRIES = ("DE", "FR", "IT", "NL", "BE", "AT", "FI", "ES", "GR", "IE", "PT")
YEARS = tuple(range(2005, 2017))
HEADER = (
    "bank_id", "country", "year", "mve", "bvl", "nta", "equity",
    "total_assets", "loans", "deposits", "loan_loss_allowances",
    "loan_loss_provisions", "non_interest_expense", "income",
    "liquid_assets", "roa", "roe", "loan_growth", "gdp_growth", "beta",
)


def panel_columns(n_banks: int, seed: int) -> list:
    """Column arrays of the panel, in HEADER order, one row per bank-year."""
    rng = np.random.default_rng(seed)
    n_years = len(YEARS)
    n = n_banks * n_years
    bank = np.repeat(np.arange(n_banks), n_years)
    year = np.tile(np.array(YEARS), n_banks)

    # Bank size persists across years, so the size halves split banks.
    ta = np.exp(rng.normal(8.0, 1.2, n_banks))[bank] * np.exp(rng.normal(0.0, 0.05, n))
    cap = rng.uniform(0.02, 0.14, n)
    roa = rng.normal(0.006, 0.006, n)
    ltd = rng.uniform(0.5, 1.5, n)
    q = (0.95 + 0.12 * (cap > 0.07) + 0.08 * ((roa > 0.005) & (cap > 0.07))
         - 0.06 * (ltd > 1.1) + 0.6 * (cap - 0.08) + 2.0 * roa
         + rng.normal(0.0, 0.04, n))

    deposits = rng.uniform(0.5, 0.8, n) * ta
    loans = ltd * deposits
    deposits[rng.random(n) < 0.01] = 0.0
    expense = rng.uniform(0.01, 0.03, n) * ta
    bvl = 0.5 * ta
    return [
        np.array([f"b{b:05d}" for b in range(n_banks)])[bank],
        np.array(COUNTRIES)[bank % len(COUNTRIES)],
        year,
        q * ta - bvl,
        bvl,
        ta,
        cap * ta,
        ta,
        loans,
        deposits,
        rng.uniform(0.005, 0.03, n) * loans,
        rng.uniform(0.001, 0.02, n) * loans,
        expense,
        expense / rng.uniform(0.4, 0.9, n),
        rng.uniform(0.1, 0.3, n) * ta,
        roa,
        rng.normal(0.08, 0.05, n),
        rng.normal(0.05, 0.06, n),
        rng.normal(0.015, 0.02, n),
        rng.uniform(0.5, 1.5, n),
    ]


def write_panel(path, n_banks: int, seed: int) -> int:
    """Write the panel CSV; returns the number of data rows."""
    cols = panel_columns(n_banks, seed)
    text = [list(map(str, c)) if c.dtype.kind in "Ui" else list(map(repr, c.tolist()))
            for c in cols]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(HEADER) + "\n")
        fh.writelines(",".join(cells) + "\n" for cells in zip(*text))
    return len(cols[0])


if __name__ == "__main__":
    # python3 perfbench/gen.py OUT.csv N_BANKS SEED
    print(write_panel(sys.argv[1], int(sys.argv[2]), int(sys.argv[3])))
