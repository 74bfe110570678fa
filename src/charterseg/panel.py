"""Bank-year panel ingestion and raw proxy ratios.

A panel is one read-only record array of bank-year rows read from CSV. From
it the module derives Tobin's Q and the raw balance-sheet ratios that later
get rescaled into one-to-five risk scores: capital ratio, loan-loss
allowances and provisions over loans, loan-growth gap, cost/income, expenses
over assets, ROA, ROE, loans over deposits, liquid assets over assets, and
market beta.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    DuplicateRowError,
    EmptySubsampleError,
    ParseError,
    SchemaError,
    echo,
)

PIGS_COUNTRIES = ("ES", "GR", "IE", "PT")

# CSV schema: required fields must be present and numeric in every kept row,
# optional fields may be blank (stored as NaN and resolved per proxy later).
KEY_FIELDS = ("bank_id", "country", "year")
REQUIRED_FIELDS = ("mve", "bvl", "nta", "equity", "total_assets", "loans", "deposits")
OPTIONAL_FIELDS = (
    "loan_loss_allowances",
    "loan_loss_provisions",
    "non_interest_expense",
    "income",
    "liquid_assets",
    "roa",
    "roe",
    "loan_growth",
    "gdp_growth",
    "beta",
)
ALL_FIELDS = KEY_FIELDS + REQUIRED_FIELDS + OPTIONAL_FIELDS

NAN = float("nan")

# One record per bank-year; monetary fields share one currency unit and a
# blank optional cell is NaN. Code reads fields by name: rows["year"].
PANEL_DTYPE = np.dtype([("bank_id", object), ("country", object), ("year", np.int64)]
                       + [(f, float) for f in REQUIRED_FIELDS + OPTIONAL_FIELDS])


def row_ids(rows: np.ndarray) -> tuple[str, ...]:
    """The "bank_id:year" id of each row of a PANEL_DTYPE array."""
    return tuple(f"{b}:{y}" for b, y in zip(rows["bank_id"], rows["year"].tolist()))


@dataclass(frozen=True)
class Exclusion:
    row_id: str
    reason: str


@dataclass(frozen=True, eq=False)
class Panel:
    """Bank-year rows as a read-only array of PANEL_DTYPE, with their source.

    rows may also be given as a list (not a tuple) of ALL_FIELDS-order tuples.
    """

    rows: np.ndarray
    provenance: str = ""
    window: tuple[int, int] = (0, 0)
    exclusions: tuple[Exclusion, ...] = ()

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=PANEL_DTYPE)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)


# The largest magnitude of a nonzero numeric cell, and the inverse of the
# smallest. Every ratio and Q then lies within 2 * CELL_BOUND ** 2, so sums of
# their squares stay finite for any panel that fits in memory.
CELL_BOUND = 1e50


def _parse_cell(text: str, line: int, column: str) -> float:
    """A numeric cell as a float that is 0 or of magnitude within CELL_BOUND; blank is NaN."""
    text = text.strip()
    if not text:
        return NAN
    try:  # ASCII without "_": float() also reads "1_0" and other scripts' digits
        value = float(text) if text.isascii() and "_" not in text else NAN
    except ValueError:
        value = NAN
    if not math.isfinite(value):  # nan, inf and 1e999 would pass as data
        raise ParseError(f"expected a finite number, got {echo(text)}", line=line, column=column)
    if value and not 1 / CELL_BOUND <= abs(value) <= CELL_BOUND:
        raise ParseError(f"expected 0 or a magnitude within [{1 / CELL_BOUND:g}, "
                         f"{CELL_BOUND:g}], got {echo(text)}", line=line, column=column)
    return value


def _records(data: bytes, path):
    """(first physical line, fields) per CSV record of checked UTF-8 data, decoded a chunk
    at a time (a StringIO holds 4 bytes per character); a malformed one raises ParseError."""
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as stream:
        reader = csv.reader(stream, strict=True)
        start = 1
        try:
            for record in reader:
                yield start, record
                start = reader.line_num + 1
        except csv.Error as exc:
            raise ParseError(f"{path}: malformed CSV: {exc}", line=reader.line_num) from None


def load_panel(path, schema: dict[str, str] | None = None,
               window: tuple[int, int] | None = None) -> Panel:
    """Read a bank-year panel from CSV.

    Args:
        path: CSV file with one row per bank-year.
        schema: optional mapping from field name to CSV column name; fields
            absent from the mapping use their own name as the column.
        window: optional (start_year, end_year); rows outside are excluded
            and logged. Defaults to the span observed in the data.

    Returns:
        Panel with typed rows, a source digest, and an exclusion log for
        rows dropped over missing required cells, bad years, or the window.

    Raises:
        SchemaError: a required column is missing from the header, a
            column the panel reads appears in it twice, or two fields read
            one column.
        ParseError: the file is not UTF-8, a record is not valid CSV (an
            unclosed quote, a field over the csv module's size limit), or a
            non-blank cell is not a finite number within CELL_BOUND.
        DuplicateRowError: the same (bank_id, year) appears twice.
    """
    schema = schema or {}
    colname = {f: schema.get(f, f) for f in ALL_FIELDS}

    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    try:  # "utf-8-sig" drops one leading byte order mark, as Excel's CSV UTF-8 writes
        data.decode("utf-8-sig")  # only to find a bad byte; _records decodes as it reads
    except UnicodeDecodeError as exc:
        # The error's offset omits the mark's bytes.
        at = exc.start + (len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0)
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {at})",
                         line=data.count(b"\n", 0, at) + 1) from None

    rows: list[tuple] = []  # one tuple per kept row, in ALL_FIELDS order
    exclusions: list[Exclusion] = []
    seen: set[tuple[str, int]] = set()

    records = _records(data, path)
    header = next(records, None)
    if header is None:
        raise SchemaError(f"{path}: empty file, no header row")
    names = [name.strip() for name in header[1]]
    twice = next((colname[f] for f in ALL_FIELDS if names.count(colname[f]) > 1), None)
    if twice is not None:
        raise SchemaError(f"{path}: header line {header[0]} names column {echo(twice)} "
                          "more than once")
    reader: dict[str, str] = {}  # column -> the first field reading it
    for f in ALL_FIELDS:
        if reader.setdefault(colname[f], f) != f:
            raise SchemaError(f"{path}: fields {reader[colname[f]]!r} and {f!r} both read "
                              f"column {echo(colname[f])}")
    index = {name: i for i, name in enumerate(names)}
    needed = KEY_FIELDS + REQUIRED_FIELDS
    missing = [colname[f] for f in needed if colname[f] not in index]
    if missing:
        raise SchemaError(f"{path}: missing required columns {echo(missing)}")

    # Each field's cell position; an absent optional column lies past every record.
    at = [index.get(colname[f], math.inf) for f in ALL_FIELDS]
    numeric_columns = [colname[f] for f in REQUIRED_FIELDS + OPTIONAL_FIELDS]
    for line_no, record in records:
        if not record:  # a blank line holds no record
            continue
        width = len(record)
        cells = [record[i] if i < width else "" for i in at]
        bank_id, country, year_text = (c.strip() for c in cells[:3])
        if not bank_id or not country or not year_text:
            row_id = f"{bank_id}:{year_text}" if bank_id and year_text else f"line:{line_no}"
            exclusions.append(Exclusion(row_id, "missing bank_id, country, or year"))
            continue
        try:  # ASCII without "_", as a numeric cell
            year = int(year_text) if year_text.isascii() and "_" not in year_text else None
        except ValueError:
            year = None
        if year is None or not -2 ** 63 <= year < 2 ** 63:  # PANEL_DTYPE holds years as int64
            raise ParseError(f"expected an integer year within int64, got {echo(year_text)}",
                             line=line_no, column=colname["year"])
        row_id = f"{bank_id}:{year}"  # the parsed year, as row_ids writes it

        values = [_parse_cell(c, line_no, col) for c, col in zip(cells[3:], numeric_columns)]
        missing_field = next((f for f, v in zip(REQUIRED_FIELDS, values) if math.isnan(v)),
                             None)
        if missing_field is not None:
            exclusions.append(Exclusion(row_id, f"missing {missing_field}"))
            continue
        if window is not None and not (window[0] <= year <= window[1]):
            exclusions.append(Exclusion(row_id, f"year {year} outside window"))
            continue

        key = (bank_id, year)
        if key in seen:
            raise DuplicateRowError(f"duplicate bank-year {echo(key)} at line {line_no}")
        seen.add(key)
        rows.append((bank_id, country, year, *values))

    if window is None:
        years = [row[2] for row in rows]
        window = (min(years), max(years)) if years else (0, 0)
    return Panel(rows, provenance=f"sha256:{digest}", window=window,
                 exclusions=tuple(exclusions))


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise num/den with non-positive denominators giving NaN."""
    out = np.full(num.shape, NAN)
    ok = np.isfinite(num) & np.isfinite(den) & (den > 0.0)
    out[ok] = num[ok] / den[ok]
    return out


# Each raw proxy column's formula on the kept rows, in fixed reporting order.
# Directions (which way risk moves in the raw value) live with the rescale
# specs, not here.
PROXY_FORMULAS = {
    "capital_ratio": lambda r: r["equity"] / r["total_assets"],
    "allowances_to_loans": lambda r: _ratio(r["loan_loss_allowances"], r["loans"]),
    "provisions_to_loans": lambda r: _ratio(r["loan_loss_provisions"], r["loans"]),
    "growth_gap": lambda r: r["loan_growth"] - r["gdp_growth"],
    "cost_income": lambda r: _ratio(r["non_interest_expense"], r["income"]),
    "expense_to_assets": lambda r: r["non_interest_expense"] / r["total_assets"],
    "roa": lambda r: r["roa"],
    "roe": lambda r: r["roe"],
    "loans_to_deposits": lambda r: r["loans"] / r["deposits"],
    "liquid_to_assets": lambda r: r["liquid_assets"] / r["total_assets"],
    "beta": lambda r: r["beta"],
}
PROXY_FIELDS = tuple(PROXY_FORMULAS)


@dataclass(frozen=True, eq=False)
class ProxyFrame:
    """Column table of Tobin's Q and raw proxy ratios for the surviving panel rows."""

    rows: np.ndarray
    q: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    exclusions: tuple[Exclusion, ...] = ()

    def __len__(self) -> int:
        return len(self.rows)


def compute_raw_proxies(panel: Panel) -> ProxyFrame:
    """Derive Tobin's Q and the raw proxy ratios from a panel.

    Rows violating hard positivity requirements (nta, total_assets, deposits
    positive; loans non-negative; Q positive) are excluded and logged. Within
    surviving rows, a proxy whose denominator is not positive or whose inputs
    are missing is NaN; such rows drop out later only if that proxy is active.
    """
    rows = panel.rows
    if not len(rows):
        raise EmptySubsampleError("panel has no rows")

    nta, ta, dep, loans = rows["nta"], rows["total_assets"], rows["deposits"], rows["loans"]
    q_all = np.where(nta > 0, (rows["mve"] + rows["bvl"]) / np.where(nta > 0, nta, 1.0), NAN)

    exclusions = []
    keep = np.ones(len(rows), dtype=bool)
    checks = (
        (nta <= 0, "nta <= 0"),
        (ta <= 0, "total_assets <= 0"),
        (dep <= 0, "deposits <= 0"),
        (loans < 0, "loans < 0"),
        (~(q_all > 0), "q <= 0"),
    )
    for bad, reason in checks:
        exclusions += [Exclusion(row_id, reason) for row_id in row_ids(rows[bad & keep])]
        keep &= ~bad

    sub = rows[keep]
    columns = {name: formula(sub) for name, formula in PROXY_FORMULAS.items()}
    return ProxyFrame(rows=sub, q=q_all[keep], columns=columns, exclusions=tuple(exclusions))


@dataclass(frozen=True)
class FullSample:
    """Identity criterion: keep every row."""


# Each criterion checks its values where it is built, so a fault in a
# RunConfig built in Python is a ConfigError, as it is from parse_config.
@dataclass(frozen=True)
class YearRange:
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ConfigError(f"years criterion start {echo(self.start)} is after its end "
                              f"{echo(self.end)}")


@dataclass(frozen=True)
class Countries:
    """Keep rows whose country is in (or, with exclude=True, not in) codes."""

    codes: tuple[str, ...]
    exclude: bool = False

    def __post_init__(self):
        if not self.codes:
            raise ConfigError("countries criterion needs 'group' or a 'codes' list")

    @classmethod
    def pigs(cls) -> "Countries":
        return cls(PIGS_COUNTRIES)

    @classmethod
    def non_pigs(cls) -> "Countries":
        return cls(PIGS_COUNTRIES, exclude=True)


@dataclass(frozen=True)
class SizeHalf:
    """Split at the median of total assets; ties at the median count as large."""

    half: str  # "small" | "large"

    def __post_init__(self):
        if self.half not in ("small", "large"):
            raise ConfigError(f"size criterion needs half small or large, got {echo(self.half)}")


def filter_subsample(panel: Panel, criterion) -> Panel:
    """Select panel rows by year range, country group, or size half."""
    rows = panel.rows
    if isinstance(criterion, FullSample):
        keep = np.ones(len(rows), dtype=bool)
    elif isinstance(criterion, YearRange):
        keep = (criterion.start <= rows["year"]) & (rows["year"] <= criterion.end)
    elif isinstance(criterion, Countries):
        keep = np.isin(rows["country"], criterion.codes) != criterion.exclude
    elif isinstance(criterion, SizeHalf):
        if not len(rows):
            raise EmptySubsampleError("cannot take a size half of an empty panel")
        assets = rows["total_assets"]
        med = float(np.median(assets))
        keep = assets < med if criterion.half == "small" else assets >= med
    else:
        raise SchemaError(f"unknown subsample criterion {echo(criterion)}")

    if not keep.any():
        raise EmptySubsampleError(f"criterion {echo(criterion)} matched no rows")
    return Panel(rows[keep], provenance=panel.provenance, window=panel.window)


@dataclass(frozen=True)
class SummaryStats:
    n: int
    mean: float
    std: float
    min: float
    max: float
    std_defined: bool = True


def summary_stats(values) -> SummaryStats:
    """n, mean, sample std (n-1), min, max; a single value has std 0, flagged."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise DegenerateInputError("cannot summarise an empty sample")
    if v.size == 1:
        x = float(v[0])
        return SummaryStats(1, x, 0.0, x, x, std_defined=False)
    return SummaryStats(int(v.size), float(v.mean()), float(v.std(ddof=1)),
                        float(v.min()), float(v.max()))

