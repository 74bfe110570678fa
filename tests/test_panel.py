"""Panel ingestion, ratio derivation, and subsample filtering tests."""

from __future__ import annotations

import csv
import hashlib
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from charterseg.errors import (
    ECHO_LIMIT,
    ChartersegError,
    ConfigError,
    DegenerateInputError,
    DuplicateRowError,
    EmptySubsampleError,
    ParseError,
    SchemaError,
)
from charterseg.panel import (
    Countries,
    FullSample,
    Panel,
    SizeHalf,
    YearRange,
    compute_raw_proxies,
    filter_subsample,
    load_panel,
    row_ids,
    summary_stats,
)
from charterseg.study import write_exclusions_table

from helpers import FULL_HEADER, PANEL_BYTES, bank_year, make_panel, panel_csv_text

def base_row(**overrides):
    row = {
        "bank_id": "b1", "country": "DE", "year": 2008,
        "mve": 50.0, "bvl": 950.0, "nta": 1000.0, "equity": 72.0,
        "total_assets": 1000.0, "loans": 500.0, "deposits": 600.0,
    }
    row.update(overrides)
    return row


def write_csv(path, rows, header=None):
    path.write_text(panel_csv_text(rows, header=header), encoding="utf-8")
    return path


# -------------------------------------------------------------- load_panel


def test_load_three_rows(tmp_path):
    rows = [base_row(bank_id=f"b{i}", year=2008 + i) for i in range(3)]
    panel = load_panel(write_csv(tmp_path / "p.csv", rows))
    assert len(panel) == 3
    assert panel.rows[0]["bank_id"] == "b0"
    assert panel.rows["year"][2] == 2010
    assert panel.window == (2008, 2010)
    assert panel.provenance.startswith("sha256:")
    assert panel.exclusions == ()


def test_load_duplicate_bank_year(tmp_path):
    rows = [base_row(), base_row()]
    with pytest.raises(DuplicateRowError, match="b1"):
        load_panel(write_csv(tmp_path / "p.csv", rows))


def test_load_blank_deposits_excluded(tmp_path):
    rows = [base_row(), base_row(bank_id="b2", deposits="")]
    panel = load_panel(write_csv(tmp_path / "p.csv", rows))
    assert len(panel) == 1
    assert len(panel.exclusions) == 1
    exc = panel.exclusions[0]
    assert exc.row_id == "b2:2008"
    assert "deposits" in exc.reason


def test_load_blank_optional_becomes_nan(tmp_path):
    rows = [dict(base_row(), roa=0.01, beta="")]
    panel = load_panel(write_csv(tmp_path / "p.csv", rows, header=FULL_HEADER))
    assert panel.rows[0]["roa"] == 0.01
    assert math.isnan(panel.rows[0]["beta"])
    assert math.isnan(panel.rows[0]["liquid_assets"])


def test_load_missing_required_column(tmp_path):
    header = [c for c in FULL_HEADER[:10] if c != "deposits"]
    path = write_csv(tmp_path / "p.csv", [base_row()], header=header)
    with pytest.raises(SchemaError, match="deposits"):
        load_panel(path)


def test_load_non_numeric_cell_location(tmp_path):
    rows = [base_row(), base_row(bank_id="b2", loans="plenty")]
    path = write_csv(tmp_path / "p.csv", rows)
    with pytest.raises(ParseError) as err:
        load_panel(path)
    assert err.value.line == 3
    assert err.value.column == "loans"


def test_load_error_names_the_physical_line(tmp_path):
    # The quoted bank_id spans lines 2-3, so the bad cell sits on line 4.
    rows = [base_row(bank_id='"b\n1"'), base_row(bank_id="b2", loans="plenty")]
    path = write_csv(tmp_path / "p.csv", rows)
    with pytest.raises(ParseError) as err:
        load_panel(path)
    assert err.value.line == 4
    assert err.value.column == "loans"


def test_load_exclusion_ids_name_the_physical_line(tmp_path):
    rows = [base_row(bank_id='"b\n1"'), base_row(bank_id="", year=2009)]
    panel = load_panel(write_csv(tmp_path / "p.csv", rows))
    assert len(panel) == 1
    assert [e.row_id for e in panel.exclusions] == ["line:4"]


def test_load_skips_blank_lines(tmp_path):
    # A blank line between two rows and one at the end hold no record; a
    # line of bare commas is a record without its keys.
    text = panel_csv_text([base_row(), base_row(bank_id="b2")])
    header, first, second = text.splitlines()
    path = tmp_path / "p.csv"
    path.write_text("\n".join([header, first, "", second, "", ""]), encoding="utf-8")
    panel = load_panel(path)
    assert panel.rows["bank_id"].tolist() == ["b1", "b2"]
    assert panel.exclusions == ()

    path.write_text("\n".join([header, first, ",,,", second]) + "\n", encoding="utf-8")
    panel = load_panel(path)
    assert len(panel) == 2
    assert [(e.row_id, e.reason) for e in panel.exclusions] == [
        ("line:3", "missing bank_id, country, or year")]


def test_load_schema_renames_columns(tmp_path):
    header = ["id", "iso", "yr"] + FULL_HEADER[3:10]
    rows = [dict(base_row(), id="b9", iso="FR", yr=2012)]
    path = write_csv(tmp_path / "p.csv", rows, header=header)
    panel = load_panel(path, schema={"bank_id": "id", "country": "iso", "year": "yr"})
    assert panel.rows[0]["bank_id"] == "b9"
    assert panel.rows[0]["country"] == "FR"
    assert panel.rows["year"][0] == 2012


def test_load_window_excludes_outside_years(tmp_path):
    rows = [base_row(bank_id=f"b{i}", year=2005 + i) for i in range(5)]
    panel = load_panel(write_csv(tmp_path / "p.csv", rows), window=(2006, 2008))
    assert panel.rows["year"].tolist() == [2006, 2007, 2008]
    assert {e.row_id for e in panel.exclusions} == {"b0:2005", "b4:2009"}
    assert panel.window == (2006, 2008)


def test_load_exclusion_ids_use_the_parsed_year(tmp_path):
    # "+2006" and "02005" parse to 2006 and 2005; their ids read as row_ids
    # writes them, as compute_raw_proxies logs the rows it drops.
    rows = [base_row(bank_id="b1", year="+2006"), base_row(bank_id="b2", year="02005"),
            base_row(bank_id="b3", year="+2008", deposits=""),
            base_row(bank_id="b4", year="+2008", deposits=0.0)]
    panel = load_panel(write_csv(tmp_path / "p.csv", rows), window=(2007, 2016))
    assert [(e.row_id, e.reason) for e in panel.exclusions] == [
        ("b1:2006", "year 2006 outside window"), ("b2:2005", "year 2005 outside window"),
        ("b3:2008", "missing deposits")]
    assert [e.row_id for e in compute_raw_proxies(panel).exclusions] == ["b4:2008"]
    # A blank key field leaves the year unparsed, so the id keeps its text.
    panel = load_panel(write_csv(tmp_path / "q.csv", [base_row(country="", year="+2006")]))
    assert [e.row_id for e in panel.exclusions] == ["b1:+2006"]


def test_load_missing_key_fields_excluded(tmp_path):
    rows = [base_row(), dict(base_row(), bank_id="", year=2009)]
    panel = load_panel(write_csv(tmp_path / "p.csv", rows))
    assert len(panel) == 1
    assert panel.exclusions[0].reason.startswith("missing bank_id")


def test_load_empty_file(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_panel(path)


def test_load_non_utf8_is_a_located_parse_error(tmp_path):
    text = panel_csv_text([base_row(), base_row(bank_id="b2", country="PT")])
    path = tmp_path / "p.csv"
    path.write_bytes(text.replace("PT", "P\u00c9").encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8") as err:
        load_panel(path)
    assert err.value.line == 3


def test_load_strips_one_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with a BOM, which used to read as
    # part of the first column's name: "missing required columns ['bank_id']".
    rows = [base_row(), base_row(bank_id="b2", deposits=""), base_row(bank_id="", year=2009),
            base_row(bank_id="b3", year=2010)]
    plain = load_panel(write_csv(tmp_path / "plain.csv", rows))
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
    panel = load_panel(path)
    assert repr(panel.rows.tolist()) == repr(plain.rows.tolist())
    assert panel.exclusions == plain.exclusions and len(panel.exclusions) == 2
    assert panel.window == plain.window
    assert panel.provenance == f"sha256:{hashlib.sha256(path.read_bytes()).hexdigest()}"


def test_load_non_utf8_after_a_byte_order_mark_names_its_line(tmp_path):
    # The bad byte opens line 3. utf-8-sig's error offset omits the BOM's 3
    # bytes, so counting lines up to it unshifted would stop before line 3.
    text = panel_csv_text([base_row(), base_row(bank_id="É2")])
    data = b"\xef\xbb\xbf" + text.encode("latin-1")
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    at = data.index("É".encode("latin-1"))
    with pytest.raises(ParseError, match=f"at byte {at}") as err:
        load_panel(path)
    assert err.value.line == 3


def test_load_rejects_a_read_column_named_twice(tmp_path):
    # A second mve column used to replace the first without a word.
    header = FULL_HEADER[:10] + ["mve"]
    text = panel_csv_text([base_row()], header=header).replace("50.0\n", "50000.0\n")
    path = tmp_path / "p.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError, match="header line 1 names column 'mve' more than once"):
        load_panel(path)
    # Under a schema, the duplicated name is the mapped column's.
    path.write_text(text.replace("mve", "market_value"), encoding="utf-8")
    with pytest.raises(SchemaError, match="'market_value'"):
        load_panel(path, schema={"mve": "market_value"})
    # A column the panel does not read may repeat.
    path.write_text(panel_csv_text([base_row()], header=FULL_HEADER[:10] + ["note", "note"]),
                    encoding="utf-8")
    assert len(load_panel(path)) == 1


def test_load_rejects_two_fields_reading_one_column(tmp_path):
    # bvl used to read the mve column too, so Tobin's Q took market value
    # as the book value of liabilities.
    path = write_csv(tmp_path / "p.csv", [base_row()])
    with pytest.raises(SchemaError, match="fields 'mve' and 'bvl' both read column 'mve'"):
        load_panel(path, schema={"bvl": "mve"})
    with pytest.raises(SchemaError, match="fields 'mve' and 'bvl' both read column 'value'"):
        load_panel(path, schema={"mve": "value", "bvl": "value"})
    # Two fields may swap columns.
    swapped = load_panel(path, schema={"mve": "bvl", "bvl": "mve"})
    assert swapped.rows[0]["mve"] == base_row()["bvl"]


# A cell over the csv module's field size limit (131,072 characters) used to
# escape as _csv.Error; a quote left open at the end of the file used to load.
@pytest.mark.parametrize("cell, message", [
    ("1" * 140_000, "field larger than field limit"),
    ('"1,1,1', "unexpected end of data"),
], ids=["huge_cell", "open_quote"])
def test_load_malformed_csv_is_a_located_parse_error(tmp_path, cell, message):
    text = panel_csv_text([base_row(), base_row(bank_id="b2", mve=cell)])
    path = tmp_path / "p.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=message) as err:
        load_panel(path)
    assert err.value.line == 3


@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e999"])
def test_load_non_finite_cell_is_a_located_parse_error(tmp_path, text):
    # total_assets "inf" used to load (capital_ratio 0.0), and deposits "nan"
    # used to pass as a blank cell (the exclusion "missing deposits").
    for column in ("total_assets", "deposits"):
        rows = [base_row(), base_row(bank_id="b2", **{column: text})]
        with pytest.raises(ParseError, match="expected a finite number") as err:
            load_panel(write_csv(tmp_path / "p.csv", rows))
        assert (err.value.line, err.value.column) == (3, column)


def test_load_year_outside_int64_is_a_located_parse_error(tmp_path):
    # Python reads these years, but PANEL_DTYPE holds years as int64, where
    # building the panel would raise OverflowError.
    for year in (2 ** 63, -(2 ** 63) - 1, 99999999999999999999):
        rows = [base_row(), base_row(bank_id="b2", year=year)]
        with pytest.raises(ParseError, match="integer year") as err:
            load_panel(write_csv(tmp_path / "p.csv", rows))
        assert (err.value.line, err.value.column) == (3, "year")
    rows = [base_row(year=2 ** 63 - 1), base_row(bank_id="b2", year=-(2 ** 63))]
    assert load_panel(write_csv(tmp_path / "p.csv", rows)).window == (-(2 ** 63), 2 ** 63 - 1)


@pytest.mark.parametrize("column, cell", [
    ("year", "2_005"),
    ("year", "\u0662\u0660\u0660\u0667"),  # Arabic-Indic digits
    ("loans", "1_0"),
    ("loans", "\uff11\uff10"),  # fullwidth digits
], ids=["year_underscore", "year_arabic_indic", "cell_underscore", "cell_fullwidth"])
def test_load_numbers_are_ascii_decimals(tmp_path, column, cell):
    # int() and float() read these as 2005, 2007, 10.0 and 10.0, and they used to load.
    rows = [base_row(), base_row(bank_id="b2", **{column: cell})]
    with pytest.raises(ParseError) as err:
        load_panel(write_csv(tmp_path / "p.csv", rows))
    expected = "an integer year within int64" if column == "year" else "a finite number"
    assert str(err.value) == f"expected {expected}, got {cell!r} (line 3, column {column!r})"


@pytest.mark.parametrize("column, cell, prefix", [
    ("mve", "x" * 10_000, "expected a finite number, got "),
    ("year", "9" * 10_000, "expected an integer year within int64, got "),
], ids=["mve", "year"])
def test_load_echoes_a_long_cell_within_the_cap(tmp_path, column, cell, prefix):
    # The whole cell used to be echoed; one can hold 131,072 characters.
    rows = [base_row(), base_row(bank_id="b2", **{column: cell})]
    with pytest.raises(ParseError) as err:
        load_panel(write_csv(tmp_path / "p.csv", rows))
    message = str(err.value)
    where = f" (line 3, column {column!r})"
    assert message.startswith(prefix) and message.endswith(where)
    assert len(message) <= len(prefix) + ECHO_LIMIT + len(where)


_COLUMN = "z" * 5_000


@pytest.mark.parametrize("header, schema, fragment", [
    (FULL_HEADER[:10] + [_COLUMN, _COLUMN], {"beta": _COLUMN}, "header line 1 names column "),
    (FULL_HEADER[:10], {"roa": _COLUMN, "beta": _COLUMN},
     "fields 'roa' and 'beta' both read column "),
    (FULL_HEADER[:10], {"mve": _COLUMN}, "missing required columns "),
], ids=["named_twice", "read_by_two_fields", "missing"])
def test_load_echoes_a_long_column_name_within_the_cap(tmp_path, header, schema, fragment):
    # The whole column name used to be echoed: 5,045 to 5,053 characters here.
    path = write_csv(tmp_path / "p.csv", [base_row()], header=header)
    with pytest.raises(SchemaError) as err:
        load_panel(path, schema=schema)
    message, prefix = str(err.value), f"{path}: {fragment}"
    assert message.startswith(prefix) and len(message) <= len(prefix) + ECHO_LIMIT + 20


def test_load_panel_peak_memory_stays_within_six_file_sizes(tmp_path):
    # Records are read from a stream that decodes a chunk at a time. An
    # io.StringIO of the whole text, at 4 bytes per character, used to bring
    # the traced peak to over 8 file sizes.
    rng = np.random.default_rng(0)
    values = rng.uniform(1.0, 1000.0, size=(3200, len(FULL_HEADER) - 3))
    lines = [",".join(FULL_HEADER)] + [
        ",".join([f"b{i // 10:04d}", "DE", str(2005 + i % 10)] + [repr(v) for v in row])
        for i, row in enumerate(values.tolist())]
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    size = path.stat().st_size
    assert size > 1_000_000
    tracemalloc.start()
    try:
        panel = load_panel(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(panel) == 3200
    assert peak < 6 * size


@pytest.mark.parametrize("offset", range(8189, 8195))
def test_load_reads_a_crlf_across_the_stream_chunk_boundary_as_one_line_end(tmp_path, offset):
    # The stream decodes 8,192 bytes at a time. A \r\n split across two
    # chunks must still end one line, so later lines keep their numbers.
    header = ",".join(FULL_HEADER[:10]) + "\r\n"
    first = panel_csv_text([base_row(bank_id="b0")]).splitlines()[1]
    pad = offset - len(header) - len(first)
    rows = [base_row(bank_id="b0" + "x" * pad), base_row(bank_id="b2"),
            base_row(bank_id="", year=2009)]
    text = panel_csv_text(rows).replace("\n", "\r\n")
    assert text.index("\r", len(header)) == offset
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    panel = load_panel(path)
    assert [b[:2] for b in panel.rows["bank_id"]] == ["b0", "b2"]
    assert [e.row_id for e in panel.exclusions] == ["line:4"]


def test_panel_rows_are_read_only(tmp_path):
    rows = [base_row(bank_id=f"b{i}", year=2008 + i) for i in range(3)]
    panel = load_panel(write_csv(tmp_path / "p.csv", rows))
    for sub in (panel, filter_subsample(panel, YearRange(2009, 2010))):
        with pytest.raises(ValueError, match="read-only"):
            sub.rows["year"][0] = 1990
        with pytest.raises(ValueError, match="read-only"):
            sub.rows[0] = sub.rows[1]


def test_load_provenance_is_the_file_digest(tmp_path):
    path = write_csv(tmp_path / "p.csv", [base_row()])
    want = hashlib.sha256(path.read_bytes()).hexdigest()
    assert load_panel(path).provenance == f"sha256:{want}"


@seed(20240611)
@settings(max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(PANEL_BYTES, st.one_of(st.none(), st.just((2005, 2010))))
def test_load_panel_fuzz_raises_only_charterseg_errors(data, window):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        path.write_bytes(data)
        try:
            panel = load_panel(path, window=window)
        except ChartersegError:
            return
    assert isinstance(panel, Panel)


# ------------------------------------------------------------- Tobin's Q


def frame_q(*rows):
    return compute_raw_proxies(make_panel(rows)).q


@pytest.mark.parametrize("mve,bvl,nta,expect", [
    (50.0, 950.0, 1000.0, 1.0),
    (20.0, 85.0, 100.0, 1.05),
    (0.0, 1000.0, 1000.0, 1.0),
])
def test_tobin_q_values(mve, bvl, nta, expect):
    assert frame_q(bank_year(mve=mve, bvl=bvl, nta=nta))[0] == pytest.approx(expect, rel=1e-12)


def test_tobin_q_rejects_nonpositive_nta():
    frame = compute_raw_proxies(make_panel([
        bank_year(), bank_year(bank_id="b2", nta=0.0), bank_year(bank_id="b3", nta=-5.0)]))
    assert row_ids(frame.rows) == ("b1:2008",)
    assert [(e.row_id, e.reason) for e in frame.exclusions] == [
        ("b2:2008", "nta <= 0"), ("b3:2008", "nta <= 0")]


def test_tobin_q_scale_free():
    rng = np.random.default_rng(8)
    for _ in range(20):
        mve, bvl, nta = rng.uniform(1.0, 100.0, size=3)
        scaled = frame_q(bank_year(mve=2.0 * mve, bvl=2.0 * bvl, nta=2.0 * nta))
        assert scaled[0] == frame_q(bank_year(mve=mve, bvl=bvl, nta=nta))[0]


# ----------------------------------------------------- compute_raw_proxies


def test_raw_proxies_hand_values():
    row = bank_year(equity=7.2, total_assets=100.0, loans=100.0, deposits=100.0,
                    loan_growth=0.05, gdp_growth=0.05, mve=20.0, bvl=85.0, nta=100.0)
    frame = compute_raw_proxies(make_panel([row]))
    assert frame.columns["capital_ratio"][0] == pytest.approx(0.072, rel=1e-12)
    assert frame.columns["loans_to_deposits"][0] == 1.0
    assert frame.columns["growth_gap"][0] == 0.0
    assert frame.q[0] == pytest.approx(1.05, rel=1e-12)
    assert row_ids(frame.rows) == ("b1:2008",)


def test_raw_proxies_excludes_bad_rows():
    rows = [
        bank_year(),
        bank_year(bank_id="b2", nta=0.0),
        bank_year(bank_id="b3", deposits=0.0),
        bank_year(bank_id="b4", mve=-2000.0),  # q <= 0
        bank_year(bank_id="b5", loans=-1.0),
    ]
    frame = compute_raw_proxies(make_panel(rows))
    assert row_ids(frame.rows) == ("b1:2008",)
    reasons = {e.row_id: e.reason for e in frame.exclusions}
    assert reasons["b2:2008"] == "nta <= 0"
    assert reasons["b3:2008"] == "deposits <= 0"
    assert reasons["b4:2008"] == "q <= 0"
    assert reasons["b5:2008"] == "loans < 0"


def test_raw_proxies_log_a_row_under_its_first_failed_check():
    # The checks run in docstring order: nta, total_assets, deposits, loans, Q.
    rows = [
        bank_year(),
        bank_year(bank_id="b2", nta=0.0, total_assets=0.0),
        bank_year(bank_id="b3", total_assets=-1.0, deposits=0.0),
        bank_year(bank_id="b4", deposits=0.0, loans=-1.0),
        bank_year(bank_id="b5", loans=-1.0, mve=-2000.0),  # q <= 0 too
    ]
    frame = compute_raw_proxies(make_panel(rows))
    assert row_ids(frame.rows) == ("b1:2008",)
    assert [(e.row_id, e.reason) for e in frame.exclusions] == [
        ("b2:2008", "nta <= 0"), ("b3:2008", "total_assets <= 0"),
        ("b4:2008", "deposits <= 0"), ("b5:2008", "loans < 0")]


def test_raw_proxies_missing_optional_gives_nan_not_exclusion():
    frame = compute_raw_proxies(make_panel([bank_year()]))
    assert len(frame) == 1
    assert math.isnan(frame.columns["allowances_to_loans"][0])
    assert math.isnan(frame.columns["cost_income"][0])
    assert math.isnan(frame.columns["beta"][0])


def test_raw_proxies_zero_income_gives_nan():
    row = bank_year(non_interest_expense=10.0, income=0.0)
    frame = compute_raw_proxies(make_panel([row]))
    assert math.isnan(frame.columns["cost_income"][0])
    # expense over assets is still defined
    assert frame.columns["expense_to_assets"][0] == pytest.approx(0.01)


def test_raw_proxies_negative_income_gives_nan():
    # A loss-making bank has no meaningful cost/income ratio; -2.0 would
    # read as the most efficient bank under an increasing-risk proxy.
    row = bank_year(non_interest_expense=20.0, income=-10.0)
    frame = compute_raw_proxies(make_panel([row]))
    assert math.isnan(frame.columns["cost_income"][0])
    assert frame.columns["expense_to_assets"][0] == pytest.approx(0.02)


def test_raw_proxies_empty_panel():
    with pytest.raises(EmptySubsampleError):
        compute_raw_proxies(Panel([]))


# -------------------------------------------------------- filter_subsample


def sample_panel():
    rows = []
    assets = [100.0, 200.0, 300.0, 400.0, 500.0]
    countries = ["DE", "ES", "GR", "FR", "IE"]
    for i, (a, c) in enumerate(zip(assets, countries)):
        rows.append(bank_year(bank_id=f"b{i}", country=c, year=2005 + i, total_assets=a))
    return make_panel(rows)


def test_filter_full_sample_identity():
    panel = sample_panel()
    # The same records, down to the id strings they point at (NaN != NaN
    # rules out comparing tolist()).
    assert filter_subsample(panel, FullSample()).rows.tobytes() == panel.rows.tobytes()


def test_filter_year_range():
    out = filter_subsample(sample_panel(), YearRange(2008, 2009))
    assert out.rows["year"].tolist() == [2008, 2009]


def test_filter_countries_include_exclude():
    panel = sample_panel()
    pigs = filter_subsample(panel, Countries.pigs())
    rest = filter_subsample(panel, Countries.non_pigs())
    assert set(pigs.rows["country"]) == {"ES", "GR", "IE"}
    assert set(rest.rows["country"]) == {"DE", "FR"}
    # the two halves partition the panel
    ids = sorted(row_ids(pigs.rows)) + sorted(row_ids(rest.rows))
    assert sorted(ids) == sorted(row_ids(panel.rows))


def test_filter_size_halves():
    panel = sample_panel()  # median assets = 300
    small = filter_subsample(panel, SizeHalf("small"))
    large = filter_subsample(panel, SizeHalf("large"))
    assert small.rows["total_assets"].tolist() == [100.0, 200.0]
    assert large.rows["total_assets"].tolist() == [300.0, 400.0, 500.0]


def test_filter_size_median_tie_goes_large():
    rows = [bank_year(bank_id=f"b{i}", total_assets=a)
            for i, a in enumerate([100.0, 300.0, 300.0, 500.0])]
    large = filter_subsample(make_panel(rows), SizeHalf("large"))
    assert large.rows["total_assets"].tolist() == [300.0, 300.0, 500.0]


def test_filter_size_half_of_an_empty_panel():
    # The median of no rows is undefined; refuse before numpy warns about it.
    with pytest.raises(EmptySubsampleError, match="size half of an empty panel"):
        filter_subsample(make_panel([]), SizeHalf("small"))


def test_filter_empty_result():
    with pytest.raises(EmptySubsampleError):
        filter_subsample(sample_panel(), YearRange(1990, 1991))


def test_filter_bad_criterion():
    # A bad size half fails where it is built; filter_subsample never sees it.
    with pytest.raises(ConfigError, match="size criterion needs half small or large, "
                                          "got 'medium'"):
        SizeHalf("medium")
    with pytest.raises(SchemaError):
        filter_subsample(sample_panel(), "small")


@pytest.mark.parametrize("build, message", [
    (lambda: YearRange(2016, 2005), "years criterion start 2016 is after its end 2005"),
    (lambda: Countries(()), "countries criterion needs 'group' or a 'codes' list"),
], ids=["years", "countries"])
def test_criteria_refuse_bad_values_when_built(build, message):
    # A RunConfig built in Python fails as parse_config does, before any row is read.
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


# ------------------------------------------------------------- summaries


def test_summary_stats_constant():
    s = summary_stats([1.0, 1.0, 1.0])
    assert (s.n, s.mean, s.std, s.min, s.max) == (3, 1.0, 0.0, 1.0, 1.0)
    assert s.std_defined


def test_summary_stats_two_point():
    s = summary_stats([0.0, 2.0])
    assert s.n == 2 and s.mean == 1.0
    assert s.std == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert (s.min, s.max) == (0.0, 2.0)


def test_summary_stats_single_value_flagged():
    s = summary_stats([4.2])
    assert s.n == 1
    assert s.std == 0.0
    assert not s.std_defined


def test_summary_stats_matches_numpy():
    rng = np.random.default_rng(30)
    v = rng.normal(size=101)
    s = summary_stats(v)
    assert s.mean == pytest.approx(float(np.mean(v)), rel=1e-12)
    assert s.std == pytest.approx(float(np.std(v, ddof=1)), rel=1e-12)


def test_summary_stats_empty():
    with pytest.raises(DegenerateInputError):
        summary_stats([])


def test_write_exclusions_csv(tmp_path):
    from charterseg.panel import Exclusion

    path = tmp_path / "exclusions.csv"
    write_exclusions_table(path, (Exclusion("b1:2008", "missing deposits"),
                                  Exclusion("b2:2009", "q <= 0")))
    with open(path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["row_id", "reason"]
    assert got[1] == ["b1:2008", "missing deposits"]
    assert len(got) == 3
