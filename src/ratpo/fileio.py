"""File formats: universe.json, market.json, portfolio.csv, scenarios.csv,
features.csv, plus the result/trajectory outputs.

Serialization is canonical (sorted JSON keys, shortest-round-trip floats,
"\\n" newlines) so that save(load(f)) is byte-identical for files produced
by this module.  Monetary fields are converted to EUR while loading
market.json; saved market files are always in the converted form with unit
FX factors.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .features import FeatureTable
from .instruments import (
    Category,
    CurrencyMarket,
    MarketData,
    Portfolio,
    ScenarioSet,
    UnderlyingMarket,
    UnderlyingSpec,
    is_uei_id,
    parse_descriptor_id,
    parse_static_id,
)

PathLike = Union[str, Path]


class SchemaError(ValueError):
    """A malformed input file; the message names the file and offending field/line."""

    def __init__(self, path: PathLike, detail: str):
        super().__init__(f"{path}: {detail}")
        self.path = str(path)
        self.detail = detail


def _write_text(path: PathLike, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def write_csv(path: PathLike, rows: Iterable[Sequence]) -> None:
    """Write ``rows``, the header first, as a UTF-8 CSV file with "\\n" line ends."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    _write_text(path, buf.getvalue())


def _read_text(path: PathLike) -> str:
    """The file's UTF-8 text, line endings untranslated; a missing, unreadable
    or non-UTF-8 file is a :class:`SchemaError`."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(path, f"cannot read: {exc}") from exc


def _read_json(path: PathLike):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}") from exc


def _csv_rows(path: PathLike):
    return csv.reader(io.StringIO(_read_text(path), newline=""))


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _number(value) -> float:
    """``float(value)``, rejecting NaN and infinities (JSON and CSV both spell them)."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {value!r}")
    return x


def _integer(value, what: str) -> int:
    """A JSON integer: floats, booleans and strings are rejected, not truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _bound(value) -> Optional[int]:
    return None if value is None else _integer(value, "notional bound")


def _object(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValueError(f"{what}: expected a JSON object, got {type(value).__name__}")
    return value


def _spreads(entry: Mapping) -> dict[float, float]:
    spreads = _object(entry.get("vol_spread_by_strike", {}), "vol_spread_by_strike")
    return {_number(k): _number(v) for k, v in spreads.items()}


# ---------------------------------------------------------------------------
# universe.json
# ---------------------------------------------------------------------------


def save_universe(specs: Sequence[UnderlyingSpec], path: PathLike) -> None:
    payload = []
    for s in specs:
        payload.append({
            "ticker": s.ticker,
            "category": s.category.value,
            "tenor_domain": list(s.tenor_domain),
            "option_notional_bound": s.option_notional_bound,
            "linear_notional_bound": s.linear_notional_bound,
            "spot_spread": s.spot_spread,
            "futures_spread": s.futures_spread,
            "vol_spread_by_strike": {f"{k:.2f}": v for k, v in sorted(s.vol_spread_by_strike.items())},
        })
    _write_text(path, _json_dumps(payload))


def load_universe(path: PathLike) -> list[UnderlyingSpec]:
    raw = _read_json(path)
    if not isinstance(raw, list) or not raw:
        raise SchemaError(path, "expected a non-empty JSON array of underlying specs")
    specs = []
    for i, entry in enumerate(raw):
        try:
            specs.append(UnderlyingSpec(
                ticker=entry["ticker"],
                category=Category(entry["category"]),
                tenor_domain=tuple(_integer(t, "tenor") for t in entry["tenor_domain"]),
                option_notional_bound=_bound(entry.get("option_notional_bound")),
                linear_notional_bound=_bound(entry.get("linear_notional_bound")),
                spot_spread=_number(entry.get("spot_spread", 0.0)),
                futures_spread=_number(entry.get("futures_spread", 0.0)),
                vol_spread_by_strike=_spreads(entry),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(path, f"entry {i}: {exc}") from exc
    # build_universe checks the same for API callers, naming neither file nor ticker.
    for i in range(1, len(specs)):
        prev, ticker = specs[i - 1].ticker, specs[i].ticker
        if ticker == prev:
            raise SchemaError(path, f"entry {i}: duplicate ticker {ticker!r}")
        if ticker < prev:
            raise SchemaError(path, f"entry {i}: ticker {ticker!r} sorts before {prev!r}; specs must be sorted")
    return specs


# ---------------------------------------------------------------------------
# market.json
# ---------------------------------------------------------------------------


def save_market(market: MarketData, path: PathLike) -> None:
    underlyings = {}
    for ticker, u in sorted(market.underlyings.items()):
        if isinstance(u.vol, Mapping):
            nested: dict[str, dict[str, float]] = {}
            for (strike, tenor), value in sorted(u.vol.items()):
                nested.setdefault(f"{strike:.2f}", {})[f"{tenor:03d}"] = value
            vol: Union[float, dict] = nested
        else:
            vol = u.vol
        underlyings[ticker] = {
            "spot": u.spot,
            "vol": vol,
            "div_yield": u.div_yield,
            "currency": u.currency,
            "spot_spread": u.spot_spread,
            "futures_spread": u.futures_spread,
            "vol_spread_by_strike": {f"{k:.2f}": v for k, v in sorted(u.vol_spread_by_strike.items())},
        }
    currencies = {
        ccy: {"rate": c.rate, "fx_eur": 1.0} for ccy, c in sorted(market.currencies.items())
    }
    _write_text(path, _json_dumps({"underlyings": underlyings, "currencies": currencies}))


def load_market(path: PathLike) -> MarketData:
    raw = _read_json(path)
    try:
        raw = _object(raw, "top level")
        entries = _object(raw.get("underlyings", {}), "underlyings")
        rates = _object(raw.get("currencies"), "currencies")
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc
    try:
        currencies = {
            ccy: CurrencyMarket(rate=_number(entry["rate"]), fx_eur=_number(entry.get("fx_eur", 1.0)))
            for ccy, entry in rates.items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(path, f"currencies: {exc}") from exc

    underlyings = {}
    for ticker, entry in entries.items():
        try:
            ccy = entry["currency"]
            if ccy not in currencies:
                raise SchemaError(path, f"{ticker}: unknown currency {ccy!r}")
            fx = currencies[ccy].fx_eur
            vol = entry["vol"]
            if isinstance(vol, Mapping):
                vol = {
                    (_number(strike), int(tenor)): _number(v)
                    for strike, by_tenor in vol.items()
                    for tenor, v in _object(by_tenor, f"vol strike {strike}").items()
                }
            else:
                vol = _number(vol)
            underlyings[ticker] = UnderlyingMarket(
                spot=_number(entry["spot"]) * fx,
                vol=vol,
                div_yield=_number(entry.get("div_yield", 0.0)),
                currency=ccy,
                spot_spread=_number(entry.get("spot_spread", 0.0)),
                futures_spread=_number(entry.get("futures_spread", 0.0)) * fx,
                vol_spread_by_strike=_spreads(entry),
            )
        except SchemaError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(path, f"{ticker}: {exc}") from exc
    # All monetary values are EUR now; record the conversion as applied.
    converted = {ccy: CurrencyMarket(rate=c.rate, fx_eur=1.0) for ccy, c in currencies.items()}
    return MarketData(underlyings, converted)


# ---------------------------------------------------------------------------
# portfolio.csv
# ---------------------------------------------------------------------------


def save_portfolio(portfolio: Portfolio, path: PathLike) -> None:
    write_csv(path, [["instrument_id", "notional"], *portfolio.legs])


def load_portfolio(path: PathLike) -> Portfolio:
    reader = _csv_rows(path)
    header = next(reader, None)
    if header != ["instrument_id", "notional"]:
        raise SchemaError(path, f"expected header instrument_id,notional, got {header}")
    legs = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise SchemaError(path, f"line {line_no}: expected 2 fields, got {len(row)}")
        try:
            parse_descriptor_id(row[0]) if is_uei_id(row[0]) else parse_static_id(row[0])
        except ValueError as exc:
            raise SchemaError(path, f"line {line_no}: {exc}") from exc
        try:
            legs.append((row[0], int(row[1])))
        except ValueError as exc:
            raise SchemaError(path, f"line {line_no}: notional must be an integer: {exc}") from exc
    return Portfolio.from_pairs(legs)


# ---------------------------------------------------------------------------
# scenarios.csv
# ---------------------------------------------------------------------------


def save_scenarios(scenarios: ScenarioSet, path: PathLike) -> None:
    header: list[str] = []
    for t in scenarios.tickers:
        header += [f"{t}_ret", f"{t}_volshift"]
    header += [f"{c}_rateshift" for c in scenarios.currencies]
    rows = [header]
    for i in range(scenarios.count):
        row: list[str] = []
        for j in range(len(scenarios.tickers)):
            row += [repr(float(scenarios.spot_returns[i, j])), repr(float(scenarios.vol_shifts[i, j]))]
        row += [repr(float(scenarios.rate_shifts[i, j])) for j in range(len(scenarios.currencies))]
        rows.append(row)
    write_csv(path, rows)


def load_scenarios(path: PathLike) -> ScenarioSet:
    reader = _csv_rows(path)
    header = next(reader, None)
    if not header:
        raise SchemaError(path, "missing header row")
    repeated = next((c for i, c in enumerate(header) if c in header[:i]), None)
    if repeated is not None:
        raise SchemaError(path, f"repeated column {repeated}")
    tickers = [c[: -len("_ret")] for c in header if c.endswith("_ret")]
    currencies = [c[: -len("_rateshift")] for c in header if c.endswith("_rateshift")]
    if not tickers:
        raise SchemaError(path, "no <ticker>_ret columns found")
    expected = [f"{t}_{kind}" for t in tickers for kind in ("ret", "volshift")]
    expected += [f"{c}_rateshift" for c in currencies]
    missing = sorted(set(expected) - set(header))
    if missing:
        raise SchemaError(path, f"missing column {missing[0]}")
    if list(header) != expected:
        raise SchemaError(path, f"unexpected column layout: {header}")
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise SchemaError(path, f"line {line_no}: expected {len(header)} fields, got {len(row)}")
        try:
            rows.append([_number(v) for v in row])
        except ValueError as exc:
            raise SchemaError(path, f"line {line_no}: {exc}") from exc
    if not rows:
        raise SchemaError(path, "scenario file has no data rows")
    data = np.array(rows)
    u = len(tickers)
    spot = data[:, 0: 2 * u: 2]
    vol = data[:, 1: 2 * u: 2]
    rates = data[:, 2 * u:]
    return ScenarioSet(tuple(tickers), tuple(currencies), spot, vol, rates)


# ---------------------------------------------------------------------------
# features.csv (debug/report export)
# ---------------------------------------------------------------------------


def save_features(table: FeatureTable, path: PathLike) -> None:
    header = ["instrument_id", "value", "delta", "vega", "gamma", "unit_cost"]
    rows = [header + [f"pnl_{i + 1}" for i in range(table.scenario_count)]]
    for instrument_id in table.ids():
        f = table[instrument_id]
        rows.append([instrument_id, repr(f.value), repr(f.delta), repr(f.vega), repr(f.gamma), repr(f.unit_cost)]
                    + [repr(float(x)) for x in f.pnl])
    write_csv(path, rows)
