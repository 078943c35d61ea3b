"""Optional remote fetcher for daily close prices.

Talks to a CoinGecko-compatible JSON API (``/coins/{id}/market_chart/range``
returning ``{"prices": [[ms_timestamp, price], ...]}``) and writes one CSV
per asset in the load_csv format. Nothing else in the package depends on
this module or on the network.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import re
import time
import urllib.error
import urllib.parse
import urllib.request
from datetime import date, datetime, timezone
from pathlib import Path

from .data import PriceMatrix, write_csv

DEFAULT_BASE_URL = "https://api.coingecko.com/api/v3"
BASE_URL_ENV = "RANKFOLIO_API_BASE"

log = logging.getLogger(__name__)

# an asset id goes into the request's URL path and a symbol (or the id)
# into the output file's name: no token may rewrite the request or leave
# the output directory
_SAFE_TOKEN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def check_token(token: str, what: str) -> None:
    """Reject an asset id or symbol that is not letters, digits, '.', '_'
    and '-', starting with a letter or digit."""
    if not _SAFE_TOKEN.fullmatch(token):
        raise ValueError(f"unsafe {what} {token!r}: use letters, digits, "
                         f"'.', '_' and '-', starting with a letter or digit")


class Fetcher:
    """Sequential price-history downloader with rate limiting and retries.

    ``delay`` is the minimum spacing in seconds between any two HTTP requests
    issued through one Fetcher (public APIs rate-limit aggressively). Retries
    cover transport errors and 5xx responses with doubling backoff; a 404 is
    treated as an unknown asset and never retried.
    """

    def __init__(self, base_url: str | None = None, delay: float = 1.2,
                 retries: int = 3, backoff: float = 1.0, timeout: float = 30.0):
        if retries < 1:
            raise ValueError("retries must be >= 1")
        if delay < 0 or backoff < 0:
            raise ValueError("delay and backoff must be non-negative")
        self.base_url = (base_url or os.environ.get(BASE_URL_ENV)
                         or DEFAULT_BASE_URL).rstrip("/")
        self.delay = delay
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self._last_request = 0.0

    def _wait_turn(self):
        now = time.monotonic()
        remaining = self.delay - (now - self._last_request)
        if self._last_request > 0 and remaining > 0:
            time.sleep(remaining)

    def _get_json(self, url: str, params: dict, what: str) -> dict:
        last_error = ""
        for attempt in range(self.retries):
            if attempt > 0:
                log.warning("retrying %s (attempt %d): %s",
                            what, attempt + 1, last_error)
                time.sleep(self.backoff * 2 ** (attempt - 1))
            self._wait_turn()
            full_url = f"{url}?{urllib.parse.urlencode(params)}"
            try:
                with urllib.request.urlopen(full_url,
                                            timeout=self.timeout) as response:
                    return json.loads(response.read())
            except urllib.error.HTTPError as exc:
                exc.close()
                if exc.code == 404:
                    raise ValueError(f"unknown asset: {what}") from None
                last_error = f"HTTP {exc.code}"
                if exc.code < 500 and exc.code != 429:
                    break
            except (OSError, http.client.HTTPException) as exc:
                # refused or dropped connections, timeouts, bad responses
                last_error = str(exc)
            finally:
                self._last_request = time.monotonic()
        raise RuntimeError(f"fetch of {what} failed after retries: {last_error}")

    def fetch_history(self, asset_id: str, start: date, end: date,
                      out_path: str | Path, symbol: str | None = None) -> Path:
        """Download [start, end] daily closes for one asset to a CSV.

        The CSV column is named ``symbol`` (default: the asset id). When the
        payload holds several points for one UTC day the last wins. The file
        is replaced in one rename (``write_csv``), so a failed download or
        write leaves an earlier file intact.
        """
        if end < start:
            raise ValueError("end date before start date")
        check_token(asset_id, "asset id")
        if symbol is not None:
            check_token(symbol, "symbol")
        url = f"{self.base_url}/coins/{asset_id}/market_chart/range"
        params = {
            "vs_currency": "usd",
            "from": int(datetime(start.year, start.month, start.day,
                                 tzinfo=timezone.utc).timestamp()),
            "to": int(datetime(end.year, end.month, end.day, 23, 59, 59,
                               tzinfo=timezone.utc).timestamp()),
        }
        payload = self._get_json(url, params, asset_id)
        points = payload.get("prices") or []
        if not points:
            raise ValueError(f"no price data returned for {asset_id}")
        by_day: dict[date, float] = {}
        for stamp_ms, price in points:
            day = datetime.fromtimestamp(stamp_ms / 1000.0,
                                         tz=timezone.utc).date()
            by_day[day] = float(price)
        days = sorted(by_day)
        matrix = PriceMatrix(
            dates=tuple(days),
            assets=(symbol or asset_id,),
            prices=[[by_day[d]] for d in days],
        )
        out_path = Path(out_path)
        write_csv(matrix, out_path)
        log.info("wrote %d days of %s to %s", len(days), asset_id, out_path)
        return out_path

