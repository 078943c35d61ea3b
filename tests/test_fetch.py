"""Fetcher behavior against a local HTTP server playing the price API."""

import json
import threading
import time
from datetime import date, datetime, timezone
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import pytest

from rankfolio.data import load_csv
from rankfolio.fetch import BASE_URL_ENV, DEFAULT_BASE_URL, Fetcher


def ts_ms(year, month, day, hour=0):
    return int(datetime(year, month, day, hour,
                        tzinfo=timezone.utc).timestamp() * 1000)


class ApiHandler(BaseHTTPRequestHandler):
    # path -> list of (status, payload); entries are consumed in order and
    # the last one repeats. Every request is recorded on `calls`.
    routes = {}
    calls = []

    def do_GET(self):
        parsed = urlparse(self.path)
        type(self).calls.append((parsed.path, parse_qs(parsed.query),
                                 time.monotonic()))
        spec = type(self).routes.get(parsed.path)
        if spec is None:
            self.send_response(404)
            self.end_headers()
            return
        status, payload = spec[0] if len(spec) == 1 else spec.pop(0)
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def api():
    server = HTTPServer(("127.0.0.1", 0), ApiHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    ApiHandler.routes = {}
    ApiHandler.calls = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def quick_fetcher(base_url, **kwargs):
    kwargs.setdefault("delay", 0.0)
    kwargs.setdefault("backoff", 0.0)
    return Fetcher(base_url=base_url, **kwargs)


PATH = "/coins/testcoin/market_chart/range"


def test_happy_path_writes_loadable_csv(api, tmp_path):
    ApiHandler.routes[PATH] = [(200, {"prices": [
        [ts_ms(2024, 1, 1, 0), 100.0],
        [ts_ms(2024, 1, 2, 0), 101.5],
        [ts_ms(2024, 1, 3, 0), 99.25],
    ]})]
    out = tmp_path / "testcoin.csv"
    fetcher = quick_fetcher(api)
    path = fetcher.fetch_history("testcoin", date(2024, 1, 1),
                                 date(2024, 1, 3), out, symbol="TST")
    pm = load_csv(path)
    assert pm.assets == ("TST",)
    assert pm.num_days == 3
    assert pm.prices[1, 0] == 101.5
    # request parameters: usd quotes and an inclusive UTC day range
    _, query, _ = ApiHandler.calls[0]
    assert query["vs_currency"] == ["usd"]
    assert int(query["from"][0]) == ts_ms(2024, 1, 1) // 1000
    assert int(query["to"][0]) == ts_ms(2024, 1, 3) // 1000 + 86399


def test_column_defaults_to_asset_id(api, tmp_path):
    ApiHandler.routes[PATH] = [(200, {"prices": [[ts_ms(2024, 1, 1), 5.0]]})]
    path = quick_fetcher(api).fetch_history(
        "testcoin", date(2024, 1, 1), date(2024, 1, 1), tmp_path / "x.csv")
    assert load_csv(path).assets == ("testcoin",)


def test_intraday_points_dedupe_last_wins(api, tmp_path):
    ApiHandler.routes[PATH] = [(200, {"prices": [
        [ts_ms(2024, 1, 1, 1), 100.0],
        [ts_ms(2024, 1, 1, 23), 105.0],
        [ts_ms(2024, 1, 2, 4), 102.0],
    ]})]
    path = quick_fetcher(api).fetch_history(
        "testcoin", date(2024, 1, 1), date(2024, 1, 2), tmp_path / "x.csv")
    pm = load_csv(path)
    assert pm.num_days == 2
    assert pm.prices[0, 0] == 105.0


def test_404_is_unknown_asset_without_retry(api, tmp_path):
    fetcher = quick_fetcher(api, retries=3)
    with pytest.raises(ValueError, match="unknown asset"):
        fetcher.fetch_history("missingcoin", date(2024, 1, 1),
                              date(2024, 1, 2), tmp_path / "x.csv")
    assert len(ApiHandler.calls) == 1
    assert not (tmp_path / "x.csv").exists()


def test_500_then_ok_retries_and_succeeds(api, tmp_path):
    ApiHandler.routes[PATH] = [
        (500, {"error": "boom"}),
        (200, {"prices": [[ts_ms(2024, 1, 1), 7.0]]}),
    ]
    path = quick_fetcher(api, retries=3).fetch_history(
        "testcoin", date(2024, 1, 1), date(2024, 1, 1), tmp_path / "x.csv")
    assert len(ApiHandler.calls) == 2
    assert load_csv(path).prices[0, 0] == 7.0


def test_429_is_retried(api, tmp_path):
    ApiHandler.routes[PATH] = [
        (429, {"error": "slow down"}),
        (200, {"prices": [[ts_ms(2024, 1, 1), 7.0]]}),
    ]
    quick_fetcher(api).fetch_history("testcoin", date(2024, 1, 1),
                                     date(2024, 1, 1), tmp_path / "x.csv")
    assert len(ApiHandler.calls) == 2


def test_persistent_500_exhausts_retries(api, tmp_path):
    ApiHandler.routes[PATH] = [(500, {"error": "boom"})]
    with pytest.raises(RuntimeError, match="failed after retries.*500"):
        quick_fetcher(api, retries=3).fetch_history(
            "testcoin", date(2024, 1, 1), date(2024, 1, 2), tmp_path / "x.csv")
    assert len(ApiHandler.calls) == 3


def test_client_error_does_not_retry(api, tmp_path):
    ApiHandler.routes[PATH] = [(400, {"error": "bad request"})]
    with pytest.raises(RuntimeError, match="400"):
        quick_fetcher(api, retries=3).fetch_history(
            "testcoin", date(2024, 1, 1), date(2024, 1, 2), tmp_path / "x.csv")
    assert len(ApiHandler.calls) == 1


def test_connection_error_exhausts_retries(tmp_path):
    # nothing listens on port 9; every attempt fails at the transport layer
    fetcher = quick_fetcher("http://127.0.0.1:9", retries=2, timeout=0.5)
    with pytest.raises(RuntimeError, match="failed after retries"):
        fetcher.fetch_history("testcoin", date(2024, 1, 1), date(2024, 1, 2),
                              tmp_path / "x.csv")


def test_empty_payload_is_error(api, tmp_path):
    ApiHandler.routes[PATH] = [(200, {"prices": []})]
    with pytest.raises(ValueError, match="no price data"):
        quick_fetcher(api).fetch_history("testcoin", date(2024, 1, 1),
                                         date(2024, 1, 2), tmp_path / "x.csv")


def test_end_before_start_rejected(api, tmp_path):
    with pytest.raises(ValueError, match="end date"):
        quick_fetcher(api).fetch_history("testcoin", date(2024, 1, 5),
                                         date(2024, 1, 1), tmp_path / "x.csv")
    assert len(ApiHandler.calls) == 0


@pytest.mark.parametrize("asset_id, symbol", [
    ("test/coin", None), ("testcoin?x=1", None), ("testcoin#x", None),
    ("..", None), ("", None), ("testcoin", "../x"), ("testcoin", "A:B"),
])
def test_unsafe_id_or_symbol_rejected(api, tmp_path, asset_id, symbol):
    with pytest.raises(ValueError, match="unsafe"):
        quick_fetcher(api).fetch_history(asset_id, date(2024, 1, 1),
                                         date(2024, 1, 2), tmp_path / "x.csv",
                                         symbol=symbol)
    assert len(ApiHandler.calls) == 0


def test_rate_limit_spacing(api, tmp_path):
    ApiHandler.routes[PATH] = [(200, {"prices": [[ts_ms(2024, 1, 1), 7.0]]})]
    fetcher = quick_fetcher(api, delay=0.2)
    fetcher.fetch_history("testcoin", date(2024, 1, 1), date(2024, 1, 1),
                          tmp_path / "a.csv")
    fetcher.fetch_history("testcoin", date(2024, 1, 1), date(2024, 1, 1),
                          tmp_path / "b.csv")
    gap = ApiHandler.calls[1][2] - ApiHandler.calls[0][2]
    assert gap >= 0.19


def test_base_url_from_environment(api, tmp_path, monkeypatch):
    monkeypatch.setenv(BASE_URL_ENV, api + "/")
    ApiHandler.routes[PATH] = [(200, {"prices": [[ts_ms(2024, 1, 1), 7.0]]})]
    fetcher = Fetcher(delay=0.0, backoff=0.0)
    assert fetcher.base_url == api
    fetcher.fetch_history("testcoin", date(2024, 1, 1), date(2024, 1, 1),
                          tmp_path / "x.csv")
    assert len(ApiHandler.calls) == 1


def test_default_base_url_without_environment(monkeypatch):
    monkeypatch.delenv(BASE_URL_ENV, raising=False)
    assert Fetcher().base_url == DEFAULT_BASE_URL


def test_one_shot_fetcher(api, tmp_path):
    ApiHandler.routes[PATH] = [(200, {"prices": [[ts_ms(2024, 1, 1), 7.0]]})]
    path = Fetcher(base_url=api, delay=0.0).fetch_history(
        "testcoin", date(2024, 1, 1), date(2024, 1, 1), tmp_path / "x.csv")
    assert load_csv(path).prices[0, 0] == 7.0


def test_fetcher_validation():
    with pytest.raises(ValueError):
        Fetcher(retries=0)
    with pytest.raises(ValueError):
        Fetcher(delay=-1.0)
