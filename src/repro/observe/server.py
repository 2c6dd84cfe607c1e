"""A zero-dependency HTTP status service for a running hunt.

``hunt --serve [HOST:]PORT`` starts a :class:`StatusServer` — a stdlib
:class:`~http.server.ThreadingHTTPServer` on a daemon thread — exposing
read-only views of the campaign's :class:`~repro.observe.observatory.
Observatory`:

========== ==================================================== =========
endpoint   contents                                             format
========== ==================================================== =========
``/``      self-contained polling dashboard                     HTML
``/status`` rounds completed/pending, throughput and ETA      JSON
``/metrics`` the live metrics registry, updated per round       Prometheus
                                                                text
``/bugs``  raw findings journaled so far                        JSON
``/coverage`` plan-coverage summary                             JSON
========== ==================================================== =========

The server is strictly an *observer*: handlers only call the
observatory's read-side views, so serving cannot perturb the statement
stream — the durability tests run a campaign with the server live and
assert it writes the same journal as a run without it.  Rates and the
ETA count only the rounds run in this process, so a resumed hunt does
not credit itself with the rounds it loaded from its journal.  Binding ``127.0.0.1`` by
default keeps an unattended hunt from listening on the network
unannounced; port 0 asks the OS for a free port (tests use this).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import urlparse

from repro.errors import PQSError
from repro.observe.dashboard import DASHBOARD_HTML
from repro.observe.observatory import Observatory


def parse_address(spec: str, default_host: str = "127.0.0.1",
                  ) -> tuple[str, int]:
    """``[HOST:]PORT`` → (host, port); bare port binds loopback."""
    spec = spec.strip()
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        host, port_text = default_host, spec
    if not host:
        host = default_host
    try:
        port = int(port_text)
    except ValueError:
        raise PQSError(f"--serve: invalid address {spec!r} "
                       f"(expected [HOST:]PORT)")
    if not 0 <= port <= 65535:
        raise PQSError(f"--serve: port {port} out of range")
    return host, port


class _Handler(BaseHTTPRequestHandler):
    """Routes one request against ``server.observatory``."""

    #: Stop BaseHTTPRequestHandler from logging every poll to stderr —
    #: the progress line owns that channel.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        route = urlparse(self.path).path.rstrip("/") or "/"
        observatory: Observatory = self.server.observatory
        try:
            if route == "/":
                self._reply(200, DASHBOARD_HTML,
                            "text/html; charset=utf-8")
            elif route == "/status":
                self._json(observatory.status())
            elif route == "/metrics":
                registry = observatory.registry
                text = registry.to_prometheus() if registry is not None \
                    else ""
                self._reply(200, text,
                            "text/plain; version=0.0.4; charset=utf-8")
            elif route == "/bugs":
                self._json({"bugs": observatory.bugs()})
            elif route == "/coverage":
                self._json(observatory.coverage())
            else:
                self._json({"error": f"no such endpoint: {route}"},
                           status=404)
        except BrokenPipeError:
            pass
        except Exception as exc:  # noqa: BLE001 - a status poll must
            # never take down the hunt; report the error to the poller.
            try:
                self._json({"error": f"{type(exc).__name__}: {exc}"},
                           status=500)
            except OSError:
                pass

    # -- response plumbing ---------------------------------------------------
    def _json(self, payload: dict, status: int = 200) -> None:
        self._reply(status, json.dumps(payload, indent=2),
                    "application/json")

    def _reply(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(data)


class StatusServer:
    """Owns the HTTP server thread for one campaign.

    Usable as a context manager; :meth:`stop` is idempotent.  The bound
    port is available as :attr:`port` after :meth:`start` (useful with
    port 0).
    """

    def __init__(self, observatory: Observatory,
                 host: str = "127.0.0.1", port: int = 0):
        self.observatory = observatory
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "StatusServer":
        if self._httpd is not None:
            return self
        try:
            httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        except OSError as exc:
            raise PQSError(
                f"--serve: cannot bind {self.host}:{self.port}: {exc}")
        httpd.daemon_threads = True
        httpd.observatory = self.observatory
        self._httpd = httpd
        self.port = httpd.server_address[1]
        self._thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="pqs-status-server", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "StatusServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
