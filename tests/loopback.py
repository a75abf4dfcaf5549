"""A stdlib HTTP server on 127.0.0.1 that stands in for a remote provider."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Loopback:
    """Records each POST or GET and answers every one with `status` and `body`.

    With `cut_short`, each reply's Content-Length counts one byte more than
    the body it sends before the connection closes: a reply cut short. With
    `location`, each reply names it in a Location header: a redirect.
    Binds port 0, so the system picks a free port; `url` is its base URL.
    Use it as a context manager: the server runs in one thread until exit.
    """

    def __init__(
        self, status: int = 200, body: bytes | dict = b"{}", cut_short: bool = False, location: str | None = None
    ):
        self.status = status
        self.cut_short = cut_short
        self.location = location
        self.body = json.dumps(body).encode() if isinstance(body, dict) else body
        self.requests: list[tuple[str, dict, dict | None]] = []  # (path, headers, JSON body, None for a GET)
        loopback = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                data = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                loopback.requests.append((self.path, dict(self.headers), json.loads(data) if data else None))
                self.send_response(loopback.status)
                if loopback.location:
                    self.send_header("Location", loopback.location)
                self.send_header("Content-Length", str(len(loopback.body) + loopback.cut_short))
                self.end_headers()
                self.wfile.write(loopback.body)

            do_GET = do_POST

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        # A short poll interval keeps shutdown, which waits for one poll, quick.
        self._thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )

    def __enter__(self) -> Loopback:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()
