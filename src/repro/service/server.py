"""Line transports for :class:`~repro.service.AdmissionService`.

One request per line, one response per line — JSON both ways.  Two
transports:

* :func:`serve_stdio` — requests on stdin, responses on stdout (the
  ``repro serve`` default; trivially driveable from a shell pipe or a
  subprocess harness);
* :class:`~repro.service.async_server.AsyncLineServer` — TCP (``repro
  serve --port``): a single-threaded selectors loop serving one client
  or many simultaneous ones, with per-connection buffers, backpressure
  and fair round-robin dispatch.  Clients may also connect one after
  another; the server keeps accepting until a ``close`` request or a
  SIGTERM/SIGINT ends the service.

Both transports drain requests until the stream ends or a successful
``close`` request arrives; they never raise on malformed input — bad
JSON and domain errors (including a request that is not a JSON object,
which :meth:`~repro.service.AdmissionService.handle` rejects) come back
as ``{"ok": false, ...}`` response lines, so one broken client request
cannot take the service (and its journal) down with it.  A request line
longer than ``max_line_bytes`` is answered with a friendly ``{"ok":
false}`` over-limit response instead of being parsed.  On
SIGTERM/SIGINT the TCP transport flushes the journal's group-commit
window before returning, so every acknowledged event is on disk and
``repro resume`` picks up exactly where the stream stopped.

High-throughput clients should prefer the batched ``feed`` op —
``{"op": "feed", "events": [{...}, ...]}`` — over per-event ``submit``
lines: one request line, one validation sweep and one journal commit
window cover the whole batch (see
:meth:`~repro.service.AdmissionService.feed_events`).
"""
from __future__ import annotations

import json
import sys

from .service import AdmissionService

__all__ = ["decode_request", "serve_lines", "serve_stdio"]

#: Default request-line byte cap (also the async server's default).
MAX_LINE_BYTES = 1 << 20


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not valid JSON")


def decode_request(line) -> object:
    """Parse one request line as strict JSON — both transports' decoder.

    Python's ``json`` accepts the non-standard ``NaN``/``Infinity``/
    ``-Infinity`` tokens; a request carrying one (say as its ``id``,
    which the response echoes) would be answered with invalid JSON, so
    they are refused here and the request is ``bad request JSON``.

    Raises
    ------
    ValueError
        If ``line`` is not strict JSON.
    """
    return json.loads(line, parse_constant=_refuse_constant)


def serve_lines(service: AdmissionService, lines, emit, *,
                max_line_bytes: int = MAX_LINE_BYTES) -> dict | None:
    """The shared loop: JSON-decode each line, handle, emit the response.

    Returns the ``close`` response when one was served, else ``None``
    (the input stream ended first — the journal then carries whatever
    was applied, ready for ``repro resume``).  Lines longer than
    ``max_line_bytes`` are rejected with an ``{"ok": false}`` response
    without being parsed.
    """
    for line in lines:
        if len(line) > max_line_bytes + 1:  # +1: the newline itself
            emit({"ok": False,
                  "error": (f"request line exceeds {max_line_bytes} bytes; "
                            "split the batch or raise --max-line-bytes")})
            continue
        line = line.strip()
        if not line:
            continue
        try:
            req = decode_request(line)
        except ValueError as exc:
            emit({"ok": False, "error": f"bad request JSON: {exc}"})
            continue
        resp = service.handle(req)
        emit(resp)
        if resp.get("op") == "close" and resp.get("ok"):
            return resp
    return None


def serve_stdio(service: AdmissionService, infile=None, outfile=None, *,
                max_line_bytes: int = MAX_LINE_BYTES) -> dict | None:
    """Serve line requests from ``infile`` (default stdin) to
    ``outfile`` (default stdout), flushing every response."""
    infile = sys.stdin if infile is None else infile
    outfile = sys.stdout if outfile is None else outfile

    def emit(doc: dict) -> None:
        outfile.write(json.dumps(doc) + "\n")
        outfile.flush()

    return serve_lines(service, infile, emit,
                       max_line_bytes=max_line_bytes)
