"""Single-threaded open-loop load generator over one TCP connection.

One ``selectors`` loop owns one non-blocking socket.  Every request has
a due time fixed before the run starts (a stepped ramp of offered
rates); the loop hands each request to the socket once it is due,
whether or not earlier replies have come back, and reads replies as
they arrive.  Latency is measured from the due time, so a stall that
delays later sends is charged to those requests too.  How late the
loop itself sent (``lag``) is recorded, so a generator that could not
keep its own schedule shows up instead of posing as server latency.

Replies on one connection come back in request order, so the k-th reply
line belongs to the k-th request; replies are only stored here and
parsed after the run, which keeps the loop cheap.
"""

from __future__ import annotations

import selectors
import socket
import time

#: Poll instead of sleeping when the next send is due this soon.
_SPIN_S = 0.002


def schedule(steps: list[tuple[float, int]]) -> list[float]:
    """Due offsets (seconds from start) for ``[(rate, count), ...]``."""
    due: list[float] = []
    t = 0.0
    for rate, count in steps:
        gap = 1.0 / rate
        due.extend(t + k * gap for k in range(count))
        t += count * gap
    return due


def run_open_loop(host: str, port: int, lines: list[bytes],
                  due: list[float], *, timeout_s: float = 120.0) -> dict:
    """Send ``lines[i]`` at ``start + due[i]``; collect every reply.

    Returns ``{"due", "sent", "recv", "replies"}``: absolute due, send
    and receive times (``time.perf_counter`` seconds) per request and
    the raw reply lines.  Raises ``TimeoutError`` when replies stop
    arriving for ``timeout_s`` and ``ConnectionError`` on EOF.
    """
    n = len(lines)
    if len(due) != n:
        raise ValueError("one due time per request line")
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    sel = selectors.DefaultSelector()
    sel.register(sock, selectors.EVENT_READ)
    sent_at = [0.0] * n
    recv_at = [0.0] * n
    replies: list[bytes] = []
    out = bytearray()
    rbuf = bytearray()
    nxt = 0
    got = 0
    clock = time.perf_counter
    start = clock() + 0.05
    due_abs = [start + d for d in due]
    last_progress = clock()
    try:
        while got < n:
            now = clock()
            while nxt < n and due_abs[nxt] <= now:
                out += lines[nxt]
                sent_at[nxt] = now
                nxt += 1
            if out:
                try:
                    k = sock.send(out)
                    del out[:k]
                except BlockingIOError:
                    pass
            if out:
                wait = 0.0
            elif nxt < n:
                # epoll sleeps in whole milliseconds, rounded up: sleep
                # only while the next request is more than _SPIN_S away,
                # then poll, so sends leave on time.
                wait = due_abs[nxt] - clock() - _SPIN_S
                wait = max(0.0, wait)
            else:
                wait = 0.05
            for _key, _mask in sel.select(wait):
                while True:
                    try:
                        chunk = sock.recv(1 << 16)
                    except BlockingIOError:
                        break
                    if not chunk:
                        raise ConnectionError(
                            f"server closed after {got} of {n} replies")
                    t = clock()
                    rbuf += chunk
                    while True:
                        cut = rbuf.find(b"\n")
                        if cut < 0:
                            break
                        replies.append(bytes(rbuf[:cut]))
                        del rbuf[:cut + 1]
                        recv_at[got] = t
                        got += 1
                    last_progress = t
            if clock() - last_progress > timeout_s:
                raise TimeoutError(f"no reply for {timeout_s} s "
                                   f"({got} of {n} received)")
    finally:
        sel.close()
        sock.close()
    return {"due": due_abs, "sent": sent_at, "recv": recv_at,
            "replies": replies}
