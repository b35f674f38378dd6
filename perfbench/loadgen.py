"""Open-loop HTTP load generator: one process, at most ``nproc`` threads.

Each request has a due time fixed in advance.  A worker thread takes the
next request, sleeps until it is due, sends it on a fresh connection
(the service speaks HTTP/1.0 and closes after each answer) and reads the
whole answer.  Latency counts from the due time, so a stalled server is
charged for the wait it imposes on later requests.

Two lateness figures are kept apart:

* *lag* -- how late the generator itself sent a request it was free to
  send on time (thread wake-up, interpreter lock).  A high lag makes the
  run invalid: the generator, not the program, fell behind;
* *backlog* -- how late a request was sent because every connection was
  still waiting on the server.  That is the program's queue.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any


def request_bytes(host: str, body: dict[str, Any]) -> bytes:
    """The raw HTTP/1.0 ``POST /plan`` request for ``body``."""
    payload = json.dumps(body).encode("utf-8")
    head = (
        f"POST /plan HTTP/1.0\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    return head.encode("ascii") + payload


def exchange(address: tuple[str, int], raw: bytes, timeout_s: float = 60.0) -> tuple[int, bytes]:
    """Send one raw request; ``(status code, body)``, code 0 on a transport error."""
    try:
        with socket.create_connection(address, timeout=timeout_s) as sock:
            sock.sendall(raw)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return 0, b""
    data = b"".join(chunks)
    head, _, body = data.partition(b"\r\n\r\n")
    try:
        return int(head.split(b" ", 2)[1]), body
    except (IndexError, ValueError):
        return 0, b""


@dataclass
class Phase:
    """One open-loop phase: a rate, its requests and what happened to them."""

    name: str
    rate: float
    offsets: list[float]
    bodies: list[dict[str, Any]]
    valid: list[bool]
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    lag: list[float] = field(default_factory=list)
    codes: list[int] = field(default_factory=list)
    answers: list[bytes] = field(default_factory=list)
    wall_s: float = 0.0

    def latencies_ms(self) -> list[float]:
        """Latency from due time of every valid request, failures as +inf.

        A valid request that is not answered with 200 counts as missing
        any latency limit.
        """
        out = []
        for i, ok in enumerate(self.valid):
            if not ok:
                continue
            if self.codes[i] != 200:
                out.append(math.inf)
            else:
                out.append((self.done[i] - self.due[i]) * 1e3)
        return out

    def backlog_growing(self, limit_ms: float) -> bool:
        """Whether requests near the end were sent later than the limit.

        Send delay (sent minus due) is the queue in front of the server;
        when its median over the last tenth of the phase exceeds the
        latency limit, the server did not keep up with the rate.
        """
        delays = [(s - d) * 1e3 for s, d in zip(self.sent, self.due, strict=True)]
        tail = sorted(delays[-max(1, len(delays) // 10):])
        return tail[len(tail) // 2] > limit_ms


def run_phase(
    address: tuple[str, int],
    phase: Phase,
    threads: int,
    tick: Callable[[], None] | None = None,
) -> Phase:
    """Drive one phase to completion and fill in its timings.

    The calling thread sends nothing; it runs ``tick`` (the memory
    sampler) every 0.1 s until the worker threads finish.
    """
    count = len(phase.bodies)
    raws = [request_bytes(address[0], body) for body in phase.bodies]
    phase.due = [0.0] * count
    phase.sent = [0.0] * count
    phase.done = [0.0] * count
    phase.lag = [0.0] * count
    phase.codes = [0] * count
    phase.answers = [b""] * count
    cursor = iter(range(count))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            free = time.perf_counter()
            due = start + phase.offsets[index]
            if due > free:
                time.sleep(due - free)
            sent = time.perf_counter()
            code, body = exchange(address, raws[index])
            phase.done[index] = time.perf_counter()
            phase.due[index] = due
            phase.sent[index] = sent
            phase.lag[index] = sent - max(due, free)
            phase.codes[index] = code
            phase.answers[index] = body

    pool = [threading.Thread(target=worker, daemon=True) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        while thread.is_alive():
            if tick is not None:
                tick()
            thread.join(0.1)
    phase.wall_s = time.perf_counter() - start
    return phase
