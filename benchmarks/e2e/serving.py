"""A real ``repro.cli serve`` subprocess and the one client that drives it.

The client is what an ordinary caller is: ``http.client`` on one
persistent HTTP/1.1 connection with the socket options the standard
library sets.  No ``TCP_QUICKACK``, no ``Connection: close``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional, Tuple

#: the program under test: ``src/`` next to ``benchmarks/``.
SOURCE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)

# The SPARQL protocol's media types, spelled out so that the untraced run
# never imports the program (1.4 s, most of it scipy).
SPARQL_QUERY_TYPE = "application/sparql-query"
SPARQL_UPDATE_TYPE = "application/sparql-update"
SPARQL_JSON_TYPE = "application/sparql-results+json"

_URL = re.compile(r"http://([^:/\s]+):(\d+)(/\S*)")
_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """``python -m repro.cli serve <snapshot> --port 0`` with default flags."""

    def __init__(self, snapshot: str):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = SOURCE_DIR
        # Fixed string hashing: set and dict iteration orders inside the
        # server are the same on every run.
        environment["PYTHONHASHSEED"] = "0"
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", snapshot, "--port", "0"],
            stdout=subprocess.PIPE,
            env=environment,
            text=True,
        )
        try:
            announcement = self.process.stdout.readline()
            match = _URL.search(announcement)
            if match is None:
                raise RuntimeError("cli serve did not announce a URL: %r" % announcement)
        except BaseException:
            self.stop()
            raise
        self.listening = time.perf_counter()
        self.host, self.port, self.path = match.group(1), int(match.group(2)), match.group(3)

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> float:
        """utime + stime of the whole process, exited threads included."""
        with open("/proc/%d/stat" % self.pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS_PER_SECOND

    def peak_rss_mib(self) -> float:
        with open("/proc/%d/status" % self.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc/%d/status" % self.pid)

    def metrics(self) -> dict:
        """The ``GET /metrics`` document, fetched on a connection of its own."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request("GET", "/metrics")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self, graceful: bool = True) -> None:
        """SIGTERM (a graceful drain), or SIGKILL at once; reaps either way."""
        if self.process.poll() is None:
            if graceful:
                self.process.terminate()
            try:
                self.process.wait(timeout=10 if graceful else 0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


@dataclass(frozen=True)
class Reply:
    """One timed exchange; ``body`` is ``None`` after a transport error."""

    status: int
    body: Optional[bytes]
    sent: float
    first_byte: float
    done: float

    @property
    def ttfb_ms(self) -> float:
        return (self.first_byte - self.sent) * 1000.0

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


#: the kernel's timer tick here (HZ=250), and the share of the last response
#: time a client may spend thinking before its next request.
TICK_SECONDS = 0.004
THINK_SHARE = 0.1


class Client:
    """One persistent connection; every request is a SPARQL protocol POST.

    With ``think`` (a seeded ``random.Random``) the client pauses before
    each request for a uniform draw from [0, min(one tick, a tenth of the
    last response time)].  A closed loop with no think time at all sends
    each request microseconds after a timer-released response, so it
    phase-locks to the kernel tick: while the keep-alive stall lasts every
    latency is then a multiple of 4 ms and a 1 % change in server time moves
    the median by 0 or 6 %.  The pause is what any real caller has; it
    costs under 5 % of throughput now and under a tenth of the op later.
    """

    def __init__(self, server: ServerProcess, think: Optional[random.Random] = None):
        self.server = server
        self.connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
        self.think = think
        self._last_seconds = 0.0

    def post(self, text: str, is_write: bool = False) -> Reply:
        headers = {
            "Content-Type": SPARQL_UPDATE_TYPE if is_write else SPARQL_QUERY_TYPE,
            "Accept": SPARQL_JSON_TYPE,
        }
        if self.think is not None:
            time.sleep(self.think.uniform(0.0, min(TICK_SECONDS, THINK_SHARE * self._last_seconds)))
        sent = time.perf_counter()
        try:
            self.connection.request("POST", self.server.path, text.encode("utf-8"), headers)
            response = self.connection.getresponse()
            first_byte = time.perf_counter()
            body = response.read()
            done = time.perf_counter()
            self._last_seconds = done - sent
            return Reply(response.status, body, sent, first_byte, done)
        except (OSError, http.client.HTTPException):
            # A broken exchange is a failed op; reconnect for the next one.
            failed = time.perf_counter()
            self.connection.close()
            return Reply(0, None, sent, failed, failed)

    def close(self) -> None:
        self.connection.close()


def one_shot(server: ServerProcess, text: str, is_write: bool = False) -> Tuple[int, bytes]:
    """One request on a connection of its own (warm-up and checks, never timed).

    A fresh connection does not hit the keep-alive stall, so 256 warm-up
    texts take half a second and not eleven.
    """
    client = Client(server)
    try:
        reply = client.post(text, is_write)
        return reply.status, reply.body or b""
    finally:
        client.close()
