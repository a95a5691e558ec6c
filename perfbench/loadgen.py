"""Server process control and the closed-loop load generator.

Every client thread owns one keep-alive connection and waits for each
reply before it sends the next request (a closed loop): bulk uploaders
must see the ack before they may re-send under the all-or-nothing
ingest contract.  A request that fails — a non-2xx status or a
transport error — is recorded as failed and never re-sent.
"""

from __future__ import annotations

import http.client
import json
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from launcher import REQUEST_ID_HEADER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: no single request or process step may take longer than this
TIMEOUT_S = 60.0


def succeeded(status: int | None) -> bool:
    """A 2xx reply; ``None`` stands for a transport error."""
    return status is not None and 200 <= status < 300


@dataclass
class Op:
    """One request as the client saw it."""

    kind: str  # ingest | estimate | train | mine | healthz | gate
    request_id: str
    latency_s: float
    status: int | None  # None: transport error
    timed: bool
    records: int = 0

    @property
    def ok(self) -> bool:
        return succeeded(self.status)


@dataclass
class Ledger:
    """Every request of one pass, appended from many threads."""

    ops: list = field(default_factory=list)

    def timed(self, kind: str) -> list:
        return [op for op in self.ops if op.kind == kind and op.timed and op.ok]


class Client:
    """One keep-alive connection whose requests land in a :class:`Ledger`."""

    def __init__(self, port: int, name: str, ledger: Ledger) -> None:
        self.port = port
        self.name = name
        self.ledger = ledger
        self._seq = 0
        self._conn = self._connect()

    def _connect(self):
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)

    def request(
        self, kind: str, method: str, path: str, body: bytes | None = None,
        headers: dict | None = None, *, timed: bool = True, records: int = 0,
    ) -> tuple:
        """Send one request, wait for the whole reply; ``(status, data)``."""
        self._seq += 1
        request_id = f"{self.name}-{self._seq}"
        headers = {**(headers or {}), REQUEST_ID_HEADER: request_id}
        start = time.perf_counter()
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            # the connection's state is unknown: start a fresh one, and
            # leave the request counted as failed rather than re-sent
            self._conn.close()
            self._conn = self._connect()
            status, data = None, b""
        latency = time.perf_counter() - start
        self.ledger.ops.append(
            Op(kind, request_id, latency, status, timed, records)
        )
        return status, data

    def get(self, kind: str, path: str, **kwargs) -> tuple:
        return self.request(kind, "GET", path, **kwargs)

    def post_json(self, kind: str, path: str, payload: dict, **kwargs) -> tuple:
        return self.request(
            kind, "POST", path, json.dumps(payload).encode(),
            {"Content-Type": "application/json"}, **kwargs,
        )

    def post_body(self, body, *, timed: bool = True) -> bool:
        """``POST /ingest`` one encoded :class:`bodies.Body`; acked?"""
        headers = {"Content-Type": body.content_type}
        if body.codec != "identity":
            headers["Content-Encoding"] = body.codec
        status, _ = self.request(
            "ingest", "POST", "/ingest", body.payload, headers,
            timed=timed, records=body.records,
        )
        return succeeded(status)

    def close(self) -> None:
        self._conn.close()


def _read_line(proc, deadline: float) -> str:
    remaining = deadline - time.perf_counter()
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, remaining))
    if not ready:
        raise RuntimeError("server process did not report its port in time")
    return proc.stdout.readline().decode()


class ServerProcess:
    """A launcher process, timed from spawn to its first ``/healthz`` 200."""

    def __init__(self, spec: dict, *, train: bool, trace: bool) -> None:
        command = [
            sys.executable, str(HERE / "launcher.py"), "--spec", json.dumps(spec),
        ]
        if train:
            command.append("--train")
        if trace:
            command.append("--trace")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        try:
            line = _read_line(self.proc, start + TIMEOUT_S)
            if not line.startswith("PORT "):
                raise RuntimeError(f"unexpected launcher output {line!r}")
            self.port = int(line.split()[1])
            self.setup_s = self._wait_healthy(start)
        except BaseException:
            self.kill()
            raise

    def _wait_healthy(self, start: float) -> float:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return time.perf_counter() - start
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() - start > TIMEOUT_S:
                raise RuntimeError("server never answered GET /healthz")
            time.sleep(0.002)

    def status_kb(self, key: str) -> int:
        """A ``/proc/<pid>/status`` memory field (``VmHWM``, ``VmRSS``)."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
        raise RuntimeError(f"{key} missing from /proc/{self.proc.pid}/status")

    def stop(self) -> list | None:
        """Shut the server down; return its spans when it was traced.

        Callers close their connections first: the server joins its
        handler threads on shutdown, and an idle keep-alive socket
        would hold one open until the handler's read timeout.
        """
        try:
            out, _ = self.proc.communicate(input=b"", timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server process did not shut down in time")
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with code {self.proc.returncode}")
        for line in out.decode().splitlines():
            if line.startswith("SPANS "):
                return json.loads(line[len("SPANS "):])
        return None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

