"""Open-loop load against a ``repro serve`` subprocess.

The server runs in its own process, so the generator and the server
never share an interpreter lock. The generator is one asyncio process:
job ``i`` is due at ``start + i / rate`` whatever happened to the jobs
before it (open loop), and is timed from that due time, so a stall that
makes the generator send late is charged to the jobs it delayed. Jobs
can alternate between servers (the service and the benchmark's stand-in,
``standin.py``). At most ``nproc`` connections are open at once; both
servers close every connection after one response, so each request
opens a new one.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from calibration import CAL_REF_S, calibrate

#: Seconds a job may take from its due time before it counts as failed
#: (its latency is tens of milliseconds); every request the job makes
#: is cut off at that deadline, so a server that stops answering fails
#: the job instead of hanging the run.
JOB_TIMEOUT_S = 10.0

#: Seconds a queue-depth scrape of ``/v1/metrics`` may take.
SCRAPE_TIMEOUT_S = 5.0

_ANNOUNCE = re.compile(r"serving on http://[\d.]+:(\d+)")
_QUEUE_DEPTH = re.compile(r"^repro_serve_queue_depth(?:\{[^}]*\})?\s+(\S+)",
                          re.MULTILINE)


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    log_path: str
    setup_s: float = 0.0
    #: Reference calibration time ÷ the calibration around the launch.
    speed: float = 1.0

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process, MiB (read before it stops)."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM (the service drains), then wait; SIGKILL if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            return self.process.wait(timeout=30)


def launch_server(root: str, data_dir: str, env: Dict[str, str],
                  cpu: Optional[int] = None, trace_out: Optional[str] = None,
                  standin: bool = False) -> Server:
    """Start ``repro serve`` on an ephemeral port; time it until healthy.

    ``setup_s`` runs from just before the launch to the first 200 on
    ``/v1/healthz``. With ``cpu``, this process and the server are held
    to that core for the launch, and ``speed`` comes from calibrations on
    it just before and after. With ``trace_out`` the server runs under
    ``serve_trace.py``, which traces it; with ``standin`` the benchmark's
    stand-in service (``standin.py``) is started instead.
    """
    if standin:
        command = [sys.executable, os.path.join(root, "perfbench",
                                                "standin.py"), data_dir]
    elif trace_out is None:
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                   "--data-dir", data_dir]
    else:
        command = [sys.executable,
                   os.path.join(root, "perfbench", "serve_trace.py"),
                   trace_out, "serve", "--port", "0", "--data-dir", data_dir]
    log_path = data_dir + ".log"
    cores = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        before = calibrate()
        launched = time.monotonic()
        with open(log_path, "wb") as log:
            process = subprocess.Popen(command, cwd=root, env=env,
                                       stdout=log, stderr=log)
        server = Server(process, 0, log_path)
        try:
            _wait_healthy(server, launched)
        except BaseException:
            server.stop()
            raise
        if cpu is not None:
            server.speed = 2.0 * CAL_REF_S / (before + calibrate())
        return server
    finally:
        os.sched_setaffinity(0, cores)


def _wait_healthy(server: Server, launched: float) -> None:
    deadline = launched + 60.0
    while time.monotonic() < deadline:
        if server.process.poll() is not None:
            raise RuntimeError(
                f"server exited early: {_tail(server.log_path)}")
        if not server.port:
            with open(server.log_path, encoding="utf-8",
                      errors="replace") as fh:
                match = _ANNOUNCE.search(fh.read())
            if match:
                server.port = int(match.group(1))
        if server.port and _healthy(server.port):
            server.setup_s = time.monotonic() - launched
            return
        time.sleep(0.002)
    raise RuntimeError(
        f"server not healthy in 60 s: {_tail(server.log_path)}")


def _tail(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-400:]


def _healthy(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", "/v1/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------
@dataclass
class JobOutcome:
    index: int
    due: float
    sent: float = 0.0
    #: Client monotonic time at which the job was first seen terminal.
    seen: float = 0.0
    state: str = ""
    error: str = ""
    polls: int = 0
    submit_s: float = 0.0
    poll_s: List[float] = field(default_factory=list)
    result_s: float = 0.0
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    notify_lag_s: float = 0.0
    n_records: int = 0
    digest: str = ""
    records: Optional[List[Dict[str, Any]]] = None

    @property
    def ok(self) -> bool:
        return self.state == "done" and not self.error


async def _request(port: int, method: str, path: str,
                   payload: Optional[Dict[str, Any]], timeout: float
                   ) -> Tuple[int, bytes, float]:
    """One request on a new connection; ``asyncio.TimeoutError`` when the
    exchange takes more than ``timeout`` seconds."""
    return await asyncio.wait_for(_exchange(port, method, path, payload),
                                  max(0.0, timeout))


async def _exchange(port: int, method: str, path: str,
                    payload: Optional[Dict[str, Any]]
                    ) -> Tuple[int, bytes, float]:
    began = time.perf_counter()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n")
        if payload is not None:
            head += "Content-Type: application/json\r\n"
        writer.write(head.encode("ascii") + b"\r\n" + body)
        data = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass  # the server closed first
    status = int(data.split(b" ", 2)[1])
    return status, data.partition(b"\r\n\r\n")[2], time.perf_counter() - began


class LoadGenerator:
    """Job ``i`` goes to ``ports[i % len(ports)]``; ``rate`` is the total.

    With ``scrape``, the first port's queue depth is sampled from
    ``/v1/metrics`` while the jobs run.
    """

    def __init__(self, ports: List[int], documents: List[Dict[str, Any]],
                 rate: float, poll_s: float, connections: int,
                 keep_records: frozenset, scrape: bool = False) -> None:
        self.ports = ports
        self.scrape = scrape
        self.documents = documents
        self.rate = rate
        self.poll_s = poll_s
        self.connections = connections
        self.keep_records = keep_records
        self.queue_depths: List[float] = []
        self.outcomes: List[JobOutcome] = []
        self._jobs_done = False

    def run(self) -> List[JobOutcome]:
        asyncio.run(self._main())
        return self.outcomes

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._slots = asyncio.Semaphore(self.connections)
        start = loop.time() + 0.05
        self.outcomes = [JobOutcome(i, start + i / self.rate)
                         for i in range(len(self.documents))]
        jobs = [asyncio.create_task(self._job(o)) for o in self.outcomes]
        scraper = asyncio.create_task(self._scrape())
        try:
            await asyncio.gather(*jobs)
        finally:
            # A flag, not scraper.cancel(): before Python 3.12, a cancel
            # that arrives as a wait_for in the scrape completes is lost,
            # and the scraper would run forever.
            self._jobs_done = True
            await scraper

    async def _call(self, port: int, method: str, path: str, timeout: float):
        async with self._slots:
            return await _request(port, method, path, None, timeout)

    async def _scrape(self) -> None:
        """Sample the service's queue depth from ``/v1/metrics``."""
        while self.scrape and not self._jobs_done:
            await asyncio.sleep(0.2)
            try:
                status, body, _ = await self._call(
                    self.ports[0], "GET", "/v1/metrics", SCRAPE_TIMEOUT_S)
            except (OSError, asyncio.TimeoutError):
                continue  # a missed sample; the jobs report their own errors
            match = _QUEUE_DEPTH.search(body.decode("utf-8", "replace"))
            if status == 200 and match:
                self.queue_depths.append(float(match.group(1)))

    async def _job(self, out: JobOutcome) -> None:
        loop = asyncio.get_running_loop()
        port = self.ports[out.index % len(self.ports)]
        deadline = out.due + JOB_TIMEOUT_S
        await asyncio.sleep(max(0.0, out.due - loop.time()))
        try:
            async with self._slots:
                out.sent = loop.time()
                status, body, out.submit_s = await _request(
                    port, "POST", "/v1/jobs",
                    self.documents[out.index], deadline - loop.time())
            if status != 202:
                out.error = f"submit refused: {status} {body[:200]!r}"
                return
            job_id = json.loads(body)["id"]
            while True:
                await asyncio.sleep(self.poll_s)
                status, body, seconds = await self._call(
                    port, "GET", f"/v1/jobs/{job_id}", deadline - loop.time())
                out.polls += 1
                out.poll_s.append(seconds)
                if status != 200:
                    out.error = f"poll failed: {status}"
                    return
                job = json.loads(body)
                if job["state"] in ("done", "failed", "cancelled"):
                    out.seen = loop.time()
                    seen_wall = time.time()
                    break
                if loop.time() > deadline:
                    out.error = "timed out"
                    return
            out.state = job["state"]
            if out.state != "done":
                out.error = f"job {out.state}: {job.get('error')}"
                return
            out.queue_wait_s = job["started"] - job["created"]
            out.run_s = job["finished"] - job["started"]
            out.notify_lag_s = seen_wall - job["finished"]
            status, body, out.result_s = await self._call(
                port, "GET", f"/v1/jobs/{job_id}/result",
                deadline - loop.time())
            if status != 200:
                out.error = f"result fetch failed: {status}"
                return
            records = json.loads(body)["records"]
            out.n_records = len(records)
            out.digest = hashlib.blake2b(
                json.dumps(records, sort_keys=True).encode(), digest_size=16
            ).hexdigest()
            if out.index in self.keep_records:
                out.records = records
        except asyncio.TimeoutError:
            out.error = f"timed out: no answer {JOB_TIMEOUT_S:g} s after due"
        except (OSError, ValueError, KeyError) as exc:
            out.error = f"{type(exc).__name__}: {exc}"


def verify_sample(documents: List[Dict[str, Any]],
                  outcomes: List[JobOutcome]) -> List[Tuple[int, bool]]:
    """(job index, records equal?) for every sampled job.

    Each sampled job's document is compiled and run through
    ``run_experiment`` in this process; its records must equal the
    records the service returned, field for field.
    """
    from repro.feast.runner import run_experiment
    from repro.serve.jobs import compile_job

    verdicts = []
    for out in outcomes:
        if out.records is None:
            continue
        result = run_experiment(compile_job(documents[out.index]))
        expected = json.loads(json.dumps(
            [record.as_dict() for record in result.records]))
        verdicts.append((out.index, expected == out.records))
    return verdicts
