"""A stand-in job service that belongs to the benchmark, not the program.

Usage: ``python perfbench/standin.py DATA_DIR``; prints ``serving on
http://127.0.0.1:PORT`` once it listens and exits 0 on SIGTERM.

It answers the same requests as ``repro serve`` (``POST /v1/jobs``,
``GET /v1/jobs/{id}``, ``GET /v1/jobs/{id}/result``, ``GET
/v1/healthz``) and gives each job the same kind of life, in the same
shape of process: an asyncio thread that parses HTTP and reads and
writes SQLite (WAL, ``synchronous=FULL``), and a pool of two worker
threads that mark the job running, create its journal, run two chunks
(fixed CPU work, an fsynced journal line and a progress commit each),
write the result atomically and mark the job done: the same commits and
fsyncs, and about the same CPU time, as a reference job in the service. Its
latency therefore moves with the host the way the service's does —
slower cores, late wake-ups, slow fsyncs — while no change to the
program can move it. ``serve-open-loop`` sends it jobs between the
service's and reports the service's latency against it (README.md,
"Noise").
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import sqlite3
import sys
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor

#: Nodes of the DAG :func:`schedule_work` places per chunk of a job (two
#: chunks) and per submission: about the CPU time the service spends on
#: a reference job's chunks and on checking its document.
CHUNK_NODES = 400
SUBMIT_NODES = 80

_JOB = re.compile(r"^/v1/jobs/([0-9a-f]+)(/result)?$")


def schedule_work(nodes: int) -> str:
    """Greedy earliest-start placement of a fixed random DAG on 4 cores,
    returned as JSON records.

    Fresh lists, dicts, tuples and strings on every call, as the
    service's solver and record encoding make: a small kernel that stays
    in cache slows less than the service when a neighbour crowds the
    host.
    """
    rng = random.Random(nodes)
    preds = [rng.sample(range(i), min(i, 3)) for i in range(nodes)]
    cost = [rng.uniform(1.0, 20.0) for _ in range(nodes)]
    finish = {}
    available = [0.0] * 4
    for j in range(nodes):
        best_start, best_p = None, 0
        for p in range(4):
            start = available[p]
            for q in preds[j]:
                done, on = finish[q]
                arrive = done if on == p else done + 2.5
                if arrive > start:
                    start = arrive
            if best_start is None or start < best_start:
                best_start, best_p = start, p
        finish[j] = (best_start + cost[j], best_p)
        available[best_p] = best_start + cost[j]
    return json.dumps([{"node": j, "finish": f, "on": p}
                       for j, (f, p) in finish.items()])


class StandIn:
    def __init__(self, data_dir: str) -> None:
        os.makedirs(data_dir)
        self.data_dir = data_dir
        self.lock = threading.Lock()
        self.db = sqlite3.connect(os.path.join(data_dir, "jobs.sqlite3"),
                                  check_same_thread=False,
                                  isolation_level=None)
        self.db.execute("PRAGMA journal_mode=WAL")
        self.db.execute("PRAGMA synchronous=FULL")
        self.db.execute("CREATE TABLE jobs (id TEXT PRIMARY KEY, "
                        "document TEXT, state TEXT, created REAL, "
                        "started REAL, finished REAL, done INTEGER)")
        self.workers = ThreadPoolExecutor(max_workers=2)

    def _write(self, sql: str, *args) -> None:
        with self.lock:
            self.db.execute(sql, args)

    def _row(self, job_id: str):
        with self.lock:
            return self.db.execute(
                "SELECT state, created, started, finished FROM jobs "
                "WHERE id = ?", (job_id,)).fetchone()

    def run_job(self, job_id: str) -> None:
        self._write("UPDATE jobs SET state = 'running', started = ? "
                    "WHERE id = ?", time.time(), job_id)
        journal = os.path.join(self.data_dir, job_id + ".ckpt")
        fd = os.open(journal, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            self._fsync_dir()
            for chunk in range(2):
                schedule_work(CHUNK_NODES)
                os.write(fd, json.dumps({"chunk": chunk}).encode() + b"\n")
                os.fsync(fd)
                self._write("UPDATE jobs SET done = ? WHERE id = ?",
                            chunk + 1, job_id)
        finally:
            os.close(fd)
        result = self._result_path(job_id)
        with open(result + ".tmp", "w", encoding="utf-8") as fh:
            json.dump({"records": [{"chunk": 0}, {"chunk": 1}]}, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(result + ".tmp", result)
        self._fsync_dir()
        self._write("UPDATE jobs SET state = 'done', finished = ? "
                    "WHERE id = ?", time.time(), job_id)

    def _result_path(self, job_id: str) -> str:
        return os.path.join(self.data_dir, job_id + ".result")

    def _fsync_dir(self) -> None:
        fd = os.open(self.data_dir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            method, path = head.decode("latin-1").split(" ", 2)[:2]
            length = re.search(rb"(?i)content-length:\s*(\d+)", head)
            body = await reader.readexactly(int(length.group(1))
                                            if length else 0)
            status, payload = self.route(method, path, body)
            data = json.dumps(payload).encode()
            writer.write(f"HTTP/1.1 {status} X\r\nContent-Type: "
                         f"application/json\r\nContent-Length: {len(data)}"
                         f"\r\nConnection: close\r\n\r\n".encode() + data)
            await writer.drain()
        except (OSError, asyncio.IncompleteReadError, ValueError):
            pass
        finally:
            writer.close()

    def route(self, method: str, path: str, body: bytes):
        if method == "GET" and path == "/v1/healthz":
            return 200, {"status": "ok"}
        if method == "POST" and path == "/v1/jobs":
            document = json.loads(body)
            schedule_work(SUBMIT_NODES)
            job_id = uuid.uuid4().hex[:16]
            self._write("INSERT INTO jobs VALUES (?, ?, 'queued', ?, NULL, "
                        "NULL, 0)", job_id, json.dumps(document), time.time())
            self.workers.submit(self.run_job, job_id)
            return 202, {"id": job_id, "state": "queued"}
        match = _JOB.match(path)
        row = self._row(match.group(1)) if match and method == "GET" else None
        if row is None:
            return 404, {"error": "not found"}
        if match.group(2):
            with open(self._result_path(match.group(1)),
                      encoding="utf-8") as fh:
                return 200, json.load(fh)
        state, created, started, finished = row
        return 200, {"id": match.group(1), "state": state, "created": created,
                     "started": started, "finished": finished}


async def serve(data_dir: str) -> None:
    standin = StandIn(data_dir)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    server = await asyncio.start_server(standin.handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(f"serving on http://127.0.0.1:{port}", flush=True)
    await stop.wait()
    server.close()
    await server.wait_closed()
    standin.workers.shutdown(wait=True)
    standin.db.close()


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1]))
