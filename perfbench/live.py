"""The ``live_gateway`` workload: an unmodified ``repro serve`` under load.

One asyncio process generates all load over at most ``nproc``
keep-alive connections and starts no threads, so the numbers measure the
server rather than the operating system's thread scheduler.

A *contact* is one scheduler RPC for one host identity, carrying the
host's pending reports, followed by the work of every task it was given:
checksum-verified downloads of the task's inputs and uploads of its
outputs.  Outputs are precomputed during set-up with ``LocalRunner`` (the
engine a real volunteer runs), so the uploaded bytes are exactly what a
volunteer would send and no map/reduce work happens while the clock runs.
Hosts holding reports contact again first; otherwise contacts rotate over
the registered population.

A run sets up ``setups`` times (server spawn, ``/healthz``, host
registration, first job accepted), keeps the last server and then runs
``cycles_per_s`` x half of ``--seconds`` cycles, each of:

1. an open-loop segment: contacts due at seeded Poisson arrivals of
   ``open_rate`` per second, for half of ``--seconds`` shared out over
   the cycles; each scheduler RPC is timed from when it was due.  It
   works through ``backlog_jobs`` jobs submitted just before it;
2. an untimed drain of whatever backlog the segment left;
3. a closed-loop round: ``round_jobs`` jobs submitted together, then one
   contact outstanding per connection until every one of them sealed.

Every round does the same work from the same empty state, so the median
round time (``wall_s``) does not depend on how one run's contacts
happened to fall; its jobs give ``job_turnaround_s``.  The machine's
speed drifts over seconds, so both kinds of measurement alternate
through the whole run rather than taking one half each.

Every sealed job is compared with the ``LocalRunner`` oracle and must have
assimilated each workunit exactly once.
"""

from __future__ import annotations

import asyncio
import collections
import gc
import json
import os
import random
import signal
import subprocess
import sys
import time
import zlib

JSON_HEADERS = {"Content-Type": "application/json"}
#: Stop waiting for a phase after this many seconds (counted as failures).
PHASE_TIMEOUT_S = 60.0


def crc(data: bytes) -> str:
    """The wire checksum (``crc32:<8 hex>``), computed independently."""
    return f"crc32:{zlib.crc32(data) & 0xFFFFFFFF:08x}"


def dumps(payload) -> bytes:
    """Compact JSON for request bodies."""
    return json.dumps(payload, separators=(",", ":")).encode()


class Conn:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        """Unopened connection to *host*:*port*."""
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        """Connect."""
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        """Close the socket (idempotent)."""
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None

    async def request(self, method: str, path: str, body: bytes = b"",
                      headers: dict[str, str] | None = None
                      ) -> tuple[int, dict[str, str], bytes]:
        """One request/response exchange."""
        head = [f"{method} {path} HTTP/1.1", f"Content-Length: {len(body)}"]
        if headers:
            head += [f"{k}: {v}" for k, v in headers.items()]
        self.writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                          + body)
        reader = self.reader
        line = await reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        status = int(line.split()[1])
        resp: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            resp[name.strip().lower()] = value.strip()
        length = int(resp.get("content-length", "0"))
        payload = await reader.readexactly(length) if length else b""
        return status, resp, payload


class Pool:
    """Connections handed to waiters strictly first come, first served.

    ``asyncio.Queue`` lets a coroutine that releases a connection take it
    straight back before a woken waiter runs, which starves job-status
    polls in the closed loop; here a release hands the connection to the
    oldest waiter directly.
    """

    def __init__(self) -> None:
        """An empty pool."""
        self.idle: list[Conn] = []
        self.waiters: collections.deque[asyncio.Future] = collections.deque()

    async def get(self) -> Conn:
        """The next connection, in arrival order."""
        if self.idle and not self.waiters:
            return self.idle.pop()
        fut = asyncio.get_running_loop().create_future()
        self.waiters.append(fut)
        return await fut

    def put(self, conn: Conn) -> None:
        """Release *conn* to the oldest waiter, else to the idle list."""
        while self.waiters:
            fut = self.waiters.popleft()
            if not fut.done():
                fut.set_result(conn)
                return
        self.idle.append(conn)


class Corpus:
    """One job input with every task output precomputed by LocalRunner."""

    def __init__(self, shape, seed: int) -> None:
        """Generate the corpus for *seed* and run every task on it."""
        import pickle

        from repro.gateway.jobs import canonical_payload, resolve_app
        from repro.runtime.engine import LocalRunner
        from repro.runtime.splitter import split_text
        from repro.workloads import generate_corpus

        self.seed = seed
        data = generate_corpus(shape.corpus_bytes, seed=seed)
        runner = LocalRunner(resolve_app("wordcount"), n_maps=shape.n_maps,
                             n_reducers=shape.n_reducers)
        self.chunks = split_text(data, shape.n_maps)
        self.parts: list[dict[int, bytes]] = []
        for i, chunk in enumerate(self.chunks):
            _report, blobs = runner.run_map_task(i, chunk)
            self.parts.append(blobs)
        self.reduce_out: list[bytes] = []
        merged: dict = {}
        for r in range(shape.n_reducers):
            _report, output = runner.run_reduce_task(
                r, [self.parts[i][r] for i in range(shape.n_maps)])
            self.reduce_out.append(pickle.dumps(output))
            merged.update(output)
        self.oracle = canonical_payload(merged)


class Job:
    """Client-side book-keeping for one submitted job."""

    def __init__(self, name: str, corpus: Corpus, phase: str,
                 submitted: float) -> None:
        """A job just accepted by the server."""
        self.name = name
        self.corpus = corpus
        self.phase = phase
        self.submitted = submitted
        self.reduce_reports = 0
        self.sealed: float | None = None
        self.expected: dict[str, bytes] = {}


class Host:
    """One registered volunteer identity."""

    __slots__ = ("id", "pending", "busy")

    def __init__(self, host_id: int) -> None:
        """A host with nothing to report."""
        self.id = host_id
        #: (report, job name, task kind) awaiting the next contact.
        self.pending: list[tuple[dict, str, str]] = []
        self.busy = False


class LoadGen:
    """The single-process load generator and its correctness checks."""

    def __init__(self, shape, seed: int, corpora: list[Corpus],
                 address: tuple[str, int], n_conns: int) -> None:
        """A generator for one server at *address*."""
        from repro.gateway.jobs import (chunk_blob_name, partition_blob_name,
                                        reduce_blob_name)

        self._chunk_name = chunk_blob_name
        self._part_name = partition_blob_name
        self._reduce_name = reduce_blob_name
        self.shape = shape
        self.seed = seed
        self.rng = random.Random(f"live/{seed}")
        self.corpora = corpora
        self.address = address
        self.n_conns = n_conns
        self.pool = Pool()
        self.conns: list[Conn] = []
        self.hosts: list[Host] = []
        self.ready: collections.deque[Host] = collections.deque()
        self.cursor = 0
        self.jobs: dict[str, Job] = {}
        self.job_seq = 0
        self.phase = "setup"
        self.tasks: set[asyncio.Task] = set()
        self.attempted = 0
        self.failures: collections.Counter[str] = collections.Counter()
        self.refused = 0
        self.contact_seq = 0
        #: (phase, latency_s) per scheduler RPC; open-loop ones from due.
        self.rpc_lat: list[tuple[str, float]] = []
        self.data_lat: list[tuple[str, float]] = []
        self.late: list[float] = []
        self.contacts = collections.Counter()
        self.contacts_with_work = 0
        #: Each scheduler RPC from leaving its connection to its reply:
        #: (contact, start, end), matched with the server's span.
        self.rpc_spans: list[tuple[str, float, float]] = []

    # -- plumbing ----------------------------------------------------------------
    async def connect(self) -> None:
        """Open the connection pool."""
        for _ in range(self.n_conns):
            conn = Conn(*self.address)
            await conn.open()
            self.conns.append(conn)
            self.pool.put(conn)

    async def close(self) -> None:
        """Close every connection."""
        for conn in self.conns:
            await conn.close()

    def fail(self, why: str) -> None:
        """Count one failed operation."""
        self.failures[why] += 1

    async def call(self, method: str, path: str, body: bytes = b"",
                   headers: dict[str, str] | None = None,
                   sent: list[float] | None = None
                   ) -> tuple[int, dict[str, str], bytes]:
        """One counted request on the next free pooled connection.

        Each request takes a connection for itself only, so a scheduler
        RPC waits behind the requests already in flight, not behind the
        whole transfer chain of another contact.  503 refusals, other
        errors and broken connections (status 0) are failures.  *sent*,
        when given, receives the time the request left on its connection.
        """
        self.attempted += 1
        conn = await self.pool.get()
        if sent is not None:
            sent.append(time.perf_counter())
        try:
            status, hdrs, payload = await conn.request(method, path, body,
                                                       headers)
        except (ConnectionError, asyncio.IncompleteReadError,
                ValueError) as exc:
            self.fail(f"error {type(exc).__name__}")
            await conn.close()
            await conn.open()
            return 0, {}, b""
        finally:
            self.pool.put(conn)
        if status == 503:
            self.refused += 1
            self.fail("refused")
        elif status != 200:
            self.fail(f"http {status} {path.split('/')[1]}")
        return status, hdrs, payload

    def spawn(self, coro) -> None:
        """Run *coro* as a task the generator keeps and later awaits."""
        task = asyncio.get_running_loop().create_task(coro)
        self.tasks.add(task)
        task.add_done_callback(self._reap)

    def _reap(self, task: asyncio.Task) -> None:
        self.tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self.fail(f"error {type(task.exception()).__name__}")

    # -- set-up ------------------------------------------------------------------
    async def register(self) -> None:
        """Register the host population over every connection."""
        names = [f"bench-{self.seed}-{i}" for i in range(self.shape.hosts)]
        ids: list[int | None] = [None] * len(names)

        async def worker(offset: int) -> None:
            for i in range(offset, len(names), self.n_conns):
                status, _, payload = await self.call(
                    "POST", "/rpc/register", dumps({
                        "name": names[i], "flops": 1e9,
                        "supports_mr": True}), JSON_HEADERS)
                if status == 200:
                    ids[i] = json.loads(payload)["host_id"]

        await asyncio.gather(*(worker(k) for k in range(self.n_conns)))
        self.hosts = [Host(h) for h in ids if h is not None]

    async def submit(self) -> Job | None:
        """Submit the next job of the cycle; None when it was refused."""
        k = self.job_seq
        self.job_seq += 1
        corpus = self.corpora[k % len(self.corpora)]
        name = f"bench{self.seed}-{k}"
        shape = self.shape
        body = dumps({"name": name, "app": "wordcount",
                      "n_maps": shape.n_maps, "n_reducers": shape.n_reducers,
                      "replication": shape.replication,
                      "quorum": shape.replication,
                      "corpus": {"size": shape.corpus_bytes,
                                 "seed": corpus.seed}})
        t0 = time.perf_counter()
        status, _, _ = await self.call("POST", "/jobs", body, JSON_HEADERS)
        if status != 200:
            return None
        job = Job(name, corpus, self.phase, t0)
        for i, chunk in enumerate(corpus.chunks):
            job.expected[self._chunk_name(name, i)] = chunk
            for r, blob in corpus.parts[i].items():
                job.expected[self._part_name(name, i, r)] = blob
        self.jobs[name] = job
        return job

    # -- contacts ----------------------------------------------------------------
    def next_host(self) -> Host:
        """A host with reports to flush, else the next idle one in turn."""
        while self.ready:
            host = self.ready.popleft()
            if not host.busy:
                return host
        hosts = self.hosts
        while True:
            host = hosts[self.cursor]
            self.cursor = (self.cursor + 1) % len(hosts)
            if not host.busy:
                return host

    async def contact(self, due: float | None) -> float:
        """One contact; returns its scheduler-RPC latency.

        An open-loop contact is timed from *due*, when it should have
        been sent; a closed-loop one from when its request was sent.
        """
        host = self.next_host()
        host.busy = True
        self.contact_seq += 1
        cid = f"{self.seed}.{self.contact_seq}"
        phase = self.phase
        reports, host.pending = host.pending, []
        try:
            work_req = 1.0 if self.rng.random() < self.shape.work_frac \
                else 0.0
            body = dumps({"host_id": host.id, "work_req_s": work_req,
                          "reports": [rep for rep, _job, _kind in reports]})
            t0 = time.perf_counter()
            sent: list[float] = []
            status, _, payload = await self.call(
                "POST", "/rpc/scheduler", body,
                {"Content-Type": "application/json", "X-Contact-Id": cid},
                sent)
            t1 = time.perf_counter()
            latency = t1 - (due if due is not None else t0)
            self.rpc_lat.append((phase, latency))
            self.rpc_spans.append((cid, sent[0], t1))
            self.contacts[phase] += 1
            if status != 200:
                host.pending = reports + host.pending
                return latency
            self._note_reports(reports)
            assignments = json.loads(payload)["assignments"]
            if assignments:
                self.contacts_with_work += 1
            for task in assignments:
                report = await self.execute(task, cid, phase)
                if report is not None:
                    host.pending.append(report)
            return latency
        finally:
            host.busy = False
            if host.pending:
                self.ready.append(host)

    def _note_reports(self, reports: list[tuple[dict, str, str]]) -> None:
        """Delivered reports: start polling jobs whose reduces all landed."""
        for _rep, name, kind in reports:
            job = self.jobs.get(name)
            if job is None or kind != "reduce":
                continue
            job.reduce_reports += 1
            if job.reduce_reports == self.shape.n_reducers * \
                    self.shape.replication:
                self.spawn(self.await_seal(job))

    async def execute(self, task: dict, cid: str,
                      phase: str) -> tuple[dict, str, str] | None:
        """Download a task's inputs, upload its precomputed outputs."""
        t_start = time.perf_counter()
        job = self.jobs.get(task["job"])
        if job is None:
            self.fail("task of an unknown job")
            return None
        index = task["index"]
        if task["kind"] == "map":
            outputs = [(self._part_name(job.name, index, r), blob)
                       for r, blob in sorted(job.corpus.parts[index].items())]
        else:
            outputs = [(self._reduce_name(job.name, index),
                        job.corpus.reduce_out[index])]
        headers = {"X-Contact-Id": cid}
        for name in task["input_files"]:
            t0 = time.perf_counter()
            status, hdrs, data = await self.call("GET", f"/data/{name}",
                                                 b"", headers)
            self.data_lat.append((phase, time.perf_counter() - t0))
            if status != 200:
                return None
            if hdrs.get("x-checksum") != crc(data):
                self.fail("download checksum")
            elif data != job.expected.get(name):
                self.fail("download bytes differ from the input")
        rid = task["result_id"]
        for name, blob in outputs:
            t0 = time.perf_counter()
            status, _, _ = await self.call(
                "POST", f"/upload/{rid}/{name}", blob,
                {"Content-Type": "application/octet-stream",
                 "X-Checksum": crc(blob), "X-Contact-Id": cid})
            self.data_lat.append((phase, time.perf_counter() - t0))
            if status != 200:
                return None
        report = {"result_id": rid, "success": True,
                  "elapsed_s": time.perf_counter() - t_start,
                  "digest": crc(b"".join(blob for _, blob in outputs)),
                  "output_files": [{"name": n, "size": len(b)}
                                   for n, b in outputs]}
        return report, job.name, task["kind"]

    async def await_seal(self, job: Job) -> None:
        """Poll until *job* seals, then check it against the oracle."""
        shape = self.shape
        while True:
            await asyncio.sleep(0.005)
            status, _, payload = await self.call("GET", f"/jobs/{job.name}")
            if status != 200:
                return
            doc = json.loads(payload)
            if doc["state"] != "running":
                break
        job.sealed = time.perf_counter()
        if doc["state"] != "done":
            self.fail("job failed")
            return
        if doc["assimilated"] != shape.n_maps + shape.n_reducers:
            self.fail("lost or duplicated results")
        status, _, output = await self.call("GET", f"/jobs/{job.name}/output")
        self.attempted += 1  # the oracle comparison itself
        if status == 200 and output != job.corpus.oracle:
            self.fail("output differs from the LocalRunner oracle")
        job.expected.clear()


# -- load cycles ----------------------------------------------------------------

async def open_loop(gen: LoadGen, duration: float, rate: float,
                    segment: int) -> float:
    """One seeded Poisson open-loop segment; returns its length."""
    gen.phase = "open"
    rng = random.Random(f"open/{gen.seed}/{segment}")
    offsets = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    start = time.perf_counter()
    contacts = []
    loop = asyncio.get_running_loop()
    for offset in offsets:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        gen.late.append(time.perf_counter() - due)
        contacts.append(loop.create_task(gen.contact(due)))
    await asyncio.wait_for(asyncio.gather(*contacts), PHASE_TIMEOUT_S)
    return max(time.perf_counter(), start + duration) - start


async def closed_round(gen: LoadGen, round_jobs: int, limit_s: float
                       ) -> tuple[float, int, int]:
    """One closed-loop round of *round_jobs* jobs, run to the end.

    Returns the round's duration, from submitting its jobs until the last
    is seen sealed, its contact count and the contacts that met *limit_s*.
    """
    gen.phase = "closed"
    good = contacts = 0
    r0 = time.perf_counter()
    jobs = [job for job in [await gen.submit() for _ in range(round_jobs)]
            if job]

    async def worker() -> None:
        nonlocal good, contacts
        while any(job.sealed is None for job in jobs):
            contacts += 1
            if await gen.contact(None) <= limit_s:
                good += 1

    await asyncio.wait_for(
        asyncio.gather(*(worker() for _ in range(gen.n_conns))),
        PHASE_TIMEOUT_S)
    return max((job.sealed for job in jobs), default=r0) - r0, contacts, good


async def drain(gen: LoadGen, timeout_s: float) -> None:
    """Keep contacting until every submitted job sealed (or time is up)."""
    gen.phase = "drain"
    deadline = time.perf_counter() + timeout_s
    while any(job.sealed is None for job in gen.jobs.values()):
        if time.perf_counter() > deadline:
            break
        await gen.contact(None)
    if gen.tasks:
        await asyncio.wait_for(asyncio.gather(*list(gen.tasks)), 10.0)


# -- servers ---------------------------------------------------------------------

class Server:
    """A gateway process: ``python -m repro serve`` or the traced launcher."""

    def __init__(self, root: str, out_dir: str, tag: str,
                 spans_out: str | None) -> None:
        """Start the process and wait for its listening address."""
        import select

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH"))
            if p)
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            cmd = [sys.executable, os.path.join(os.path.dirname(
                os.path.abspath(__file__)), "gw_launcher.py"), spans_out]
        self.log = open(os.path.join(out_dir, f"server-{tag}.log"), "w")
        # A shell may start background jobs with SIGINT ignored, which the
        # server would inherit; restore the default so ctrl-c stops it.
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
            text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        if "serving on" not in line:
            self.stop()
            raise RuntimeError(f"gateway did not start: {line!r}")
        host, _, port = line.split("serving on", 1)[1].split()[0] \
            .rpartition(":")
        self.address = (host, int(port))

    def stop(self) -> None:
        """Interrupt the server (as ctrl-c would) and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


async def set_up(shape, seed: int, corpora: list[Corpus], root: str,
                 out_dir: str, tag: str, spans_out: str | None,
                 n_conns: int) -> tuple[Server, LoadGen, float]:
    """Spawn a server and make it ready for load; returns its set-up time."""
    t0 = time.perf_counter()
    server = Server(root, out_dir, tag, spans_out)
    gen = LoadGen(shape, seed, corpora, server.address, n_conns)
    try:
        await gen.connect()
        status, _, _ = await gen.call("GET", "/healthz")
        if status != 200:
            raise RuntimeError("healthz failed")
        await gen.register()
        await gen.submit()
    except BaseException:
        await gen.close()
        server.stop()
        raise
    return server, gen, time.perf_counter() - t0


async def measured_run(shape, seed: int, seconds: float, corpora, root: str,
                       out_dir: str, tag: str, spans_out: str | None,
                       n_conns: int, extra_setups: int) -> dict:
    """Set-ups, then the measured cycles against one kept server."""
    setups = []
    for k in range(extra_setups):
        server, gen, s = await set_up(shape, seed, corpora, root, out_dir,
                                      f"{tag}-setup{k}", None, n_conns)
        setups.append(s)
        await gen.close()
        server.stop()
    server, gen, s = await set_up(shape, seed, corpora, root, out_dir, tag,
                                  spans_out, n_conns)
    setups.append(s)
    open_s = 0.0
    rounds: list[float] = []
    contacts = good = backlog_left = 0
    cpu = 0.0
    try:
        # The generator's own collector pauses would read as server
        # latency; its set-up objects are frozen and collection waits.
        gc.collect()
        gc.freeze()
        gc.disable()
        n_cycles = max(1, round(shape.cycles_per_s * seconds / 2))
        start = time.perf_counter()
        for k in range(n_cycles):
            # Segments draw on a backlog submitted just before them:
            # creating a job blocks the server's event loop for tens of
            # milliseconds, and a handful of such stalls landing in the
            # open loop would decide its tail.
            gen.phase = "open"
            for _ in range(shape.backlog_jobs):
                await gen.submit()
            open_s += await open_loop(gen, seconds / 2 / n_cycles,
                                      shape.open_rate, k)
            backlog_left += sum(job.sealed is None
                                for job in gen.jobs.values())
            await drain(gen, 20.0)
            cpu0 = time.process_time()
            duration, n, ok = await closed_round(gen, shape.round_jobs,
                                                 shape.rpc_limit_ms / 1e3)
            cpu += time.process_time() - cpu0
            rounds.append(duration)
            contacts += n
            good += ok
        end = time.perf_counter()
        await drain(gen, 20.0)
        for job in gen.jobs.values():
            if job.sealed is None:
                gen.fail("job not sealed")
        _, _, payload = await gen.call("GET", "/status")
        counters = json.loads(payload)["counters"]
    finally:
        gc.enable()
        gc.unfreeze()
        await gen.close()
        server.stop()
    return {"gen": gen, "setups": setups, "window": (start, end),
            "open_s": open_s, "rounds": rounds, "closed_s": sum(rounds),
            "closed_contacts": contacts, "closed_good": good,
            "client_cpu_s": cpu, "counters": counters,
            "backlog_left": backlog_left}
