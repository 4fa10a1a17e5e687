"""Client side of the `server` workload: process control for
`ethpos-cli serve`, a raw HTTP/1.1 client that times connect, first byte
and transfer, and the closed loop."""

import json
import os
import random
import re
import select
import socket
import statistics
import subprocess
import threading
import time

from measure import Spans

ANNOUNCE = re.compile(rb"ethpos-server listening on http://([0-9.]+):([0-9]+)")


class Response:
    def __init__(self, status, body, t_start, t_connected, t_first_byte, t_end):
        self.status = status
        self.body = body
        self.t_start = t_start
        self.t_connected = t_connected
        self.t_first_byte = t_first_byte
        self.t_end = t_end

    def json(self):
        return json.loads(self.body)


def exchange(addr, method, path, body=b"", timeout=30.0):
    """One request on its own connection (the server speaks
    `Connection: close`), timed at connect, first byte and last byte."""
    t_start = time.perf_counter()
    with socket.create_connection(addr, timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        t_connected = time.perf_counter()
        head = f"{method} {path} HTTP/1.1\r\nhost: perfbench\r\n"
        if method == "POST":
            head += f"content-length: {len(body)}\r\n"
        sock.sendall(head.encode() + b"\r\n" + body)
        chunks = [sock.recv(1 << 16)]
        t_first_byte = time.perf_counter()
        while chunks[-1]:
            chunks.append(sock.recv(1 << 20))
        t_end = time.perf_counter()
    raw = b"".join(chunks)
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    parts = status_line.split(b" ")
    status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
    return Response(status, payload, t_start, t_connected, t_first_byte, t_end)


class ServerProcess:
    """One `ethpos-cli serve` process on an ephemeral port."""

    def __init__(self, binary, cache_dir, threads):
        self.cmd = [binary, "serve", "--addr", "127.0.0.1:0", "--cache-dir", cache_dir,
                    "--threads", str(threads)]
        self.proc = None
        self.addr = None

    def start(self, timeout=30.0):
        """Spawns the server and waits for the first `/healthz` 200.
        Returns the set-up time in seconds (spawn to healthy)."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, bufsize=0)
        deadline = t0 + timeout
        line = b""
        while b"\n" not in line:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
            chunk = os.read(self.proc.stdout.fileno(), 4096) if ready else b""
            if not chunk:
                self.stop()
                raise RuntimeError(f"server did not announce its address: {line!r}")
            line += chunk
        match = ANNOUNCE.search(line)
        if not match:
            self.stop()
            raise RuntimeError(f"unexpected server announcement: {line!r}")
        self.addr = (match.group(1).decode(), int(match.group(2)))
        while True:
            try:
                if exchange(self.addr, "GET", "/healthz", timeout=5).status == 200:
                    return time.perf_counter() - t0
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.0002)

    def cpu_seconds(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def metrics(self):
        """The live `/metrics` scrape as {series: value} (labels kept)."""
        out = {}
        for line in exchange(self.addr, "GET", "/metrics").body.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                out[name] = float(value)
        return out

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


# Time between polls of a queued or running job. The server spawns a
# thread per connection, so every poll is work of its own there, and on a
# shared host that work slows far more in a busy phase than the job does;
# a cold preset job takes ~20 ms, so 5 ms means about four polls a job.
# The random first poll (see `closed_loop`) keeps the step out of the
# median.
POLL_S = 0.005


def submit_and_wait(addr, body, timeout=300.0, first_poll=POLL_S / 2):
    """Submits a request and polls its job to the end: first `first_poll`
    after the submit reply, then POLL_S after each poll's reply.

    Returns (document, submit response, observation) where observation
    holds the poll timestamps: `submitted`, `started` (first poll that
    saw the job running or done), `done`, and `polls`.
    """
    submit = exchange(addr, "POST", "/v1/jobs", body)
    if submit.status == 200:
        return submit.json()["document"], submit, None
    if submit.status != 202:
        raise RuntimeError(f"submit answered {submit.status}: {submit.body[:200]!r}")
    job = submit.json()["job"]
    observed = {"submitted": submit.t_end, "started": None, "done": None, "polls": 0}
    delay = first_poll
    deadline = submit.t_end + timeout
    while True:
        time.sleep(delay)
        delay = POLL_S
        poll = exchange(addr, "GET", f"/v1/jobs/{job}")
        observed["polls"] += 1
        if poll.status != 200:
            raise RuntimeError(f"job {job} status answered {poll.status}")
        state = poll.json()
        if state["status"] != "queued" and observed["started"] is None:
            observed["started"] = poll.t_end
        if state["status"] == "done":
            observed["done"] = poll.t_end
            return state["document"], submit, observed
        if state["status"] == "error":
            raise RuntimeError(f"job {job} failed: {state.get('error')}")
        if poll.t_end > deadline:
            raise RuntimeError(f"job {job} still {state['status']} after {timeout} s")


class LoopResult:
    def __init__(self):
        self.round_walls = []
        self.hot = []          # (latency, connect, ttfb, transfer) seconds
        self.cold = []         # (latency, queue_wait, run, polls)
        self.cold_docs = {}    # cold seed -> document
        self.failures = []
        self.attempted = 0
        self.window = 0.0
        self.next_round = 0
        self.events = []       # client spans, when recorded
        self.cpu = 0.0         # server CPU seconds over the loop
        self.scrape = {}       # /metrics deltas over the loop
        self.slices = []       # per slice: (median round, server CPU per round)

    def merge(self, part):
        """Appends a later slice of the same loop (`part.cpu` set)."""
        self.slices.append((statistics.median(part.round_walls),
                            part.cpu / len(part.round_walls)))
        self.round_walls += part.round_walls
        self.hot += part.hot
        self.cold += part.cold
        self.cold_docs.update(part.cold_docs)
        self.failures += part.failures
        self.attempted += part.attempted
        self.window += part.window
        self.next_round = part.next_round
        self.events += part.events
        self.cpu += part.cpu


def closed_loop(addr, server_plan, clients, seconds, expected_hot, record_spans=False,
                first_round=0, t0=None):
    """`clients` threads, each sending its next request only after the
    previous reply. Each client runs its own rounds (`server_plan.round`)
    back to back and stops at the first of its round boundaries after
    `seconds` (so it runs at least one).

    `expected_hot[i]` is the exact response body of hot request i; every
    hot reply is compared with it byte for byte.
    """
    result = LoopResult()
    lock = threading.Lock()
    start = time.perf_counter()
    bodies = [server_plan.hot_body(i) for i in range(len(server_plan.hot_set))]

    def client(index):
        spans = Spans(pid=2, first_id=(index + 1) * 10**8, t0=t0) if record_spans else None
        hot, cold, failures, round_walls = [], [], [], []
        cold_docs = {}
        attempted = 0
        round_index = first_round
        # A seeded, uniformly random first poll spreads the wait for the
        # poll after a job ends evenly over one interval, so the median
        # round follows the job's time smoothly and not in whole steps.
        dither = random.Random(f"poll/{server_plan.seed}/{index}/{first_round}")
        round_start = time.perf_counter()
        while not round_walls or round_start - start < seconds:
            for kind, arg in server_plan.round(index, round_index):
                attempted += 1
                try:
                    if kind == "hot":
                        r = exchange(addr, "POST", "/v1/jobs", bodies[arg])
                        if r.status != 200 or r.body != expected_hot[arg]:
                            failures.append(f"hot {arg}: status {r.status}, wrong body")
                            continue
                        hot.append((r.t_end - r.t_start, r.t_connected - r.t_start,
                                    r.t_first_byte - r.t_connected, r.t_end - r.t_first_byte))
                        if spans:
                            root = spans.add("client.hot", r.t_start, r.t_end,
                                             job=f"hot-{arg}", tid=index + 1)
                            for name, a, b in (("server.connect", r.t_start, r.t_connected),
                                               ("server.ttfb", r.t_connected, r.t_first_byte),
                                               ("server.transfer", r.t_first_byte, r.t_end)):
                                spans.add(name, a, b, parent=root, job=f"hot-{arg}",
                                          tid=index + 1)
                    else:
                        doc, submit, obs = submit_and_wait(addr, server_plan.cold_body(arg),
                                                           first_poll=dither.uniform(0, POLL_S))
                        if obs is None:
                            failures.append(f"cold seed {arg}: answered from the cache")
                            continue
                        started = obs["started"] or obs["done"]
                        cold.append((obs["done"] - submit.t_start, started - submit.t_end,
                                     obs["done"] - started, obs["polls"]))
                        cold_docs[arg] = doc
                        if spans:
                            job = f"cold-{arg}"
                            root = spans.add("client.cold", submit.t_start, obs["done"],
                                             job=job, tid=index + 1)
                            for name, a, b in (("server.submit", submit.t_start, submit.t_end),
                                               ("server.queue_wait", submit.t_end, started),
                                               ("server.run", started, obs["done"])):
                                spans.add(name, a, b, parent=root, job=job, tid=index + 1)
                except Exception as err:  # counted, and the client goes on
                    failures.append(f"{kind} {arg}: {err}")
            now = time.perf_counter()
            round_walls.append(now - round_start)
            round_index += 1
            round_start = now
        with lock:
            result.round_walls += round_walls
            result.next_round = max(result.next_round, round_index)
            result.hot += hot
            result.cold += cold
            result.cold_docs.update(cold_docs)
            result.failures += failures
            result.attempted += attempted
            if spans:
                result.events += spans.events

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result.window = time.perf_counter() - start
    return result
