"""``plan-hit`` and ``plan-miss``: closed-loop ``POST /plan`` over loopback.

The server is ``repro-serve`` started through :mod:`serve` as a child
process on an ephemeral port and stopped with SIGTERM.  The load comes
from this process alone: one thread, :data:`CONNECTIONS` keep-alive
connection.

For the run this process is pinned to one CPU, and the servers it spawns
inherit the pin.  With one request in flight the client and the server
take turns, so one CPU serves both; what the pin removes is the choice
of CPU for each wake-up.  Unpinned, or over two connections, whole runs
landed in slower or faster placements, and the latency tail moved by more
than any allowed bound from run to run (perfbench/README.md, "Why one
connection on one CPU").
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import client
import reference
import tracing
from common import HERE, SETUP_REPEATS, ratio, windowed_metrics

CONNECTIONS = 1
HIT_POOL = 32  # distinct bodies repeated by plan-hit (the plan cache holds 512)
MISS_CHECKED = 3000  # plan-miss responses checked against the reference
REPLAYED = 20  # plan-miss bodies sent again to test byte-identical answers
WARMUP_S = 1.0
RESOURCES = ("cpu", "disk_io", "network", "memory")


def deployment(rng: random.Random) -> dict:
    """One operator's deployment: 1-4 services, 1-3 resources each.

    Arrival rates span 1-10^4 req/s and per-resource loads 0.1-300 Erlangs,
    both log-uniform, so a service needs from one host to several hundred
    and the pooled load reaches about a thousand.
    """
    services = []
    for i in range(rng.randint(1, 4)):
        lam = 10.0 ** rng.uniform(0.0, 4.0)
        rates, impacts = {}, {}
        for r in rng.sample(RESOURCES, rng.randint(1, 3)):
            rates[r] = lam / 10.0 ** rng.uniform(-1.0, math.log10(300.0))
            impacts[r] = rng.uniform(0.5, 1.0)
        services.append(
            {"name": f"svc{i}", "arrival_rate": lam, "service_rates": rates, "impact_factors": impacts}
        )
    doc = {"loss_probability": 10.0 ** rng.uniform(-3.0, math.log10(0.05)), "services": services}
    if rng.random() < 0.25:
        doc["load_model"] = "offered"
    return doc


def encode(doc: dict) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


class Server:
    """One ``repro-serve`` child process and the files it leaves in ``run_dir``."""

    def __init__(self, run_dir: Path, tag: str, trace: bool) -> None:
        self.dir = run_dir / tag
        self.dir.mkdir(parents=True)
        self.report_path = self.dir / "report.json"
        port_file = self.dir / "port"
        self._stderr = open(self.dir / "stderr", "wb")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "serve.py"), str(self.report_path), "1" if trace else "0", "--",
                "--port", "0", "--port-file", str(port_file),
                "--state-dir", str(self.dir / "state"),
                "--access-log", str(self.dir / "access.jsonl"),
            ],
            stdout=subprocess.DEVNULL, stderr=self._stderr,
        )
        self.port = self._wait_port(port_file)
        self._wait_healthy()
        self.ready_s = time.monotonic() - t0

    def _wait_port(self, port_file: Path) -> int:
        limit = time.monotonic() + 60.0
        while time.monotonic() < limit:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro-serve exited with {self.proc.returncode} while starting")
            try:
                text = port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.002)
        raise TimeoutError("repro-serve wrote no port file within 60 s")

    def _wait_healthy(self) -> None:
        limit = time.monotonic() + 60.0
        while time.monotonic() < limit:
            try:
                if self.request("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise TimeoutError("repro-serve was not healthy within 60 s")

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        """One request on a fresh connection (outside the timed phase)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10.0)
        try:
            conn.request(method, path, body, {"Content-Type": "application/json"} if body else {})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stop(self) -> dict:
        """SIGTERM, wait, and return the launcher's report plus ``drained``."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30.0)
        finally:
            self.kill()
        report = json.loads(self.report_path.read_text()) if self.report_path.exists() else {}
        try:
            manifest = json.loads((self.dir / "state" / "run_manifest.json").read_text())
            report["drained"] = bool(manifest["service"]["drained"])
        except (OSError, KeyError, ValueError):
            report["drained"] = False
        report["returncode"] = self.proc.returncode
        return report

    def kill(self) -> None:
        """Make sure the child is gone (no-op once it has exited)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._stderr.close()


def stopped_cleanly(report: dict) -> bool:
    return report.get("returncode") == 0 and report.get("exit") == 0 and report["drained"]


def counters(server: Server) -> dict:
    """Plan-cache and Erlang-cache counters, read over ``/metrics`` and ``/status``."""
    _, text = server.request("GET", "/metrics")
    out = {}
    for result in ("hit", "miss"):
        m = re.search(rf'^service_plan_cache_total\{{result="{result}"\}} (\S+)$', text.decode(), re.M)
        out[f"plan_{result}"] = float(m.group(1)) if m else 0.0
    _, status = server.request("GET", "/status")
    cache = json.loads(status)["erlang_cache"]
    out["erlang_hit"], out["erlang_miss"] = cache["hits"], cache["misses"]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    hit = workload == "plan-hit"
    servers: list[Server] = []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        # Set-up: spawn to first good /healthz, several times; the last
        # server started carries the workload.
        setup_failures = 0
        reports = []
        for k in range(SETUP_REPEATS):
            servers.append(Server(run_dir, f"server{k}", trace and k == SETUP_REPEATS - 1))
            if k < SETUP_REPEATS - 1:
                reports.append(servers[k].stop())
                setup_failures += not stopped_cleanly(reports[-1])
        server = servers[-1]
        setup_s = statistics.median(s.ready_s for s in servers)
        addr = ("127.0.0.1", server.port)

        rng = random.Random(f"{workload}:{seed}")
        sequence = itertools.count()
        if hit:
            # Every pool body is answered once before the timed phase, so
            # each timed request can be a response-cache hit.
            pool = [(i, encode(deployment(rng))) for i in range(HIT_POOL)]
            first = {i: server.request("POST", "/plan", body)[1] for i, body in pool}
            bodies = dict(pool)

            def next_request():
                return pool[next(sequence) % HIT_POOL]

            warm_request = next_request
        else:
            warm_rng = random.Random(f"{workload}-warmup:{seed}")
            bodies: dict[int, bytes] = {}  # the timed bodies that are checked

            def next_request():
                i = next(sequence)
                body = encode(deployment(rng))
                if i < MISS_CHECKED:
                    bodies[i] = body
                return i, body

            def warm_request():
                return -1, encode(deployment(warm_rng))

        client.closed_loop(addr, "/plan", warm_request, WARMUP_S, CONNECTIONS, lambda r: None)
        before = counters(server)

        rtts: list[float] = []
        done: list[tuple[float, float]] = []
        failed = 0
        mismatched = 0
        checked: list[tuple[int, bytes]] = []

        def on_result(r: client.Result):
            nonlocal failed, mismatched
            if r.status != 200:
                failed += 1
                return
            rtts.append(r.rtt)
            done.append((r.sent + r.rtt, r.rtt))
            if hit:
                mismatched += r.body != first.get(r.key)
            elif r.key < MISS_CHECKED:
                checked.append((r.key, r.body))

        t0, t1 = client.closed_loop(addr, "/plan", next_request, seconds, CONNECTIONS, on_result)
        attempted = len(rtts) + failed
        after = counters(server)

        problems = []
        if hit:
            if mismatched:
                problems.append(f"{mismatched} plan-hit responses differ from the first answer to the same body")
            answers = first
        else:
            answers = dict(checked)
            for i in range(min(REPLAYED, len(bodies))):
                status, body = server.request("POST", "/plan", bodies[i])
                if status != 200 or body != answers.get(i):
                    problems.append(f"plan-miss body {i} answered differently when sent again")
        for i, body in answers.items():
            try:
                response = json.loads(body)
            except ValueError:
                problems.append(f"body {i}: answer is not JSON: {body[:200]!r}")
                continue
            for p in reference.check_plan(json.loads(bodies[i]), response):
                problems.append(f"body {i}: {p}")
        hits = after["plan_hit"] - before["plan_hit"]
        misses = after["plan_miss"] - before["plan_miss"]
        if hit and misses:
            problems.append(f"plan-hit timed phase missed the plan cache {misses:g} times")
        if not hit and hits:
            problems.append(f"plan-miss timed phase hit the plan cache {hits:g} times")

        report = server.stop()
        reports.append(report)
        failed += setup_failures + (not stopped_cleanly(report))
        attempted += SETUP_REPEATS

        result = {
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "metrics": {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (report.get("maxrss_kb", 0) / 1024.0, "MB"),
                **windowed_metrics(done, t0, t1),
            },
            "samples": len(rtts),
        }
        if trace:
            result["layers"] = layers(report, reports, rtts, before, after, t0, t1)
        return result
    finally:
        for s in servers:
            s.kill()
        os.sched_setaffinity(0, cpus)


def layers(report, reports, rtts, before, after, t0, t1) -> dict:
    spans = tracing.within([tuple(s) for s in report["spans"]], t0, t1)
    handle = sorted(
        s[4] - s[3] for s in spans if s[2] == "PlannerApp.handle" and (s[5] or {}).get("path") == "/plan"
    )
    handle_us = statistics.median(handle) * 1e6 if handle else 0.0
    out = tracing.summarize(spans)
    out["service.handle_us"] = handle_us
    out["service.outside_app_us"] = statistics.median(rtts) * 1e6 - handle_us
    out["service.plan_cache_hit_ratio"] = ratio(
        after["plan_hit"] - before["plan_hit"],
        after["plan_hit"] + after["plan_miss"] - before["plan_hit"] - before["plan_miss"],
    )
    out["parallel.erlang_cache_hit_ratio"] = ratio(
        after["erlang_hit"] - before["erlang_hit"],
        after["erlang_hit"] + after["erlang_miss"] - before["erlang_hit"] - before["erlang_miss"],
    )
    out["setup.import_s"] = statistics.median(r["import_s"] for r in reports if "import_s" in r)
    return out
