"""End-to-end benchmark of two-process C2PI serving on resnet20.

    python3 perfbench/run.py --workload online-warm --seed 1 --seconds 20 --trace 0

Runs the real deployment from one benchmark process and one client thread:
the server (``perfbench/launcher.py``) runs as a subprocess. The model is
the deterministic untrained ``resnet20`` at boundary 3.5, batch 1. Each
run measures two things, in four rounds that each hold a stretch of both:

* an open-loop Poisson phase at the workload's rate, scheduled for
  ``--seconds`` but never fewer than 60 requests (so twelve samples lie
  beyond the reported p80). Latency is timed from each request's
  *scheduled* arrival, so a stall also delays the requests behind it;
* a closed-loop phase in which the next request is sent when the last
  returns. Throughput is one over the median request time, so one
  stalled request cannot set it.

``setup_s`` is the time from spawning the server until the first
request can be sent, including generating the run's offline material on
``online-warm``; on ``offline-churn`` set-up is repeated three times and
the median reported.

The workloads (see ``BENCHMARK.json`` for why each exists):

* ``online-warm`` -- one persistent named session whose pool the launcher
  warms for the whole run before it prints its port;
* ``offline-churn`` -- every request is a new named session (connect,
  handshake, one inference, bye) that generates its bundle inline.

Every input -- images, arrival schedule, session keys, client and server
seeds -- is generated from ``--seed``; the program sees only those
inputs. Every reply's logits are compared byte for byte with a serial
replay of the same seeded session streams (``perfbench/replay.py``, run
outside the timed window), and every reply must satisfy
``bytes_match``. A request that
errs, is refused or fails either check counts in ``failed``.

With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics; with ``--trace 1`` the requests are also recorded as
in-memory spans (every other request, so the untraced half gives the
tracing overhead), an in-process pass times each layer, the spans are
written as Chrome trace-event JSON under ``.perfbench/`` and the result
holds the per-layer metrics. The layer pass spawns a ``c2pi dealer
--store`` to time a dealer fetch. Host noise (a calibration workload and
the CPU steal share over the run) is printed with every run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(SRC))

from tracing import Tracer, percentile, render_self_times  # noqa: E402

#: The open loop is scheduled to take ``--seconds`` at the workload's rate
#: but completes at least this many requests, so that twelve
#: samples lie beyond the reported p80 (the tracing module's tail rule).
MIN_OPEN_REQUESTS = 60
TAIL_QUANTILE = 0.8
#: The open loop is cut into this many stretches, each followed by a
#: closed-loop burst. Back-to-back request times drift by up to 40% in
#: streaks of a second or so (presumably other tenants on the host), and
#: one closed-loop phase at the end sampled a single streak: throughput
#: moved by a third between runs.
ROUNDS = 4
CHURN_SETUPS = 3
CLIENT_TIMEOUT_S = 30.0
RETRIES = 2

# The benchmark's client thread runs on the last core and, where round
# trips dominate a request, so does the server; the reference replay and
# the layer pass's dealer get the first, which also takes the virtio
# device interrupts and showed more CPU steal. On a 2-vCPU VM a round trip
# between two cores has the hypervisor wake the peer's vCPU; under other
# tenants' load (4-8% CPU steal) that raised the median latency by a
# third or more and moved throughput by a third from run to run. On one
# core a round trip is a context switch. Where bundle generation
# dominates (offline-churn) the server takes the idle second core
# instead: with two requests in flight, sharing one core raised its
# median and p80 latency by 40%.
_CPUS = sorted(os.sched_getaffinity(0))
PARTY_CPU, AUX_CPU = _CPUS[-1], _CPUS[0]

#: Metric name -> unit. ``BENCHMARK.json`` lists the same names (checked
#: by the self-tests) and every run checks it emits exactly these.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p80_ms": "ms",
    "throughput_ips": "1/s",
    "online_mb_per_inf": "MB",
    "online_rounds_per_inf": "count",
    "offline_mb_per_inf": "MB",
    "server_rss_peak_mb": "MB",
}
PER_LAYER = {
    "serve.remote.handshake_ms": "ms",
    "serve.remote.client_queue_ms": "ms",
    "serve.remote.server_online_ms": "ms",
    "serve.remote.server_offline_ms": "ms",
    "serve.remote.requests_retried": "count",
    "serve.remote.busy_replies": "count",
    "mpc.preprocessing.pool_hit_ratio": "ratio",
    "mpc.preprocessing.bundle_gen_ms": "ms",
    "mpc.preprocessing.split_pack_ms": "ms",
    "mpc.preprocessing.unpack_ms": "ms",
    "mpc.preprocessing.bundle_mb": "MB",
    **{f"mpc.dealer.{method}_ns_per_elem": "ns"
       for method in ("bit_triples", "comparison_masks", "dabits",
                      "beaver_triples", "linear_correlation")},
    "serve.dealer_service.fetch_ms": "ms",
    "serve.dealer_service.store_hit_ratio": "ratio",
    "serve.dealer_service.rss_peak_mb": "MB",
    "mpc.pool_store.put_ms": "ms",
    "mpc.pool_store.get_ms": "ms",
    "mpc.party.run_ms": "ms",
    "mpc.party.p0.conv_ms": "ms",
    "mpc.party.p0.relu_ms": "ms",
    "mpc.party.p1.conv_ms": "ms",
    "mpc.party.p1.relu_ms": "ms",
    "mpc.transport.frames_per_inf": "count",
    "mpc.transport.bytes_copied_per_inf": "B",
    "mpc.transport.framing_overhead_bytes_per_inf": "B",
    "models.clear_tail_ms": "ms",
    "mpc.program.compile_ms": "ms",
    "loadgen.lag_p80_ms": "ms",
    "trace.overhead_ms": "ms",
}


@dataclass(frozen=True)
class Workload:
    name: str
    rate: float  # open-loop arrivals per second
    closed: int  # closed-loop requests
    churn: bool  # a new named session per request

    @property
    def server_cpu(self) -> int:
        return AUX_CPU if self.churn else PARTY_CPU


WORKLOADS = {
    w.name: w
    for w in (
        # The rates keep online-warm's server a sixth busy: at a third
        # busy its p80 sat where requests start to queue and moved by a
        # third from run to run. Churn's server is near a third busy.
        Workload("online-warm", rate=3.0, closed=36, churn=False),
        Workload("offline-churn", rate=1.5, closed=20, churn=True),
    )
}


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
@dataclass
class Plan:
    """Everything a run sends, generated from the seed alone.

    Requests are indexed in the order they are sent: ``ROUNDS`` rounds,
    each a stretch of the open loop followed by a closed-loop burst.
    """

    server_seed: int
    offsets: np.ndarray  # open request: arrival (s) after its round starts
    images: np.ndarray  # one (3, 32, 32) image per request
    sessions: list[tuple[str, int]]  # (key, client seed) per session
    rounds: list[tuple[list[int], list[int]]]  # (open, closed) indices
    n_open: int
    n_closed: int

    def session_of(self, workload: Workload, index: int) -> tuple[str, int]:
        return self.sessions[index if workload.churn else 0]


def poisson_gaps(rng: np.random.Generator, rate: float, n: int) -> np.ndarray:
    """The ``n`` inter-arrival gaps (s) of a Poisson process at ``rate``.

    The exponential gaps are drawn by stratified sampling -- one uniform
    draw in each of ``n`` equal strata, shuffled -- so every seed gets
    the same spread of short and long gaps in a different order. Plain
    draws let the whole schedule stretch or bunch by seed, which widened
    the seed-to-seed spread of the latency percentiles.
    """
    strata = (rng.permutation(n) + rng.random(n)) / n
    return -np.log1p(-strata) / rate


def make_plan(workload: Workload, seed: int, seconds: float) -> Plan:
    rng = np.random.default_rng(seed)
    n_open = max(MIN_OPEN_REQUESTS, round(workload.rate * seconds))
    n_closed = workload.closed
    total = n_open + n_closed
    server_seed = int(rng.integers(0, 2**31))
    gaps = poisson_gaps(rng, workload.rate, n_open)
    offsets = np.full(total, np.nan)
    rounds, index, gap = [], 0, 0
    for n_o, n_c in zip(_split(n_open), _split(n_closed)):
        opened = list(range(index, index + n_o))
        offsets[opened] = np.cumsum(gaps[gap : gap + n_o])
        closed = list(range(index + n_o, index + n_o + n_c))
        rounds.append((opened, closed))
        index, gap = index + n_o + n_c, gap + n_o
    images = rng.standard_normal((total, 3, 32, 32)).astype(np.float32)
    count = total if workload.churn else 1
    sessions = [
        (f"bench-{seed}-{index}", int(rng.integers(0, 2**31)))
        for index in range(count)
    ]
    return Plan(server_seed, offsets, images, sessions, rounds, n_open,
                n_closed)


def _split(n: int) -> list[int]:
    """``n`` requests as ``ROUNDS`` near-equal shares."""
    return [n // ROUNDS + (k < n % ROUNDS) for k in range(ROUNDS)]


# ----------------------------------------------------------------------
# reference: serial replay of the same session streams (perfbench/replay.py)
# ----------------------------------------------------------------------
class Reference:
    """Replay subprocesses computing every request's reference logits.

    A churn workload's sessions are independent, so they are split over
    two processes (one per core) and replayed before set-up; a persistent
    session is one ordered stream, replayed by one process while the
    server generates the run's material.
    """

    def __init__(self, workload: Workload, plan: Plan, scratch: Path,
                 cpu: int | None = None):
        total = plan.n_open + plan.n_closed
        parts = 2 if workload.churn else 1
        self.jobs = []
        for part in range(parts):
            indices = np.arange(part, total, parts)
            if workload.churn:
                sessions = [plan.sessions[i] for i in indices]
                stream = np.arange(len(indices))
            else:
                sessions = plan.sessions[:1]
                stream = np.zeros(len(indices), dtype=np.int64)
            streams = scratch / f"streams-{part}.npz"
            np.savez(
                streams, server_seed=plan.server_seed,
                keys=np.array([key for key, _ in sessions]),
                client_seeds=np.array([seed for _, seed in sessions]),
                images=plan.images[indices], stream=stream,
            )
            output = scratch / f"logits-{part}.npy"
            argv = [sys.executable, str(HERE / "replay.py"), str(streams),
                    str(output)]
            proc = subprocess.Popen(argv, env=_env(), cwd=str(ROOT),
                                    preexec_fn=_pin(cpu))
            self.jobs.append((indices, proc, output))

    def logits(self) -> list[bytes]:
        """Wait for the replays; every request's logits bytes, by index."""
        result: list[bytes] = [b""] * sum(len(i) for i, _, _ in self.jobs)
        for indices, proc, output in self.jobs:
            if proc.wait(timeout=170.0) != 0:
                raise RuntimeError(f"reference replay failed ({proc.args})")
            for index, row in zip(indices, np.load(output)):
                result[index] = row.tobytes()
        return result

    def close(self) -> None:
        for _, proc, _ in self.jobs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def _pin(cpu: int | None):
    """A ``preexec_fn`` pinning the child to ``cpu`` (``None``: no pin)."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class Launched:
    """A child process that prints its endpoint on stdout when ready."""

    def __init__(self, argv: list[str], cpu: int):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=_env(), cwd=str(ROOT), preexec_fn=_pin(cpu),
        )

    def readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.proc.args} exited before it was ready")
        return line

    def rss_peak_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> str:
        """Close stdin (the launcher's stop signal), wait, kill if stuck."""
        tail = ""
        try:
            tail, _ = self.proc.communicate(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return tail


def spawn_server(plan: Plan, workload: Workload) -> Launched:
    argv = [sys.executable, str(HERE / "launcher.py"),
            "--seed", str(plan.server_seed)]
    if not workload.churn:
        argv += ["--warm-session", plan.sessions[0][0],
                 "--warm-bundles", str(plan.n_open + plan.n_closed)]
    server = Launched(argv, workload.server_cpu)
    server.port = json.loads(server.readline())["port"]
    return server


def spawn_dealer(store: Path) -> tuple[Launched, tuple[str, int]]:
    dealer = Launched([
        sys.executable, "-m", "repro.cli", "dealer", "--listen", "127.0.0.1:0",
        "--store", str(store), "--arch", "resnet20", "--boundary", "3.5",
    ], AUX_CPU)
    endpoint = dealer.readline().split()[-1]
    host, _, port = endpoint.rpartition(":")
    return dealer, (host, int(port))


def stop_dealer(dealer: Launched) -> None:
    dealer.proc.terminate()
    try:
        dealer.proc.communicate(timeout=15.0)
    except subprocess.TimeoutExpired:
        dealer.proc.kill()
        dealer.proc.communicate()


# ----------------------------------------------------------------------
# host noise
# ----------------------------------------------------------------------
def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of the aggregate ``cpu`` line of /proc/stat."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already included in user/nice.
    return fields[7], sum(fields[:8])


# ----------------------------------------------------------------------
# the request loop
# ----------------------------------------------------------------------
@dataclass
class Record:
    index: int
    phase: str  # "open" | "closed"
    due: float | None = None  # scheduled arrival (open loop)
    free: float = 0.0  # the client became free for it
    start: float = 0.0  # the client started sending it
    end: float = 0.0  # logits received
    handshake_s: float | None = None
    error: str | None = None
    logits: bytes = b""
    bytes_match: bool = False
    reply: object = None
    traced: bool = False

    @property
    def latency_s(self) -> float:
        return self.end - (self.due if self.due is not None else self.start)


def _connect(host: str, port: int, key: str, client_seed: int):
    from repro.serve.remote import RemoteClient

    return RemoteClient(host, port, seed=client_seed, session=key,
                        timeout=CLIENT_TIMEOUT_S, wait_for_slot=True)


class Runner:
    """Sends the plan's requests and records what comes back."""

    def __init__(self, workload: Workload, plan: Plan, port: int,
                 tracer: Tracer | None):
        self.workload = workload
        self.plan = plan
        self.port = port
        self.tracer = tracer
        self.records: list[Record] = []
        self.wire: list[dict] = []  # per-session WireStats deltas
        self.busy = 0
        self.retried = 0
        self.persistent = None
        self.handshake_s: float | None = None  # of the persistent session

    # -- one request -------------------------------------------------
    def _request(self, record: Record) -> None:
        from repro.serve.remote import ServerBusy

        tracer = self.tracer if record.traced else None
        key, client_seed = self.plan.session_of(self.workload, record.index)
        image = self.plan.images[record.index]
        client = self.persistent
        try:
            if client is None:
                started = time.perf_counter()
                client = _connect("127.0.0.1", self.port, key, client_seed)
                record.handshake_s = time.perf_counter() - started
                before = client.transport.stats.as_dict()
            reply = client.infer(image, retries=RETRIES)
            record.end = time.perf_counter()
            record.reply = reply
            record.logits = reply.logits.tobytes()
            record.bytes_match = reply.bytes_match
        except ServerBusy as exc:
            record.end = time.perf_counter()
            record.error = f"busy: {exc}"
            self.busy += 1
        except Exception as exc:  # noqa: BLE001 - a failed request is data
            record.end = time.perf_counter()
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            if client is not None and client is not self.persistent:
                self._retire(client, before)
        if tracer is not None:
            self._trace(tracer, record)

    def _retire(self, client, before: dict) -> None:
        self.retried += client.requests_retried
        if client.transport is not None:
            self.wire.append(_wire_delta(before, client.transport.stats))
        client.close()

    def _trace(self, tracer: Tracer, record: Record) -> None:
        begin = record.due if record.due is not None else record.start
        root = tracer.add(f"request.{record.phase}", begin, record.end,
                          request=record.index)
        if record.start > begin:
            tracer.add("client.queue", begin, record.start, root, record.index)
        infer_start = record.start
        if record.handshake_s is not None:
            infer_start = record.start + record.handshake_s
            tracer.add("serve.remote.handshake", record.start, infer_start,
                       root, record.index)
        infer = tracer.add("serve.remote.infer", infer_start, record.end, root,
                           record.index)
        if record.reply is not None:
            # The server reports durations, not timestamps: offline work
            # starts when the request arrives, online work ends with the
            # logits, so the two are placed at the ends of the call.
            server = record.reply.server
            offline_end = min(record.end, infer_start + server["offline_s"])
            tracer.add("server.offline", infer_start, offline_end, infer,
                       record.index)
            tracer.add("server.online",
                       max(offline_end, record.end - server["online_s"]),
                       record.end, infer, record.index)

    # -- phases --------------------------------------------------------
    def _serve(self, records: list[Record], paced: bool) -> None:
        """Send ``records`` one after another: each at its scheduled time
        (open loop) or as soon as the previous one returns (closed loop)."""
        self.records.extend(records)
        for record in records:
            record.free = time.perf_counter()
            if paced and record.due > record.free:
                time.sleep(record.due - record.free)
            record.start = time.perf_counter()
            self._request(record)

    def run(self) -> None:
        persistent = not self.workload.churn
        if persistent:
            key, client_seed = self.plan.sessions[0]
            started = time.perf_counter()
            self.persistent = _connect("127.0.0.1", self.port, key, client_seed)
            self.handshake_s = time.perf_counter() - started
            if self.tracer is not None:
                self.tracer.add("serve.remote.handshake", started,
                                started + self.handshake_s)
            before = self.persistent.transport.stats.as_dict()
        traced = self.tracer is not None
        try:
            for opened, closed in self.plan.rounds:
                base = time.perf_counter() + 0.05
                self._serve([Record(i, "open", due=base + self.plan.offsets[i],
                                    traced=traced and i % 2 == 0)
                             for i in opened], paced=True)
                self._serve([Record(i, "closed", traced=traced)
                             for i in closed], paced=False)
        finally:
            if persistent:
                client, self.persistent = self.persistent, None
                self._retire(client, before)


def _wire_delta(before: dict, stats) -> dict:
    after = stats.as_dict()
    delta = {k: after[k] - before.get(k, 0) for k in after
             if isinstance(after[k], int)}
    payload = (delta["raw_payload_sent"] + delta["raw_payload_received"]
               + delta["control_payload_sent"]
               + delta["control_payload_received"])
    delta["framing_overhead"] = (delta["wire_bytes_sent"]
                                 + delta["wire_bytes_received"] - payload)
    return delta


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir()
    steal0, total0 = cpu_times()
    from repro.bench.protocols import calibration_workload_s

    calibration_s = calibration_workload_s()
    plan = make_plan(workload, seed, seconds)
    tracer = Tracer() if trace else None
    server = references = None
    setups = []
    try:
        if workload.churn:
            # Independent sessions replay on both cores before set-up,
            # which is short, so it is repeated and the median kept.
            references = Reference(workload, plan, scratch)
            reference = references.logits()
            for _ in range(CHURN_SETUPS):
                if server is not None:
                    server.stop()
                start = time.perf_counter()
                server = spawn_server(plan, workload)
                setups.append(time.perf_counter() - start)
        else:
            # Set-up generates the whole run's material once, while the
            # other core replays the reference stream.
            start = time.perf_counter()
            references = Reference(workload, plan, scratch, cpu=AUX_CPU)
            server = spawn_server(plan, workload)
            setups.append(time.perf_counter() - start)
            reference = references.logits()

        os.sched_setaffinity(0, {PARTY_CPU})
        runner = Runner(workload, plan, server.port, tracer)
        runner.run()
        server_rss = server.rss_peak_mb()
        layer_metrics = {}
        if trace:
            layer_metrics = _trace_extras(plan, scratch, tracer)
    finally:
        counters = json.loads(server.stop().strip() or "{}") if server else {}
        if references is not None:
            references.close()
        shutil.rmtree(scratch, ignore_errors=True)
    steal1, total1 = cpu_times()

    records = runner.records
    failures = []
    for record in records:
        if record.error is None and not record.bytes_match:
            record.error = "bytes_match miss"
        if record.error is None and record.logits != reference[record.index]:
            record.error = "logits differ from the serial replay"
        if record.error is not None:
            failures.append(record)
    good_open = [r for r in records if r.phase == "open" and r.error is None]
    good = [r for r in records if r.error is None]
    latencies_ms = [r.latency_s * 1e3 for r in good_open]
    # Closed-loop throughput from the median request time, so that one
    # stalled request cannot set it.
    closed_s = [r.end - r.start for r in good if r.phase == "closed"]
    throughput = 1.0 / median(closed_s)
    replies = [r.reply for r in good]

    print(f"workload={workload.name} seed={seed} seconds={seconds:g} "
          f"open={plan.n_open}@{workload.rate:g}rps closed={plan.n_closed}")
    print(f"host noise: calibration_workload_s={calibration_s:.6f} "
          f"cpu_steal_share={(steal1 - steal0) / max(1, total1 - total0):.4f}")
    for record in failures[:5]:
        print(f"failed request {record.index}: {record.error}")

    if trace:
        units = PER_LAYER
        metrics = _per_layer(runner, good, counters, layer_metrics)
        samples = {}
        print(f"trace written to {write_trace(tracer, workload.name, seed)}")
    else:
        units = END_TO_END
        metrics = {
            "setup_s": median(setups),
            "latency_p50_ms": median(latencies_ms),
            "latency_p80_ms": percentile(latencies_ms, TAIL_QUANTILE),
            "throughput_ips": throughput,
            "online_mb_per_inf": _mean(r.traffic.total_bytes for r in replies) / 1e6,
            "online_rounds_per_inf": _mean(r.traffic.rounds for r in replies),
            "offline_mb_per_inf": _mean(r.offline_bytes for r in replies) / 1e6,
            "server_rss_peak_mb": server_rss,
        }
        samples = dict.fromkeys(metrics, len(replies))
        samples.update(setup_s=len(setups), latency_p50_ms=len(latencies_ms),
                       latency_p80_ms=len(latencies_ms), server_rss_peak_mb=1,
                       throughput_ips=len(closed_s))
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metric names drifted: {sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        count = f"n={samples[name]}" if name in samples else ""
        print(f"  {name:<46} {value:>14.4f} {units[name]:<6} {count}")
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _trace_extras(plan: Plan, scratch: Path, tracer: Tracer) -> dict:
    """The in-process layer pass, with a dealer of its own to fetch from."""
    from launcher import build_model
    from layers import layer_pass
    from repro.serve.dealer_service import DealerClient
    from repro.serve.remote import derive_session_seed

    dealer, endpoint = spawn_dealer(scratch / "layer-dealer")
    try:
        key = plan.sessions[0][0]
        metrics = layer_pass(
            build_model(), plan.images[:1],
            derive_session_seed(plan.server_seed, key), endpoint, scratch,
            tracer,
        )
        rpc = DealerClient(*endpoint, timeout=30.0)
        try:
            stats = rpc.stats()
        finally:
            rpc.close()
        metrics["serve.dealer_service.store_hit_ratio"] = (
            stats["served_from_store"] / max(1, stats["requests"])
        )
        metrics["serve.dealer_service.rss_peak_mb"] = dealer.rss_peak_mb()
    finally:
        stop_dealer(dealer)
    return metrics


def _per_layer(runner: Runner, good, counters, layer) -> dict:
    """Per-layer metrics of a traced run."""
    opened = [r for r in good if r.phase == "open"]
    handshakes = [r.handshake_s for r in runner.records
                  if r.handshake_s is not None]
    if not handshakes:
        handshakes = [runner.handshake_s]
    pools = {}
    for record in good:  # the last reply of each session holds its totals
        key, _ = runner.plan.session_of(runner.workload, record.index)
        pools[key] = record.reply.server["pool"]
    consumed = sum(p["bundles_consumed"] for p in pools.values())
    misses = sum(p["misses"] for p in pools.values())
    inferences = len(runner.records)
    wire = {k: sum(w[k] for w in runner.wire) for k in runner.wire[0]}
    traced = [r.latency_s * 1e3 for r in opened if r.traced]
    untraced = [r.latency_s * 1e3 for r in opened if not r.traced]

    return {
        "serve.remote.handshake_ms": median(handshakes) * 1e3,
        # Most requests find the client free, so the median wait is zero:
        # the tail percentile is where queueing shows.
        "serve.remote.client_queue_ms": percentile(
            [max(0.0, r.free - r.due) * 1e3 for r in opened], TAIL_QUANTILE),
        "serve.remote.server_online_ms": median(
            [r.reply.server["online_s"] for r in good]) * 1e3,
        "serve.remote.server_offline_ms": median(
            [r.reply.server["offline_s"] for r in good]) * 1e3,
        "serve.remote.requests_retried": (
            counters.get("requests_retried", 0) + runner.retried),
        "serve.remote.busy_replies": counters.get("requests_busy", 0) + runner.busy,
        "mpc.preprocessing.pool_hit_ratio": 1.0 - misses / consumed,
        "mpc.transport.frames_per_inf": (
            (wire["frames_sent"] + wire["frames_received"]) / inferences),
        "mpc.transport.bytes_copied_per_inf": wire["bytes_copied"] / inferences,
        "mpc.transport.framing_overhead_bytes_per_inf": (
            wire["framing_overhead"] / inferences),
        "loadgen.lag_p80_ms": percentile(
            [(r.start - max(r.due, r.free)) * 1e3 for r in opened],
            TAIL_QUANTILE),
        "trace.overhead_ms": median(traced) - median(untraced),
        **layer,
    }


def write_trace(tracer: Tracer, workload: str, seed: int) -> Path:
    """Chrome trace-event JSON plus the self-time table beside it."""
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(tracer.chrome_trace()))
    table = render_self_times(tracer.self_times())
    path.with_suffix(".selftime.txt").write_text(table + "\n")
    print(table)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="C2PI two-process serving benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC / 'repro'}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
