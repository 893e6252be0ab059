"""Protocol micro-benchmark harness (``c2pi bench``).

Measures what the cost tables only model: the *online* wall time and the
exact protocol bytes of the dealer-suite primitives (DReLU, ReLU, one
max-pool tournament level, a linear layer), the offline preprocessing
material footprint per ReLU element, and an end-to-end resnet20
smoke-victim serve. The resulting JSON snapshot
(``benchmarks/BENCH_protocols.json``) records the perf trajectory of the
hot path across PRs; ``--check`` replays the bench and fails if DReLU
online latency regresses against the committed snapshot.

Online timing excludes dealer generation entirely: material is collected
offline into a bundle first and the timed run replays it through a
:class:`~repro.mpc.preprocessing.ReplayDealer`, mirroring the warm-pool
serving path.

Latency comparisons across machines are normalised by ``calibration_s``,
the time of a fixed pure-numpy uint64 workload included in every
snapshot: a fresh DReLU time is compared against
``snapshot * (fresh_calibration / snapshot_calibration)``.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np

from ..mpc import Channel, FixedPointConfig, TrustedDealer
from ..mpc.preprocessing import MaterialRequest, ReplayDealer
from ..mpc.protocols import (
    secure_drelu,
    secure_linear,
    secure_maximum,
    secure_relu,
)
from ..mpc.sharing import share_additive

__all__ = [
    "CFG",
    "DEFAULT_TOLERANCE",
    "run_bench",
    "bench_ops",
    "bench_offline",
    "bench_serve",
    "bench_serve_placements",
    "calibration_workload_s",
    "check_snapshot",
    "check_serve_snapshot",
    "render_report",
    "render_serve_report",
    "material_nbytes",
    "run_from_args",
    "run_serve_from_args",
    "main",
]

CFG = FixedPointConfig()

# Regression gate (the CI contract): a fresh DReLU online time may exceed
# the committed snapshot by at most this factor after machine
# normalisation, plus a jitter floor. Shared-runner wall time swings
# ~25% run to run, so the floor absorbs that noise: the gate is meant to
# catch gross latency regressions (an accidental return to byte-per-bit
# kernels is 14x) while the deterministic byte metrics below catch
# structural drift exactly.
DEFAULT_TOLERANCE = 0.10
_ABS_SLACK_S = 2.5e-4
# The offline gate's tolerance never drops below this. The calibration
# workload is word-op bound and tracks the DReLU kernels, but bundle
# generation is RNG and allocation bound and does not follow it: on a
# 2-vCPU VM the calibration alone moved between 1.07 and 1.70 ms from
# process to process, and the normalised per-bundle time of 16 runs
# strayed up to 25% from the snapshot. The gate is there to catch a
# return to bit-plane draws (14x), not a few percent.
_OFFLINE_MIN_TOLERANCE = 0.5


# ----------------------------------------------------------------------
# material helpers (representation-agnostic: byte-per-bit or packed words)
# ----------------------------------------------------------------------
class _CollectingDealer:
    """Wraps a real dealer; keeps every (request, material) pair in order."""

    def __init__(self, base: TrustedDealer):
        self.base = base
        self.items: list[tuple[MaterialRequest, object]] = []

    def _record(self, method: str, shape, material, ring_fn=None):
        self.items.append(
            (MaterialRequest(method, tuple(shape), ring_fn=ring_fn), material)
        )
        return material

    def beaver_triples(self, shape):
        return self._record("beaver_triples", shape, self.base.beaver_triples(shape))

    def bit_triples(self, shape):
        return self._record("bit_triples", shape, self.base.bit_triples(shape))

    def dabits(self, shape):
        return self._record("dabits", shape, self.base.dabits(shape))

    def comparison_masks(self, shape):
        return self._record(
            "comparison_masks", shape, self.base.comparison_masks(shape)
        )

    def linear_correlation(self, input_shape, ring_fn):
        return self._record(
            "linear_correlation",
            input_shape,
            self.base.linear_correlation(input_shape, ring_fn),
            ring_fn=ring_fn,
        )

    def take(self) -> list[tuple[MaterialRequest, object]]:
        items, self.items = self.items, []
        return items


def material_nbytes(material) -> int:
    """Total array bytes of one dealer material item (all parties' halves)."""
    total = 0
    for field in dataclasses.fields(material):
        value = getattr(material, field.name)
        if isinstance(value, tuple):
            total += sum(int(np.asarray(part).nbytes) for part in value)
        elif isinstance(value, np.ndarray):
            total += int(value.nbytes)
    return total


def _bundle_bytes_by_method(items) -> dict[str, int]:
    sizes: dict[str, int] = {}
    for request, material in items:
        sizes[request.method] = sizes.get(request.method, 0) + material_nbytes(
            material
        )
    return sizes


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def calibration_workload_s(repeats: int = 5) -> float:
    """Fixed pure-numpy uint64 workload used to normalise machine speed.

    Shaped like the bitsliced circuit's rounds — many XOR/AND/shift
    passes over mid-size word arrays, so numpy dispatch overhead and
    word-op throughput are weighted as the DReLU hot path weights them —
    but deliberately hand-written rather than calling the protocol code:
    a regression in the code under test must not inflate the calibration
    and cancel itself out of the gate.
    """
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2**62, size=8192, dtype=np.uint64)
    b = rng.integers(0, 2**62, size=8192, dtype=np.uint64)
    shift = np.uint64(7)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        c = a
        for _ in range(60):
            c = (c ^ b) & (a >> shift)
            c = ((c | a) ^ (c >> shift)).astype(np.uint64)
        best = min(best, time.perf_counter() - start)
    return best


def _timed_runs(op, bundles, repeats: int):
    """Run ``op(replay_dealer, channel)`` once per pre-generated bundle.

    The first bundle is a discarded warmup (first-touch allocation and
    ufunc setup would otherwise pollute the smallest repeat counts).
    """
    best = float("inf")
    channel = None
    for index in range(repeats + 1):
        channel = Channel()
        replay = ReplayDealer(bundles[index])
        start = time.perf_counter()
        op(replay, channel)
        elapsed = time.perf_counter() - start
        if index > 0:
            best = min(best, elapsed)
    return best, channel


def _op_report(name: str, elements: int, best_s: float, channel: Channel) -> dict:
    return {
        "elements": elements,
        "online_s": best_s,
        "online_us_per_element": best_s * 1e6 / max(1, elements),
        "online_bytes": channel.total_bytes,
        "rounds": channel.rounds,
        # The per-round compute budget: with round counts pinned exactly
        # (below), online_s / rounds is what a transport implementation
        # gets to spend between two adjacent communication rounds.
        "online_ns_per_round": best_s * 1e9 / max(1, channel.rounds),
        "by_label_bytes": {
            label: snapshot.total_bytes
            for label, snapshot in channel.label_breakdown().items()
        },
    }


def _collect_bundles(op, seed: int, repeats: int):
    collector = _CollectingDealer(TrustedDealer(seed=seed))
    bundles = []
    for _ in range(repeats + 1):  # one extra bundle feeds the warmup run
        op(collector, Channel())
        bundles.append(collector.take())
    return bundles


def bench_ops(elements: int = 8192, repeats: int = 3) -> dict:
    """Per-op online latency/bytes for the dealer-suite hot path."""
    rng = np.random.default_rng(42)
    values = rng.uniform(-4.0, 4.0, size=(elements,)).astype(np.float32)
    x = share_additive(CFG.encode(values), rng)
    other = share_additive(
        CFG.encode(rng.uniform(-4.0, 4.0, size=(elements,)).astype(np.float32)), rng
    )

    ops = {}

    drelu = lambda dealer, channel: secure_drelu(x, dealer, channel)
    best, channel = _timed_runs(drelu, _collect_bundles(drelu, 1, repeats), repeats)
    ops["drelu"] = _op_report("drelu", elements, best, channel)

    relu = lambda dealer, channel: secure_relu(x, dealer, channel)
    best, channel = _timed_runs(relu, _collect_bundles(relu, 2, repeats), repeats)
    ops["relu"] = _op_report("relu", elements, best, channel)

    # One max-pool tournament level: a batched secure_maximum over n pairs.
    maxpool = lambda dealer, channel: secure_maximum(x, other, dealer, channel)
    best, channel = _timed_runs(
        maxpool, _collect_bundles(maxpool, 3, repeats), repeats
    )
    ops["maxpool"] = _op_report("maxpool", elements, best, channel)

    # A Delphi-style linear layer: batch 8, 256 -> 256 features.
    w_ring = CFG.encode(
        rng.uniform(-0.5, 0.5, size=(256, 256)).astype(np.float32)
    )
    lin_x = share_additive(
        CFG.encode(rng.uniform(-1, 1, size=(8, 256)).astype(np.float32)), rng
    )
    ring_fn = lambda v: np.matmul(v, w_ring.T)
    linear = lambda dealer, channel: secure_linear(
        lin_x, ring_fn, None, dealer, channel
    )
    best, channel = _timed_runs(linear, _collect_bundles(linear, 4, repeats), repeats)
    ops["linear"] = _op_report("linear", 8 * 256, best, channel)
    return ops


def bench_offline(elements: int = 8192) -> dict:
    """Preprocessing material footprint of one ReLU batch (both halves)."""
    rng = np.random.default_rng(7)
    values = rng.uniform(-4.0, 4.0, size=(elements,)).astype(np.float32)
    x = share_additive(CFG.encode(values), rng)
    collector = _CollectingDealer(TrustedDealer(seed=9))
    secure_relu(x, collector, Channel())
    by_method = _bundle_bytes_by_method(collector.items)
    total = sum(by_method.values())
    return {
        "relu_elements": elements,
        "by_method_bytes": by_method,
        "bundle_bytes": total,
        "bit_triple_bytes": by_method.get("bit_triples", 0),
        "bit_triple_bytes_per_element": by_method.get("bit_triples", 0) / elements,
        "bundle_bytes_per_element": total / elements,
    }


def bench_serve(requests: int = 2) -> dict:
    """End-to-end resnet20 smoke-victim serve (warm offline pool)."""
    from ..core import C2PIPipeline
    from ..serve.remote import _demo_victim

    victim = _demo_victim("resnet20", 0.25, 0)
    pipeline = C2PIPipeline(victim, 3.5, noise_magnitude=0.1, seed=5)
    offline_start = time.perf_counter()
    pipeline.prepare_offline(batch=1, bundles=requests)
    offline_s = time.perf_counter() - offline_start

    rng = np.random.default_rng(7)
    online_s = 0.0
    crypto_bytes = 0
    crypto_rounds = 0
    for _ in range(requests):
        image = rng.random((1, 3, 32, 32), dtype=np.float32)
        start = time.perf_counter()
        result = pipeline.infer(image)
        online_s += time.perf_counter() - start
        crypto_bytes += result.crypto_bytes
        crypto_rounds += result.crypto_rounds
    return {
        "model": "resnet20",
        "width_mult": 0.25,
        "boundary": 3.5,
        "batch": 1,
        "requests": requests,
        "offline_s": offline_s,
        "online_s": online_s,
        "amortized_online_s": online_s / requests,
        "crypto_bytes": crypto_bytes,
        "crypto_rounds": crypto_rounds,
    }


def bench_serve_placements(requests: int = 4) -> dict:
    """End-to-end resnet20 serving under all three party placements.

    Runs the identical request stream through the in-process pipeline, a
    socket-loopback client/server pair, and a shared-memory client/server
    pair (each remote placement against a fresh same-seeded ``c2pi
    serve`` *subprocess* — a genuine second party, so the shared-memory
    path is measured without GIL interference from the peer) and records
    per-placement latency plus a SHA-256 over the concatenated logits.
    The placements MUST agree byte-for-byte — the zero-copy transport
    work is only admissible because the bytes prove it changed nothing —
    and the remote placements must report ``bytes_match`` (measured
    socket/ring payload equal to the Channel accounting) on every reply.

    The resulting snapshot (``benchmarks/BENCH_serve.json``) is the
    serving-latency regression gate: see :func:`check_serve_snapshot`.
    """
    import hashlib
    import os
    import re
    import subprocess
    import sys
    from pathlib import Path

    import repro

    from ..core import C2PIPipeline
    from ..serve.remote import RemoteClient, _demo_victim

    victim = _demo_victim("resnet20", 0.25, 0)
    rng = np.random.default_rng(7)
    images = [rng.random((1, 3, 32, 32), dtype=np.float32) for _ in range(requests)]

    def _sha(logits_list) -> str:
        digest = hashlib.sha256()
        for logits in logits_list:
            digest.update(np.ascontiguousarray(logits, dtype=np.float32).tobytes())
        return digest.hexdigest()

    placements: dict[str, dict] = {}

    # -- in-process: both parties in one address space, no transport ----
    pipeline = C2PIPipeline(victim, 3.5, noise_magnitude=0.1, seed=5)
    pipeline.prepare_offline(batch=1, bundles=requests)
    times, logits = [], []
    for image in images:
        start = time.perf_counter()
        reply = pipeline.infer(image)
        times.append(time.perf_counter() - start)
        logits.append(reply.logits)
    placements["in-process"] = {
        "ms_per_inference": min(times) * 1e3,
        "amortized_ms": sum(times) * 1e3 / requests,
        "logits_sha256": _sha(logits),
    }

    # -- remote placements: fresh same-seeded server process each -------
    def _remote(shm: bool) -> dict:
        src_root = str(Path(repro.__file__).resolve().parents[1])
        # `--warm requests` pre-generates the offline pool: the
        # placement comparison measures the *online* serving path,
        # exactly like the in-process leg above (prepare_offline) — not
        # inline dealer generation.
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--listen", "127.0.0.1:0",
                "--arch", "resnet20", "--untrained-width", "0.25",
                "--model-seed", "0", "--boundary", "3.5",
                "--seed", "5", "--warm", str(requests), "--warm-batch", "1",
                "--once",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": src_root
                + os.pathsep
                + os.environ.get("PYTHONPATH", ""),
            },
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on [\d.]+:(\d+)", line)
            if not match:
                raise RuntimeError(f"server did not announce a port: {line!r}")
            client = RemoteClient(
                "127.0.0.1", int(match.group(1)),
                noise_magnitude=0.1, seed=5, shm=shm,
            )
            times, logits, matches = [], [], []
            for image in images:
                start = time.perf_counter()
                reply = client.infer(image)
                times.append(time.perf_counter() - start)
                logits.append(reply.logits)
                matches.append(bool(reply.bytes_match))
            shm_active = client.shm_active
            client.close()
            proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:  # pragma: no cover - crashed run
                proc.kill()
                proc.wait()
            proc.stdout.close()
        return {
            "ms_per_inference": min(times) * 1e3,
            "amortized_ms": sum(times) * 1e3 / requests,
            "logits_sha256": _sha(logits),
            "bytes_match": all(matches),
            "shm_active": shm_active,
        }

    placements["socket-loopback"] = _remote(shm=False)
    placements["shared-memory"] = _remote(shm=True)

    shas = {p["logits_sha256"] for p in placements.values()}
    return {
        "schema": 1,
        "model": "resnet20",
        "width_mult": 0.25,
        "boundary": 3.5,
        "batch": 1,
        "requests": requests,
        "calibration_s": calibration_workload_s(),
        "placements": placements,
        "logits_identical": len(shas) == 1,
        "logits_sha256": placements["in-process"]["logits_sha256"],
        "best_ms_per_inference": min(
            p["ms_per_inference"] for p in placements.values()
        ),
    }


def check_serve_snapshot(
    fresh: dict, snapshot: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Compare a fresh placement bench against the committed snapshot.

    Identity metrics (placement agreement, byte accounting, the logits
    hash itself — the full request stream is seeded) must hold exactly;
    per-placement latency is gated after calibration normalisation like
    the protocol bench's latency gates.
    """
    failures: list[str] = []
    if not fresh.get("logits_identical"):
        shas = {
            name: p.get("logits_sha256")
            for name, p in fresh.get("placements", {}).items()
        }
        failures.append(f"placements disagree on logits: {shas}")
    for name, placement in fresh.get("placements", {}).items():
        if "bytes_match" in placement and not placement["bytes_match"]:
            failures.append(
                f"{name}: measured wire payload diverged from Channel accounting"
            )
    if not fresh.get("placements", {}).get("shared-memory", {}).get(
        "shm_active", False
    ):
        failures.append("shared-memory placement fell back to the socket path")
    if fresh.get("logits_sha256") != snapshot.get("logits_sha256"):
        failures.append(
            f"serve logits drifted: {fresh.get('logits_sha256')} vs snapshot "
            f"{snapshot.get('logits_sha256')}"
        )
    scale = fresh["calibration_s"] / max(snapshot["calibration_s"], 1e-9)
    for name, placement in snapshot.get("placements", {}).items():
        ours = fresh.get("placements", {}).get(name)
        if ours is None:
            failures.append(f"placement missing from fresh run: {name}")
            continue
        # Remote placements ping-pong two OS processes per round, so
        # their latency rides the host scheduler: give them a doubled
        # relative band plus a wide absolute floor. The in-process leg
        # (the acceptance number) keeps the tight protocol-bench gate.
        if name == "in-process":
            slack, abs_ms = tolerance, 1.0
        else:
            slack, abs_ms = 2.0 * tolerance, 10.0
        budget = placement["ms_per_inference"] * scale * (1.0 + slack) + abs_ms
        if ours["ms_per_inference"] > budget:
            failures.append(
                f"{name} serve latency regressed: "
                f"{ours['ms_per_inference']:.2f} ms vs budget {budget:.2f} ms "
                f"(snapshot {placement['ms_per_inference']:.2f} ms, machine "
                f"scale x{scale:.2f}, tolerance {slack:.0%})"
            )
    return failures


def render_serve_report(report: dict) -> str:
    lines = [
        f"serve placements ({report['model']} b={report['boundary']}, "
        f"{report['requests']} requests, "
        f"logits identical: {report['logits_identical']})"
    ]
    for name, placement in report["placements"].items():
        extra = ""
        if "bytes_match" in placement:
            extra = f"  bytes_match={placement['bytes_match']}"
        if "shm_active" in placement:
            extra += f"  shm={placement['shm_active']}"
        lines.append(
            f"  {name:<16} {placement['ms_per_inference']:8.2f} ms/inference "
            f"(amortized {placement['amortized_ms']:.2f} ms){extra}"
        )
    return "\n".join(lines)


def run_serve_from_args(args) -> int:
    """Execute the placement bench for a parsed argument namespace."""
    snapshot = None
    requests = args.requests
    if args.check:
        with open(args.check) as handle:
            snapshot = json.load(handle)
        # The logits hash covers the whole seeded request stream, so the
        # check replays the snapshot's stream length.
        requests = snapshot["requests"]
    report = bench_serve_placements(requests)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_serve_report(report))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}")
    if snapshot is not None:
        tolerance = (
            args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        )
        failures = check_serve_snapshot(report, snapshot, tolerance)
        for failure in failures:
            print(f"SERVE BENCH REGRESSION: {failure}")
        if failures:
            return 1
        print(f"serve bench check against {args.check}: ok")
    return 0


def _boolean_words_packed() -> bool:
    """True when the dealer emits packed uint64 boolean material."""
    probe = TrustedDealer(seed=0).bit_triples((1,))
    return np.asarray(probe.a[0]).dtype == np.uint64


def run_bench(
    elements: int = 8192, repeats: int = 3, serve_requests: int = 2
) -> dict:
    """The full harness; returns the JSON-able snapshot dict."""
    report = {
        "schema": 1,
        "boolean_words_packed": _boolean_words_packed(),
        "calibration_s": calibration_workload_s(),
        "elements": elements,
        "repeats": repeats,
        "ops": bench_ops(elements, repeats),
        "offline": bench_offline(elements),
    }
    if serve_requests:
        report["serve"] = bench_serve(serve_requests)
    return report


# ----------------------------------------------------------------------
# snapshot regression check
# ----------------------------------------------------------------------
def check_snapshot(
    fresh: dict, snapshot: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Compare a fresh run against a committed snapshot.

    Returns a list of human-readable failures (empty = pass). Byte
    metrics are deterministic and must match exactly when both runs use
    the same representation; DReLU/ReLU online latency and, when both
    runs include the resnet20 serve, its offline generation time per
    bundle are compared after machine normalisation via the calibration
    workload (the offline gate with a tolerance of at least 50%).
    """
    failures: list[str] = []
    if fresh.get("boolean_words_packed") != snapshot.get("boolean_words_packed"):
        failures.append(
            "representation mismatch: fresh boolean_words_packed="
            f"{fresh.get('boolean_words_packed')} vs snapshot "
            f"{snapshot.get('boolean_words_packed')} — refresh the snapshot"
        )
        return failures

    if fresh.get("elements") != snapshot.get("elements"):
        # Neither the byte metrics nor the latency budget are comparable
        # across workload sizes — make mismatched use an explicit error
        # instead of a spurious failure or a vacuous pass.
        failures.append(
            f"element count mismatch: fresh {fresh.get('elements')} vs "
            f"snapshot {snapshot.get('elements')} — rerun with matching "
            "--elements"
        )
        return failures

    for op in ("drelu", "relu", "maxpool", "linear"):
        ours = fresh["ops"][op]["online_bytes"]
        theirs = snapshot["ops"][op]["online_bytes"]
        if ours != theirs:
            failures.append(
                f"{op} online bytes drifted: {ours} vs snapshot {theirs}"
            )
        ours = fresh["ops"][op]["rounds"]
        theirs = snapshot["ops"][op].get("rounds")
        if theirs is not None and ours != theirs:
            # Rounds are deterministic, and they are the denominator of
            # the ns-per-round budget: a drifted count voids the budget
            # comparison as well as the protocol structure.
            failures.append(f"{op} round count drifted: {ours} vs snapshot {theirs}")
    ours = fresh["offline"]["bit_triple_bytes_per_element"]
    theirs = snapshot["offline"]["bit_triple_bytes_per_element"]
    if ours != theirs:
        failures.append(
            "offline bit-triple bytes/element drifted: "
            f"{ours} vs snapshot {theirs}"
        )

    scale = fresh["calibration_s"] / max(snapshot["calibration_s"], 1e-9)

    def gate(what: str, measured: float, recorded: float, allowed: float) -> None:
        budget = recorded * scale * (1.0 + allowed) + _ABS_SLACK_S
        if measured > budget:
            failures.append(
                f"{what} regressed: {measured * 1e3:.2f} ms vs budget "
                f"{budget * 1e3:.2f} ms (snapshot {recorded * 1e3:.2f} ms, "
                f"machine scale x{scale:.2f}, tolerance {allowed:.0%})"
            )

    for op in ("drelu", "relu"):
        gate(
            f"{op} online latency",
            fresh["ops"][op]["online_s"],
            snapshot["ops"][op]["online_s"],
            tolerance,
        )
    if "serve" in fresh and "serve" in snapshot:
        # The offline phase: dealer generation per bundle (one bundle
        # per served request), so snapshots of different lengths compare.
        gate(
            "serve offline generation per bundle",
            fresh["serve"]["offline_s"] / fresh["serve"]["requests"],
            snapshot["serve"]["offline_s"] / snapshot["serve"]["requests"],
            max(tolerance, _OFFLINE_MIN_TOLERANCE),
        )
    return failures


# ----------------------------------------------------------------------
# rendering / CLI
# ----------------------------------------------------------------------
def render_report(report: dict) -> str:
    lines = [
        "protocol bench "
        f"(packed words: {report['boolean_words_packed']}, "
        f"calibration {report['calibration_s'] * 1e3:.1f} ms)"
    ]
    for name, op in report["ops"].items():
        per_round = op.get(
            "online_ns_per_round", op["online_s"] * 1e9 / max(1, op["rounds"])
        )
        lines.append(
            f"  {name:<8} {op['elements']:>7d} elems  "
            f"{op['online_s'] * 1e3:8.2f} ms online  "
            f"{op['online_bytes'] / 1e3:10.1f} KB  {op['rounds']:3d} rounds  "
            f"{per_round / 1e3:8.1f} us/round"
        )
    offline = report["offline"]
    lines.append(
        f"  offline  bit-triples {offline['bit_triple_bytes_per_element']:.1f} "
        f"B/elem, bundle {offline['bundle_bytes_per_element']:.1f} B/elem"
    )
    if "serve" in report:
        serve = report["serve"]
        lines.append(
            f"  serve    {serve['model']} b={serve['boundary']} "
            f"{serve['amortized_online_s'] * 1e3:8.1f} ms/inference online "
            f"({serve['crypto_bytes'] / 1e6:.2f} MB, {serve['crypto_rounds']} "
            "rounds total)"
        )
    return "\n".join(lines)


def run_from_args(args) -> int:
    """Execute the bench for a parsed argument namespace."""
    report = run_bench(args.elements, args.repeats, args.serve_requests)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}")
    if args.check:
        with open(args.check) as handle:
            snapshot = json.load(handle)
        tolerance = (
            args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        )
        failures = check_snapshot(report, snapshot, tolerance)
        for failure in failures:
            print(f"BENCH REGRESSION: {failure}")
        if failures:
            return 1
        print(f"bench check against {args.check}: ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    from ..cli import add_bench_arguments

    parser = argparse.ArgumentParser(
        description="C2PI protocol micro-benchmarks (per-op online "
        "latency/bytes, offline material, resnet20 serve)"
    )
    add_bench_arguments(parser)
    return run_from_args(parser.parse_args(argv))
