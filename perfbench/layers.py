"""The traced run's in-process layer pass.

Calls the layers under the serving path one by one, for one request of
the workload, and times each call from outside: program compilation,
dealer generation per material method (by replaying ``material_plan``
against a ``TrustedDealer``), bundle split/pack and unpack, both party
halves over ``QueueTransport.pair()``, the clear tail
(``model.forward_from``), ``PoolStore`` put/get and a dealer RPC fetch
through ``DealerClient``. Every call sits inside a span of the run's
tracer; the returned dict holds the per-layer metrics.
"""

from __future__ import annotations

import shutil
import threading
import time
from pathlib import Path
from statistics import median

import numpy as np

from repro import nn
from repro.mpc.dealer import TrustedDealer
from repro.mpc.fixedpoint import DEFAULT_CONFIG
from repro.mpc.party import PartyEngine, program_manifest
from repro.mpc.pool_store import PoolStore
from repro.mpc.preprocessing import (
    PartyMaterialStream,
    material_plan,
    pack_party_bundle,
    split_bundle,
    unpack_party_bundle,
)
from repro.mpc.program import compile_program
from repro.mpc.transport import QueueTransport
from repro.serve.dealer_service import DealerClient

from tracing import Tracer

#: Dealer material methods, in the order the per-layer metrics list them.
METHODS = (
    "bit_triples",
    "comparison_masks",
    "dabits",
    "beaver_triples",
    "linear_correlation",
)
REPEATS = 3  # bundles generated / calls timed per layer; medians reported


def _generate(dealer: TrustedDealer, plan, tracer: Tracer, parent: int,
              method_s: dict, method_elems: dict) -> list:
    """One bundle, timing every dealer call by method."""
    bundle = []
    for request in plan:
        with tracer.span(f"mpc.dealer.{request.method}", parent):
            start = time.perf_counter()
            if request.method == "linear_correlation":
                material = dealer.linear_correlation(request.shape,
                                                     request.ring_fn)
            else:
                material = getattr(dealer, request.method)(request.shape)
            method_s[request.method] += time.perf_counter() - start
        method_elems[request.method] += int(np.prod(request.shape))
        bundle.append((request, material))
    return bundle


def _party_run(program, bundle, blob0: bytes, image: np.ndarray,
               tracer: Tracer, parent: int):
    """Both party halves over an in-memory transport pair, one thread each."""
    client = PartyEngine.from_manifest(program_manifest(program), share_seed=1)
    server = PartyEngine.from_program(program, party=1)
    client_io, server_io = QueueTransport.pair()
    results: dict[int, object] = {}
    errors: list[BaseException] = []

    def half(party: int) -> None:
        try:
            with tracer.span(f"mpc.party.p{party}.run", parent):
                if party == 0:
                    stream = PartyMaterialStream(unpack_party_bundle(blob0))
                    results[0] = client.run(client_io, stream, x=image)
                else:
                    stream = PartyMaterialStream(split_bundle(bundle, 1))
                    results[1] = server.run(server_io, stream, batch=1)
        except BaseException as exc:  # re-raised in the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=half, args=(p,)) for p in (0, 1)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("party halves did not finish within 60 s")
    return elapsed, results[0], results[1]


def _kind_ms(result, kind: str) -> float:
    return sum(t.compute_s for t in result.tallies if t.kind == kind) * 1e3


def layer_pass(model, image: np.ndarray, session_seed: int,
               dealer_endpoint: tuple[str, int], scratch: Path,
               tracer: Tracer) -> dict[str, float]:
    """Time every layer once per repeat; return the per-layer metrics."""
    metrics: dict[str, float] = {}
    with tracer.span("layer_pass") as root:
        compile_s = []
        for _ in range(REPEATS):
            with tracer.span("mpc.program.compile", root):
                start = time.perf_counter()
                program = compile_program(model, 3.5, DEFAULT_CONFIG)
                compile_s.append(time.perf_counter() - start)
        plan = material_plan(program, 1)

        dealer = TrustedDealer(seed=session_seed)
        method_s = dict.fromkeys(METHODS, 0.0)
        method_elems = dict.fromkeys(METHODS, 0)
        gen_s, pack_s, unpack_s, run_s, tail_s = [], [], [], [], []
        for _ in range(REPEATS):
            with tracer.span("mpc.preprocessing.bundle_gen", root) as gen:
                start = time.perf_counter()
                bundle = _generate(dealer, plan, tracer, gen, method_s,
                                   method_elems)
                gen_s.append(time.perf_counter() - start)
            with tracer.span("mpc.preprocessing.split_pack", root):
                start = time.perf_counter()
                blob0 = pack_party_bundle(split_bundle(bundle, 0))
                pack_s.append(time.perf_counter() - start)
            blob1 = pack_party_bundle(split_bundle(bundle, 1))
            with tracer.span("mpc.preprocessing.unpack", root):
                start = time.perf_counter()
                unpack_party_bundle(blob0)
                unpack_s.append(time.perf_counter() - start)
            with tracer.span("mpc.party.run", root) as run:
                elapsed, client, server = _party_run(
                    program, bundle, blob0, image, tracer, run
                )
                run_s.append(elapsed)
            ring = (client.share + server.share).astype(np.uint64)
            boundary = DEFAULT_CONFIG.decode(ring)
            with tracer.span("models.clear_tail", root):
                start = time.perf_counter()
                with nn.no_grad():
                    model.forward_from(nn.Tensor(boundary), 3.5)
                tail_s.append(time.perf_counter() - start)

        metrics["mpc.program.compile_ms"] = median(compile_s) * 1e3
        metrics["mpc.preprocessing.bundle_gen_ms"] = median(gen_s) * 1e3
        metrics["mpc.preprocessing.split_pack_ms"] = median(pack_s) * 1e3
        metrics["mpc.preprocessing.unpack_ms"] = median(unpack_s) * 1e3
        metrics["mpc.preprocessing.bundle_mb"] = (len(blob0) + len(blob1)) / 1e6
        for method in METHODS:
            metrics[f"mpc.dealer.{method}_ns_per_elem"] = (
                method_s[method] / method_elems[method] * 1e9
            )
        metrics["mpc.party.run_ms"] = median(run_s) * 1e3
        for party, result in ((0, client), (1, server)):
            for kind in ("conv", "relu"):
                metrics[f"mpc.party.p{party}.{kind}_ms"] = _kind_ms(result, kind)
        metrics["models.clear_tail_ms"] = median(tail_s) * 1e3

        record = blob0 + blob1
        store_dir = scratch / "layer-store"
        store = PoolStore(store_dir)
        put_s, get_s = [], []
        try:
            for seq in range(REPEATS):
                with tracer.span("mpc.pool_store.put", root):
                    start = time.perf_counter()
                    store.put("layer-pass", seq, record)
                    put_s.append(time.perf_counter() - start)
                with tracer.span("mpc.pool_store.get", root):
                    start = time.perf_counter()
                    if store.get("layer-pass", seq) != record:
                        raise RuntimeError("PoolStore returned other bytes")
                    get_s.append(time.perf_counter() - start)
        finally:
            store.close()
            shutil.rmtree(store_dir, ignore_errors=True)
        metrics["mpc.pool_store.put_ms"] = median(put_s) * 1e3
        metrics["mpc.pool_store.get_ms"] = median(get_s) * 1e3

        # A stream the workload never touches, so the fetches below read
        # what this warm stored and leave the workload's streams alone.
        fresh_seed = session_seed ^ 0x5EED
        rpc = DealerClient(*dealer_endpoint, timeout=60.0)
        fetch_s = []
        try:
            with tracer.span("serve.dealer_service.warm", root):
                rpc.warm(1, fresh_seed, count=REPEATS)
            for seq in range(REPEATS):
                with tracer.span("serve.dealer_service.fetch", root):
                    start = time.perf_counter()
                    rpc.fetch(1, fresh_seed, seq)
                    fetch_s.append(time.perf_counter() - start)
        finally:
            rpc.close()
        metrics["serve.dealer_service.fetch_ms"] = median(fetch_s) * 1e3
    return metrics
