"""The crypto-producer service: byte-identity, durability, degradation.

The acceptance contract of the standalone dealer process:

* logits served from dealer-fetched material are **byte-identical** to
  the in-process (inline-generation) server under equal seeds;
* a ``kill -9``'d dealer restarts from its disk-backed store and the
  serving request rides the restart out — retried logits byte-identical,
  ``bundles_recovered > 0``, restored bundles actually re-served;
* a dealer link under scheduled chaos (drop / corrupt / stall) recovers
  inside the RPC retry loop — no fallback, logits unchanged;
* an unreachable dealer degrades gracefully to inline generation
  (counted in metrics, logits byte-identical), or — with fallback
  disabled — surfaces as a typed retriable busy reply that leaves the
  session connection alive;
* pool accounting balances across all of it;
* material from another material-stream version is never served: the
  version is part of the program fingerprint, which keys the store and
  the handshake.
"""

import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.mpc.chaos import ChaosController, FaultSpec
from repro.mpc.dealer import MATERIAL_STREAM
from repro.mpc.party import program_fingerprint, program_manifest
from repro.mpc.pool_store import PoolStore
from repro.mpc.preprocessing import unpack_party_bundle
from repro.mpc.program import compile_program
from repro.serve.chaos_check import TINY_BOUNDARY, tiny_victim
from repro.serve.dealer_service import (
    DealerClient,
    DealerError,
    DealerServer,
    _unpack_record,
    stream_key,
)
from repro.serve.remote import (
    PoolBusy,
    RemoteClient,
    RemoteServer,
    derive_session_seed,
)

REQUESTS = 2
CLIENT_TIMEOUT = 10.0


@pytest.fixture(scope="module")
def victim():
    return tiny_victim(0)


@pytest.fixture(scope="module")
def program(victim):
    return compile_program(victim, TINY_BOUNDARY)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(11).random((REQUESTS, 1, 2, 8, 8), np.float32)


def _start_server(victim, **kwargs):
    kwargs.setdefault("workers", 2)
    server = RemoteServer(victim, TINY_BOUNDARY, seed=3, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _session_logits(port, images, session="s", seed=9, retries=0):
    client = RemoteClient(
        "127.0.0.1", port, noise_magnitude=0.1, seed=seed, session=session,
        timeout=CLIENT_TIMEOUT,
    )
    logits = [
        client.infer(batch, retries=retries).logits.tobytes() for batch in images
    ]
    client.close()
    return logits


@pytest.fixture(scope="module")
def baseline_logits(victim, images):
    """Fault-free logits from an inline-generation server, same seeds."""
    server, thread = _start_server(victim)
    try:
        return _session_logits(server.port, images)
    finally:
        server.stop()
        thread.join(timeout=10.0)


def _start_dealer(program, store=None, **kwargs):
    dealer = DealerServer(program, store=store, **kwargs)
    dealer.start()
    return dealer


def _assert_balanced(metrics, served):
    for name, pool in metrics["pools"].items():
        outstanding = (
            pool["bundles_consumed"]
            - pool["bundles_returned"]
            - pool["bundles_poisoned"]
        )
        assert outstanding == served, (name, pool)


class TestDealerBackedServing:
    def test_logits_byte_identical_to_inline_generation(
        self, victim, program, images, baseline_logits, tmp_path
    ):
        store = PoolStore(tmp_path)
        dealer = _start_dealer(program, store=store)
        server, thread = _start_server(
            victim, dealer=("127.0.0.1", dealer.port)
        )
        try:
            logits = _session_logits(server.port, images)
            assert logits == baseline_logits
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
            assert metrics["dealer"]["bundles_fetched_remote"] == REQUESTS
            assert metrics["dealer"]["dealer_fallbacks"] == 0
            _assert_balanced(metrics, REQUESTS)
            assert store.stats.bundles_spilled == REQUESTS
        finally:
            server.stop()
            thread.join(timeout=10.0)
            dealer.stop()
            store.close()

    def test_direct_party_fetch_matches_server_forwarded_half(
        self, program, tmp_path
    ):
        """The stricter topology: a party fetching its own half directly
        receives bytes identical to the half the server would forward."""
        store = PoolStore(tmp_path)
        dealer = _start_dealer(program, store=store)
        client = DealerClient("127.0.0.1", dealer.port)
        try:
            joint = client.fetch(1, 42, 0)
            blob0, blob1, state = _unpack_record(joint)
            assert state, "joint record must carry the rng state"
            half0 = _unpack_record(client.fetch(1, 42, 0, party=0))
            half1 = _unpack_record(client.fetch(1, 42, 0, party=1))
            assert half0 == (blob0, b"", b"")
            assert half1 == (b"", blob1, b"")
        finally:
            client.close()
            dealer.stop()
            store.close()

    def test_restarted_dealer_continues_stream_identically(
        self, program, tmp_path
    ):
        """A dealer restarted from its store resumes the rng stream: the
        *next* (never-stored) bundle equals the uninterrupted stream's."""
        store = PoolStore(tmp_path)
        dealer = _start_dealer(program, store=store)
        client = DealerClient("127.0.0.1", dealer.port)
        uninterrupted = _start_dealer(program)  # in-memory, never restarted
        witness = DealerClient("127.0.0.1", uninterrupted.port)
        try:
            for seq in range(2):
                client.fetch(1, 7, seq)
            dealer.stop()
            client.close()
            store.close()

            reopened = PoolStore(tmp_path)
            revived = _start_dealer(program, store=reopened)
            client = DealerClient("127.0.0.1", revived.port)
            assert reopened.stats.bundles_recovered == 2
            record = client.fetch(1, 7, 2)  # beyond the stored tail
            expected = witness.fetch(1, 7, 2)
            _assert_records_equal(record, expected)
            stats = client.stats()
            assert stats["bundles_generated"] == 1  # only seq 2, no replay
            revived.stop()
            reopened.close()
        finally:
            client.close()
            witness.close()
            uninterrupted.stop()


def _assert_records_equal(record, reference):
    """Array-level equality of two sealed records (the npz container
    embeds zip timestamps, so raw blob bytes are never compared across
    separate generation times)."""
    for blob, blob_ref in zip(
        _unpack_record(record)[:2], _unpack_record(reference)[:2]
    ):
        items = unpack_party_bundle(blob)
        items_ref = unpack_party_bundle(blob_ref)
        assert len(items) == len(items_ref)
        for item, item_ref in zip(items, items_ref):
            assert item.method == item_ref.method
            assert sorted(item.arrays) == sorted(item_ref.arrays)
            for key, array_ref in item_ref.arrays.items():
                assert np.array_equal(item.arrays[key], array_ref), (
                    item.method, key,
                )


def _v1_fingerprint(program):
    """The fingerprint the program had under material stream v1, whose
    manifest carried no ``material_stream`` field."""
    manifest = program_manifest(program)
    manifest.pop("material_stream", None)
    canonical = json.dumps(manifest, sort_keys=True)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


class TestMaterialStreamVersion:
    def test_manifest_names_the_stream_version(self, program):
        assert program_manifest(program)["material_stream"] == MATERIAL_STREAM
        assert program_fingerprint(program) != _v1_fingerprint(program)

    def test_v1_keyed_store_is_never_served(self, program, tmp_path):
        """A store filled under the v1 key yields no hit for a v2 dealer:
        it generates fresh, byte-identical to a store-less dealer."""
        donor = _start_dealer(program)
        donor_client = DealerClient("127.0.0.1", donor.port)
        try:
            # A well-formed record from another stream stands in for v1
            # material of the same program.
            planted = donor_client.fetch(1, 99, 0)
        finally:
            donor_client.close()
            donor.stop()
        store = PoolStore(tmp_path)
        store.put(stream_key(_v1_fingerprint(program), 1, 7), 0, planted)
        dealer = _start_dealer(program, store=store)
        client = DealerClient("127.0.0.1", dealer.port)
        fresh = _start_dealer(program)
        witness = DealerClient("127.0.0.1", fresh.port)
        try:
            record = client.fetch(1, 7, 0)
            stats = client.stats()
            assert stats["served_from_store"] == 0
            assert stats["bundles_generated"] == 1
            _assert_records_equal(record, witness.fetch(1, 7, 0))
        finally:
            client.close()
            witness.close()
            dealer.stop()
            fresh.stop()
            store.close()

    def test_v1_fingerprint_client_is_refused(self, program):
        dealer = _start_dealer(program)
        stale = DealerClient(
            "127.0.0.1", dealer.port, fingerprint=_v1_fingerprint(program),
            timeout=2.0,
        )
        current = DealerClient(
            "127.0.0.1", dealer.port, fingerprint=program_fingerprint(program),
            timeout=2.0,
        )
        try:
            with pytest.raises(DealerError, match="fingerprint-mismatch"):
                stale.fetch(1, 7, 0)
            assert stale.rpc_retries == 0
            assert current.fetch(1, 7, 0)
        finally:
            stale.close()
            current.close()
            dealer.stop()


class TestWarmRefusal:
    def test_warm_replies_typed_error_and_keeps_connection(self, program):
        """Regression: a non-retriable DealerError raised while warming
        must come back as a typed error reply. Before the fix it escaped
        _dispatch and killed the connection thread without any reply, so
        the client retried a configuration error until its deadline and
        reported DealerUnreachable."""
        dealer = _start_dealer(program)  # in-memory cache, no store
        client = DealerClient("127.0.0.1", dealer.port, timeout=2.0)
        try:
            client.warm(1, 7, count=1)
            # Lose the stored history after the rng moved past it: the
            # next warm of seq 0 cannot regenerate without forking the
            # stream -> DealerError, immediately, with zero retries.
            dealer._streams[(1, 7)].cache.clear()
            with pytest.raises(DealerError, match="predates"):
                client.warm(1, 7, count=1)
            assert client.rpc_retries == 0
            # The refusal cost nothing but the reply: the same
            # connection still serves requests.
            assert client.stats()["ok"] is True
        finally:
            client.close()
            dealer.stop()


class TestChaosOnDealerLink:
    def test_rpc_rides_out_drop_corrupt_stall(
        self, victim, program, images, baseline_logits, tmp_path
    ):
        """Scheduled faults on the dealer link are absorbed inside the
        RPC retry loop: every bundle is still fetched remotely (zero
        fallbacks) and the logits stay byte-identical."""
        store = PoolStore(tmp_path)
        dealer = _start_dealer(program, store=store)
        controller = ChaosController(
            [
                FaultSpec("corrupt", label="dealer-req", occurrence=1),
                FaultSpec("drop", label="dealer-req", occurrence=2),
                FaultSpec("stall", label="dealer-req", occurrence=3,
                          stall_s=2.0),
            ]
        )
        server, thread = _start_server(
            victim,
            dealer=("127.0.0.1", dealer.port),
            dealer_timeout=1.0,
            # Room for all three faults (the stall alone holds the frame
            # for 2 s) before the fetch would give up and fall back.
            dealer_fetch_deadline=10.0,
            dealer_transport_wrapper=controller.wrap,
        )
        try:
            logits = _session_logits(server.port, images)
            assert logits == baseline_logits
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
            assert metrics["dealer"]["bundles_fetched_remote"] == REQUESTS
            assert metrics["dealer"]["dealer_fallbacks"] == 0
            assert metrics["dealer"]["dealer_rpc_retries"] >= 3
            assert len(controller.trace.events) == 3, "all faults fired"
        finally:
            server.stop()
            thread.join(timeout=10.0)
            dealer.stop()
            store.close()


class TestGracefulDegradation:
    def test_unreachable_dealer_falls_back_inline_byte_identically(
        self, victim, images, baseline_logits
    ):
        """No dealer at the endpoint at all: every bundle generates
        inline, counted as fallbacks, logits byte-identical."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        server, thread = _start_server(
            victim,
            dealer=("127.0.0.1", dead_port),
            dealer_timeout=0.3,
            dealer_fetch_deadline=0.3,
        )
        try:
            logits = _session_logits(server.port, images)
            assert logits == baseline_logits
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
            assert metrics["dealer"]["dealer_fallbacks"] == REQUESTS
            assert metrics["dealer"]["bundles_fetched_remote"] == 0
            _assert_balanced(metrics, REQUESTS)
        finally:
            server.stop()
            thread.join(timeout=10.0)

    def test_no_fallback_surfaces_typed_busy_and_keeps_connection(
        self, victim, program, images, baseline_logits, tmp_path
    ):
        """Fallback disabled + a dealer that refuses to generate: the
        client gets a typed retriable busy reply on a connection that
        stays alive — re-enabling material on the same connection serves
        byte-identical logits."""
        store = PoolStore(tmp_path)
        dealer = _start_dealer(program, store=store, generate=False)
        server, thread = _start_server(
            victim,
            dealer=("127.0.0.1", dealer.port),
            dealer_timeout=0.4,
            dealer_fetch_deadline=0.5,
            dealer_fallback=False,
        )
        client = RemoteClient(
            "127.0.0.1", server.port, noise_magnitude=0.1, seed=9,
            session="s", timeout=CLIENT_TIMEOUT,
        )
        try:
            with pytest.raises(PoolBusy):
                client.infer(images[0])
            transport_before = client.transport
            # The dealer starts generating again: the *same* connection
            # retries the same request key and succeeds.
            dealer.generate = True
            logits = [
                client.infer(batch, retries=3).logits.tobytes()
                for batch in images
            ]
            assert client.transport is transport_before
            assert logits == baseline_logits
            # Counters land after the reply is on the wire: quiesce the
            # session before reading them.
            client.close()
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
            assert metrics["requests_busy"] >= 1
            assert metrics["requests_served"] == REQUESTS
        finally:
            client.close()
            server.stop()
            thread.join(timeout=10.0)
            dealer.stop()
            store.close()

    def test_pool_exhausted_is_retriable_not_fatal(
        self, victim, images, baseline_logits
    ):
        """Satellite 2 on a plain (dealer-less) server: an exhausted
        strict pool answers with the typed busy reply; infer(retries=)
        backs off on the live connection and wins once material lands."""
        server, thread = _start_server(victim)
        pool = server.pool(1, session="s")
        pool.auto_refill = False
        client = RemoteClient(
            "127.0.0.1", server.port, noise_magnitude=0.1, seed=9,
            session="s", timeout=CLIENT_TIMEOUT,
        )
        try:
            with pytest.raises(PoolBusy):
                client.infer(images[0])
            refiller = threading.Timer(0.3, pool.refill, args=(REQUESTS,))
            refiller.start()
            logits = [
                client.infer(batch, retries=8).logits.tobytes()
                for batch in images
            ]
            refiller.join()
            assert logits == baseline_logits
            assert client.requests_retried >= 1
            client.close()
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
            assert metrics["requests_busy"] >= 1
            assert metrics["requests_served"] == REQUESTS
        finally:
            client.close()
            server.stop()
            thread.join(timeout=10.0)


class TestKillDashNine:
    def _spawn_dealer(self, store_dir, port=0, wait=True):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve.dealer_service",
                "--tiny", "0", "--boundary", str(TINY_BOUNDARY),
                "--listen", f"127.0.0.1:{port}", "--store", str(store_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        if not wait:
            return process, port
        banner = process.stdout.readline()
        assert "dealer listening on" in banner, banner
        bound = int(banner.rsplit(":", 1)[1])
        return process, bound

    def test_kill9_restart_serves_byte_identical_retried_logits(
        self, victim, images, baseline_logits, tmp_path
    ):
        """The tentpole acceptance: warm the dealer's store, serve one
        request, SIGKILL the dealer, restart it on the same port while a
        request is in flight — the serving process rides the restart out
        on recovered (restored-from-disk) bundles and the logits match
        the inline baseline byte for byte."""
        process, port = self._spawn_dealer(tmp_path)
        restarted = None
        server = None
        thread = None
        try:
            # Warm the *dealer's store* (not the server pool): both
            # stream positions are spilled to disk before the kill.
            warmer = DealerClient("127.0.0.1", port)
            warmer.warm(1, derive_session_seed(3, "s"), count=REQUESTS)
            warmer.close()

            server, thread = _start_server(
                victim, dealer=("127.0.0.1", port), dealer_timeout=2.0
            )
            client = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=9,
                session="s", timeout=CLIENT_TIMEOUT,
            )
            first = client.infer(images[0], retries=1).logits.tobytes()

            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=10.0)
            # Relaunch on the same port but do NOT wait for it to come
            # up: the next request is already retrying against a dead
            # endpoint and must ride the restart out inside its fetch
            # deadline.
            restarted, _ = self._spawn_dealer(tmp_path, port=port, wait=False)

            second = client.infer(images[1], retries=1).logits.tobytes()
            client.close()
            assert [first, second] == baseline_logits

            stats = DealerClient("127.0.0.1", port)
            dealer_stats = stats.stats()
            stats.close()
            assert dealer_stats["store"]["bundles_recovered"] >= REQUESTS
            assert dealer_stats["served_from_store"] >= 1

            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
            assert metrics["dealer"]["bundles_fetched_remote"] == REQUESTS
            assert metrics["dealer"]["dealer_fallbacks"] == 0
            _assert_balanced(metrics, REQUESTS)
        finally:
            if server is not None:
                server.stop()
                thread.join(timeout=10.0)
            for proc in (process, restarted):
                if proc is None:
                    continue
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10.0)
                proc.stdout.close()
