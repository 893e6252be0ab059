"""The bitsliced boolean engine: packed kernels, byte-identity, cost model.

Four pillars of the uint64 packing refactor are pinned here:

* **Kernel correctness** — the packed word kernels against a naive
  bit-loop reference, at ring-boundary values (0, +-1, 2^62, 2^63-1,
  -2^63) and under hypothesis-driven randomness;
* **Byte-identity** — the dealer's material stream v2 draws packed
  63-lane words natively in a fixed order (replicated draw by draw
  below), its material is uniform lane by lane, and the resnet20 smoke
  victim's logits (in-process *and* two-process loopback) hash to the
  v2 values recorded below;
* **Cost-model exactness** — the per-label byte predictions in
  :mod:`repro.mpc.costs` equal both the Channel accounting and the
  measured socket payload of a real loopback run;
* **Serialization** — per-party bundle halves round-trip with the packed
  word dtypes intact, at the packed (shrunken) sizes.
"""

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc import Channel, FixedPointConfig, TrustedDealer
from repro.mpc.costs import (
    SUFFIX_AND_ROUNDS,
    WORD_BYTES,
    dealer_label_traffic,
    dealer_material_bytes,
    drelu_label_bytes,
    relu_label_bytes,
    relu_offline_material_bytes,
)
from repro.mpc.party import PartyEngine, program_manifest
from repro.mpc.preprocessing import (
    PartyMaterialStream,
    PreprocessingPool,
    pack_party_bundle,
    split_bundle,
    unpack_party_bundle,
)
from repro.mpc.program import compile_program
from repro.mpc.protocols import (
    public_less_than_shared,
    secure_drelu,
    secure_msb,
    secure_relu,
)
from repro.mpc.protocols.comparison import word_parity
from repro.mpc.sharing import (
    COMPARISON_BITS,
    LOW63_MASK,
    pack_bit_words,
    reconstruct_additive,
    reconstruct_boolean,
    reconstruct_boolean_words,
    share_additive,
    share_boolean_words,
    unpack_bit_words,
)
from repro.mpc.transport import QueueTransport

CFG = FixedPointConfig(frac_bits=12)

# Ring-boundary values the comparison circuit must get right: 0, +-1,
# 2^62, 2^63 - 1 and -2^63 (the ring's most negative element).
RING_BOUNDARY_VALUES = np.array(
    [0, 1, (1 << 64) - 1, 1 << 62, (1 << 63) - 1, 1 << 63],
    dtype=np.uint64,
)

# Material stream v2 pins for the resnet20 smoke victim (width 0.25,
# model seed 0, boundary 3.5, pipeline seed 5, image rng(7)). Every
# serving path must reproduce them byte for byte; they may change only
# together with ``MATERIAL_STREAM``.
PINNED_RESNET20_LOGITS_SHA256 = (
    "1b094e34901b66068c24a391ce3988f6bff07a609abb06917cbd69661c5fc2c6"
)
# Joint-engine boundary shares for vgg16 width 0.125, boundary 2.5,
# dealer_seed 11, share_seed 5, image rng(7) — pins the *share* stream,
# not just the reconstruction.
PINNED_VGG_SHARE0_SHA256 = (
    "e4cbab542994034c9a0f6a8f675253a6162100d35c5ed4c18fc9eae2d9b21224"
)
PINNED_VGG_SHARE1_SHA256 = (
    "664c8e6596cd983fefde8e0aa1d51cdf3daf233a698689d35adb32e1f3cda584"
)


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def reference_less_than(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Naive bit-loop oracle for ``[z mod 2^63 < r mod 2^63]``.

    Walks the 63 bit positions from most to least significant, tracking
    the all-higher-bits-equal flag — the circuit specification evaluated
    one bit-plane at a time.
    """
    lt = np.zeros(z.shape, dtype=np.uint8)
    higher_equal = np.ones(z.shape, dtype=np.uint8)
    for i in range(COMPARISON_BITS - 1, -1, -1):
        z_i = ((z >> np.uint64(i)) & np.uint64(1)).astype(np.uint8)
        r_i = ((r >> np.uint64(i)) & np.uint64(1)).astype(np.uint8)
        lt ^= r_i & (1 - z_i) & higher_equal
        higher_equal &= 1 ^ z_i ^ r_i
    return lt


class TestPackedWords:
    @given(st.integers(0, 2**31), st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_pack_unpack_roundtrip(self, seed, k):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(7, k), dtype=np.uint8)
        words = pack_bit_words(bits)
        assert words.dtype == np.uint64 and words.shape == (7,)
        np.testing.assert_array_equal(unpack_bit_words(words, k), bits)

    def test_pack_is_little_endian(self):
        bits = np.zeros((1, 63), dtype=np.uint8)
        bits[0, 0] = 1
        bits[0, 62] = 1
        assert int(pack_bit_words(bits)[0]) == 1 | (1 << 62)

    def test_pack_rejects_too_many_lanes(self):
        with pytest.raises(ValueError, match="65 bits"):
            pack_bit_words(np.zeros((2, 65), dtype=np.uint8))

    def test_word_parity_matches_popcount(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 1 << 63, size=(257,), dtype=np.uint64)
        expected = np.array(
            [bin(int(w)).count("1") & 1 for w in words], dtype=np.uint8
        )
        np.testing.assert_array_equal(word_parity(words), expected)

    def test_share_words_reconstruct(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=(11, 63), dtype=np.uint8)
        w0, w1 = share_boolean_words(pack_bit_words(bits), rng)
        np.testing.assert_array_equal(w0 ^ w1, pack_bit_words(bits))

    def test_share_words_refuse_lane_63(self):
        with pytest.raises(ValueError, match="lane 63"):
            share_boolean_words(
                np.array([1 << 63], dtype=np.uint64), np.random.default_rng(0)
            )


class TestAgainstNaiveReference:
    def test_less_than_at_ring_boundaries(self):
        """Every (z, r) pair from the boundary set, via the real circuit."""
        grid_z, grid_r = np.meshgrid(
            RING_BOUNDARY_VALUES, RING_BOUNDARY_VALUES, indexing="ij"
        )
        z = (grid_z.reshape(-1) & LOW63_MASK).astype(np.uint64)
        r = (grid_r.reshape(-1) & LOW63_MASK).astype(np.uint64)
        rng = np.random.default_rng(0)
        r_words = share_boolean_words(r, rng)
        lt = public_less_than_shared(
            z, r_words, TrustedDealer(seed=0), Channel()
        )
        np.testing.assert_array_equal(
            reconstruct_boolean(*lt), reference_less_than(z, r)
        )
        np.testing.assert_array_equal(
            reference_less_than(z, r), (z < r).astype(np.uint8)
        )

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_less_than_matches_reference_on_random_words(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.integers(0, 1 << 63, size=(64,), dtype=np.uint64)
        r = rng.integers(0, 1 << 63, size=(64,), dtype=np.uint64)
        r_words = share_boolean_words(r, rng)
        lt = public_less_than_shared(
            z, r_words, TrustedDealer(seed=seed), Channel()
        )
        np.testing.assert_array_equal(
            reconstruct_boolean(*lt), reference_less_than(z, r)
        )

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_msb_at_ring_boundaries(self, seed):
        """Sign extraction at 0, +-1, 2^62, 2^63-1 and -2^63 exactly."""
        rng = np.random.default_rng(seed)
        values = RING_BOUNDARY_VALUES
        msb = secure_msb(
            share_additive(values, rng), TrustedDealer(seed=seed), Channel()
        )
        np.testing.assert_array_equal(
            reconstruct_boolean(*msb),
            ((values >> np.uint64(63)) & np.uint64(1)).astype(np.uint8),
        )

    def test_relu_at_ring_boundaries(self):
        rng = np.random.default_rng(9)
        values = RING_BOUNDARY_VALUES
        ys = secure_relu(
            share_additive(values, rng), TrustedDealer(seed=9), Channel()
        )
        signed = values.astype(np.int64)
        expected = np.where(signed >= 0, values, np.uint64(0)).astype(np.uint64)
        np.testing.assert_array_equal(reconstruct_additive(*ys), expected)


def _reference_words(reference: np.random.Generator, shape) -> np.ndarray:
    """Material stream v2's word draw, replicated: one full-range uint64
    per element with lane 63 masked off."""
    return reference.integers(0, 1 << 64, size=shape, dtype=np.uint64) & LOW63_MASK


class TestDealerDrawEquivalence:
    """Material stream v2's draw order, replicated draw by draw.

    ``bit_triples`` draws ``a``, ``b`` and the share-0 words of a, b and
    ``c = a & b`` as one 63-lane word per element; ``comparison_masks``
    draws ``r``, r's additive share 0, the share-0 word of its low 63
    bits, then the MSB share-0 bits. Pinning the order pins every later
    arithmetic draw (and hence every truncation rounding and the logits).
    """

    def test_bit_triples_draw_words(self):
        triple = TrustedDealer(seed=123).bit_triples((5,))
        reference = np.random.default_rng(123)
        a = _reference_words(reference, (5,))
        b = _reference_words(reference, (5,))
        for pair, secret in ((triple.a, a), (triple.b, b), (triple.c, a & b)):
            share0 = _reference_words(reference, (5,))
            np.testing.assert_array_equal(pair[0], share0)
            np.testing.assert_array_equal(pair[1], secret ^ share0)

    def test_arithmetic_draws_follow_boolean_requests(self):
        """A beaver triple drawn after boolean material matches a replica
        of the v2 stream position."""
        dealer = TrustedDealer(seed=7)
        dealer.bit_triples((3,))
        dealer.comparison_masks((4,))
        triple = dealer.beaver_triples((8,))

        reference = np.random.default_rng(7)
        for _ in range(5):  # bit triple: a, b + the three share-0 words
            _reference_words(reference, (3,))
        FixedPointConfig.random_ring(reference, (4,))  # comparison mask r
        FixedPointConfig.random_ring(reference, (4,))  # r's additive share0
        _reference_words(reference, (4,))  # low-bits share0 word
        reference.integers(0, 2, size=(4,), dtype=np.uint8)  # msb share0
        a = FixedPointConfig.random_ring(reference, (8,))
        np.testing.assert_array_equal(reconstruct_additive(*triple.a), a)

    def test_joint_engine_shares_match_stream_v2_pin(self):
        from repro.models import vgg16

        victim = vgg16(width_mult=0.125, rng=np.random.default_rng(0)).eval()
        program = compile_program(victim, 2.5)
        from repro.mpc import SecureInferenceEngine

        pool = PreprocessingPool(program, batch=1, dealer_seed=11)
        pool.refill(1)
        engine = SecureInferenceEngine.from_program(
            program, dealer_seed=11, share_seed=5
        )
        image = np.random.default_rng(7).random((1, 3, 32, 32), dtype=np.float32)
        result = engine.run(image, material=pool.acquire())
        assert _sha256(result.shares[0]) == PINNED_VGG_SHARE0_SHA256
        assert _sha256(result.shares[1]) == PINNED_VGG_SHARE1_SHA256


# Distribution check for v2 material: byte pins cannot catch a biased
# draw, lane frequencies can. Over DISTRIBUTION_WORDS words a fair lane's
# frequency has standard deviation 0.5 / sqrt(65536) ~= 0.002, so the
# tolerance sits at ~5 sigma — far from a fair draw, far below a stuck
# lane's 0.5 deviation.
DISTRIBUTION_WORDS = 1 << 16
LANE_TOLERANCE = 0.01


def _lane_defects(words: np.ndarray) -> list[str]:
    """Why ``words`` are not uniform 63-lane words (empty when they are)."""
    lanes = unpack_bit_words(words.reshape(-1), 64)
    defects = []
    if lanes[:, 63].any():
        defects.append("lane 63 set")
    frequency = lanes[:, :COMPARISON_BITS].mean(axis=0)
    for lane in np.flatnonzero(np.abs(frequency - 0.5) > LANE_TOLERANCE):
        defects.append(f"lane {lane} frequency {frequency[lane]:.4f}")
    return defects


def _stream_defects(seed: int = 31) -> dict[str, list[str]]:
    """Lane defects of every share word one dealer emits, by array name."""
    dealer = TrustedDealer(seed=seed)
    triple = dealer.bit_triples((DISTRIBUTION_WORDS,))
    mask = dealer.comparison_masks((DISTRIBUTION_WORDS,))
    arrays = {
        f"{name}[{party}]": pair[party]
        for name, pair in (
            ("a", triple.a),
            ("b", triple.b),
            ("c", triple.c),
            ("low_bits", mask.low_bits),
        )
        for party in (0, 1)
    }
    return {name: _lane_defects(words) for name, words in arrays.items()}


class TestMaterialStreamDistribution:
    """v2 material is correct and uniform lane by lane."""

    def test_bit_triples_hold_on_every_lane(self):
        triple = TrustedDealer(seed=17).bit_triples((4096,))
        a = reconstruct_boolean_words(*triple.a)
        b = reconstruct_boolean_words(*triple.b)
        c = reconstruct_boolean_words(*triple.c)
        np.testing.assert_array_equal(c, a & b)
        for pair in (triple.a, triple.b, triple.c):
            for share in pair:
                assert share.dtype == np.uint64
                assert not (share >> np.uint64(63)).any()

    def test_comparison_mask_low_bits_are_r_low63(self):
        mask = TrustedDealer(seed=18).comparison_masks((4096,))
        r = reconstruct_additive(*mask.r_shares)
        np.testing.assert_array_equal(
            reconstruct_boolean_words(*mask.low_bits), r & LOW63_MASK
        )
        np.testing.assert_array_equal(
            reconstruct_boolean(*mask.msb), (r >> np.uint64(63)).astype(np.uint8)
        )

    def test_every_share_is_uniform_per_lane(self):
        defects = _stream_defects()
        assert not any(defects.values()), defects

    def test_planted_off_by_one_is_caught(self, monkeypatch):
        """Drawing from [0, 2**62) leaves lane 62 stuck at zero."""
        import repro.mpc.dealer as dealer_module
        import repro.mpc.sharing as sharing_module

        def biased_words(rng, shape):
            half = LOW63_MASK >> np.uint64(1)
            return FixedPointConfig.random_ring(rng, shape) & half

        monkeypatch.setattr(dealer_module, "random_words", biased_words)
        monkeypatch.setattr(sharing_module, "random_words", biased_words)
        defects = _stream_defects()
        # a and b are biased secrets; every share-0 word is biased too.
        for name in ("a[0]", "b[0]", "c[0]", "low_bits[0]"):
            assert defects[name] == ["lane 62 frequency 0.0000"], name


@pytest.fixture(scope="module")
def resnet_victim():
    from repro.serve.remote import _demo_victim

    return _demo_victim("resnet20", 0.25, 0)


@pytest.fixture(scope="module")
def resnet_image():
    return np.random.default_rng(7).random((1, 3, 32, 32), dtype=np.float32)


class TestLogitsPin:
    """Acceptance pin: packed-circuit logits byte-identical to the
    stream v2 pin, in-process and over the two-process loopback."""

    def test_in_process_pipeline_logits(self, resnet_victim, resnet_image):
        from repro.core import C2PIPipeline

        pipeline = C2PIPipeline(resnet_victim, 3.5, noise_magnitude=0.1, seed=5)
        pipeline.prepare_offline(batch=1, bundles=1)
        result = pipeline.infer(resnet_image)
        assert (
            _sha256(np.asarray(result.logits, dtype=np.float32))
            == PINNED_RESNET20_LOGITS_SHA256
        )

    def test_two_process_loopback_logits(self, resnet_victim, resnet_image):
        from repro.serve.remote import RemoteClient, RemoteServer

        server = RemoteServer(resnet_victim, 3.5, seed=5)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=5
            )
            reply = client.infer(resnet_image)
            client.close()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert reply.bytes_match
        assert (
            _sha256(np.asarray(reply.logits, dtype=np.float32))
            == PINNED_RESNET20_LOGITS_SHA256
        )


class TestCostModelMatchesReality:
    def test_drelu_label_bytes_exact(self):
        rng = np.random.default_rng(0)
        n = 777
        x = share_additive(
            CFG.encode(rng.uniform(-4, 4, size=(n,)).astype(np.float32)), rng
        )
        channel = Channel()
        secure_drelu(x, TrustedDealer(seed=0), channel)
        predicted = drelu_label_bytes(n)
        measured = {
            label: snap.total_bytes for label, snap in channel.by_label.items()
        }
        assert measured == predicted
        assert channel.rounds == 1 + SUFFIX_AND_ROUNDS

    def test_relu_label_bytes_exact(self):
        rng = np.random.default_rng(1)
        n = 1024
        x = share_additive(
            CFG.encode(rng.uniform(-4, 4, size=(n,)).astype(np.float32)), rng
        )
        channel = Channel()
        secure_relu(x, TrustedDealer(seed=1), channel)
        measured = {
            label: snap.total_bytes for label, snap in channel.by_label.items()
        }
        assert measured == relu_label_bytes(n)

    def test_relu_offline_material_bytes_exact(self):
        """The modeled material footprint equals the generated arrays."""
        from repro.bench.protocols import _CollectingDealer, material_nbytes

        n = 513
        rng = np.random.default_rng(2)
        x = share_additive(
            CFG.encode(rng.uniform(-4, 4, size=(n,)).astype(np.float32)), rng
        )
        collector = _CollectingDealer(TrustedDealer(seed=2))
        secure_relu(x, collector, Channel())
        measured: dict = {}
        for request, material in collector.items:
            measured[request.method] = measured.get(
                request.method, 0
            ) + material_nbytes(material)
        assert measured == relu_offline_material_bytes(n)
        # The packed bit-triple footprint: 336 B/element (was 2646).
        assert measured["bit_triples"] == 336 * n

    def test_loopback_payload_matches_plan_prediction(
        self, resnet_victim, resnet_image
    ):
        """The CI contract: measured and-open socket payload (and every
        other protocol label) equals the costs.py prediction derived from
        the material plan alone."""
        program = compile_program(resnet_victim, 3.5)
        pool = PreprocessingPool(program, batch=1, dealer_seed=3)
        bundle = pool.acquire_bundle()
        predicted = dealer_label_traffic(pool.requirements())

        client_io, server_io = QueueTransport.pair()
        client = PartyEngine.from_manifest(
            program_manifest(program), share_seed=4
        )
        server = PartyEngine.from_program(program, party=1)
        out = {}

        def server_side():
            out["server"] = server.run(
                server_io, PartyMaterialStream(split_bundle(bundle, 1)), batch=1
            )

        thread = threading.Thread(target=server_side)
        thread.start()
        out["client"] = client.run(
            client_io,
            PartyMaterialStream(split_bundle(bundle, 0)),
            x=resnet_image,
        )
        thread.join()

        transport = out["client"].transport
        for label, expected in predicted.items():
            accounted = transport.by_label[label].total_bytes
            measured = transport.stats.raw_by_label[label]
            assert accounted == expected, label
            assert measured == expected, label
        # The prediction plus the input share covers the whole online phase.
        input_bytes = transport.by_label["input-share"].total_bytes
        assert sum(predicted.values()) + input_bytes == transport.total_bytes

    def test_material_bytes_prediction(self, resnet_victim):
        program = compile_program(resnet_victim, 3.5)
        pool = PreprocessingPool(program, batch=1, dealer_seed=5)
        bundle = pool.acquire_bundle()
        from repro.bench.protocols import material_nbytes

        measured: dict = {}
        for request, material in bundle:
            if request.method == "linear_correlation":
                continue
            measured[request.method] = measured.get(
                request.method, 0
            ) + material_nbytes(material)
        assert measured == dealer_material_bytes(pool.requirements())


class TestPackedBundleSerialization:
    def test_party_halves_roundtrip_with_word_dtypes(self, resnet_victim):
        program = compile_program(resnet_victim, 3.5)
        pool = PreprocessingPool(program, batch=1, dealer_seed=6)
        items = split_bundle(pool.acquire_bundle(), 0)
        restored = unpack_party_bundle(pack_party_bundle(items))
        assert [item.method for item in restored] == [
            item.method for item in items
        ]
        for ours, theirs in zip(restored, items):
            for key in theirs.arrays:
                assert ours.arrays[key].dtype == theirs.arrays[key].dtype
                np.testing.assert_array_equal(ours.arrays[key], theirs.arrays[key])
        # Packed boolean halves: triple words and mask words are uint64.
        bit_items = [item for item in restored if item.method == "bit_triples"]
        assert bit_items and all(
            item.arrays[key].dtype == np.uint64
            for item in bit_items
            for key in ("a", "b", "c")
        )
        mask_items = [
            item for item in restored if item.method == "comparison_masks"
        ]
        assert mask_items and all(
            item.arrays["low_bits"].dtype == np.uint64 for item in mask_items
        )

    def test_packed_halves_are_smaller_than_byte_per_bit(self, resnet_victim):
        """>= 4x offline shrink: one party's bit-triple half costs 8 bytes
        per element per array versus 63 in the seed layout."""
        program = compile_program(resnet_victim, 3.5)
        pool = PreprocessingPool(program, batch=1, dealer_seed=8)
        items = split_bundle(pool.acquire_bundle(), 0)
        packed_bits = sum(
            array.nbytes
            for item in items
            if item.method == "bit_triples"
            for array in item.arrays.values()
        )
        elements = sum(
            item.arrays["a"].size
            for item in items
            if item.method == "bit_triples"
        )
        assert packed_bits == elements * 3 * WORD_BYTES
        byte_per_bit_baseline = elements * 3 * COMPARISON_BITS
        assert byte_per_bit_baseline >= 4 * packed_bits
