"""Tests for fixed-point encoding and secret sharing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mpc import FixedPointConfig, unpack_bit_words
from repro.mpc.sharing import (
    reconstruct_additive,
    reconstruct_boolean,
    share_additive,
    share_boolean,
)

float_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=16),
    elements=st.floats(-1000, 1000, allow_nan=False, width=32),
)


class TestFixedPoint:
    @given(float_arrays)
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_roundtrip(self, values):
        cfg = FixedPointConfig(frac_bits=12)
        decoded = cfg.decode(cfg.encode(values))
        np.testing.assert_allclose(decoded, values, atol=1.0 / 4096 + 1e-6)

    def test_negative_values(self):
        cfg = FixedPointConfig()
        values = np.array([-1.5, -0.001, 0.0, 0.001, 1.5])
        np.testing.assert_allclose(cfg.decode(cfg.encode(values)), values, atol=3e-4)

    def test_precision_scales_with_frac_bits(self):
        value = np.array([1.0 / 3.0])
        low = FixedPointConfig(frac_bits=4)
        high = FixedPointConfig(frac_bits=20)
        err_low = abs(float(low.decode(low.encode(value))[0]) - 1 / 3)
        err_high = abs(float(high.decode(high.encode(value))[0]) - 1 / 3)
        assert err_high < err_low

    def test_overflow_raises(self):
        cfg = FixedPointConfig(frac_bits=12)
        with pytest.raises(OverflowError):
            cfg.encode(np.array([1e18]))

    def test_msb_is_sign_bit(self):
        cfg = FixedPointConfig()
        encoded = cfg.encode(np.array([-2.0, -0.001, 0.0, 0.001, 2.0]))
        np.testing.assert_array_equal(FixedPointConfig.msb(encoded), [1, 1, 0, 0, 0])

    def test_neg_is_additive_inverse(self):
        cfg = FixedPointConfig()
        x = cfg.encode(np.array([1.25, -3.5, 0.0]))
        total = (x + FixedPointConfig.neg(x)).astype(np.uint64)
        np.testing.assert_array_equal(total, 0)

    def test_random_ring_covers_high_bits(self):
        rng = np.random.default_rng(0)
        sample = FixedPointConfig.random_ring(rng, (4096,))
        assert (sample >> np.uint64(63)).mean() == pytest.approx(0.5, abs=0.05)


class TestSharing:
    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_additive_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        secret = FixedPointConfig.random_ring(rng, (32,))
        s0, s1 = share_additive(secret, rng)
        np.testing.assert_array_equal(reconstruct_additive(s0, s1), secret)

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_boolean_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(64,), dtype=np.uint8)
        b0, b1 = share_boolean(bits, rng)
        np.testing.assert_array_equal(reconstruct_boolean(b0, b1), bits)

    def test_single_share_is_unbiased(self):
        """One share alone is (statistically) independent of the secret."""
        rng = np.random.default_rng(0)
        zeros = np.zeros(20000, dtype=np.uint64)
        ones = np.full(20000, 12345, dtype=np.uint64)
        s0_zeros, _ = share_additive(zeros, np.random.default_rng(1))
        s0_ones, _ = share_additive(ones, np.random.default_rng(2))
        # Compare the top-bit frequency of the shares for the two secrets.
        f_zeros = (s0_zeros >> np.uint64(63)).mean()
        f_ones = (s0_ones >> np.uint64(63)).mean()
        assert abs(f_zeros - 0.5) < 0.02 and abs(f_ones - 0.5) < 0.02

    def test_unpack_bit_words_little_endian(self):
        bits = unpack_bit_words(np.array([0b1011], dtype=np.uint64), 5)
        np.testing.assert_array_equal(bits[0], [1, 1, 0, 1, 0])

    @given(st.integers(0, 2**63 - 1))
    @settings(max_examples=40, deadline=None)
    def test_unpack_bit_words_reconstructs(self, value):
        bits = unpack_bit_words(np.array([value], dtype=np.uint64), 63)
        recomposed = sum(int(b) << i for i, b in enumerate(bits[0]))
        assert recomposed == value


class TestRingBoundaries:
    """Adversarial-value coverage for encode/decode at the ring edges.

    The reveal + clear phase decodes values a (possibly malicious or
    noise-perturbed) client influenced, so the decoder must behave at
    exactly the representation boundaries: the encoder's +/-2^62 overflow
    guard, the 2^63 sign flip, and the zero crossing — not only on the
    well-behaved floats the happy path produces.
    """

    def test_encoder_bound_is_exact(self):
        """Values scale to just under 2^62 encode; the bound itself raises."""
        cfg = FixedPointConfig(frac_bits=12)
        limit = float(1 << (64 - 2 - cfg.frac_bits))  # |x| < 2^62 / 2^f
        good = np.array([limit - 1.0, -(limit - 1.0)])
        np.testing.assert_allclose(cfg.decode(cfg.encode(good)), good, rtol=1e-6)
        for bad in (limit, -limit, limit * 2):
            with pytest.raises(OverflowError):
                cfg.encode(np.array([bad]))

    def test_max_negative_round_trips(self):
        """The most negative encodable value survives encode/decode; its
        ring image sits in the upper half (sign bit set)."""
        cfg = FixedPointConfig(frac_bits=12)
        most_negative = -(float(1 << 50) - 1.0)  # scaled: -(2^62 - 2^12)
        ring = cfg.encode(np.array([most_negative]))
        assert FixedPointConfig.msb(ring)[0] == 1
        assert cfg.decode(ring)[0] == np.float32(most_negative)

    def test_decode_is_signed_interpretation_of_any_ring_value(self):
        """decode() on arbitrary (attacker-chosen) uint64s equals the
        two's-complement reading — including both sides of 2^63."""
        cfg = FixedPointConfig(frac_bits=12)
        half = 1 << 63
        adversarial = np.array(
            [0, 1, half - 1, half, half + 1, (1 << 64) - 1], dtype=np.uint64
        )
        expected = np.array(
            [0, 1, half - 1, -half, -half + 1, -1], dtype=np.float64
        ) / (1 << 12)
        np.testing.assert_allclose(
            cfg.decode(adversarial), expected.astype(np.float32), rtol=1e-6
        )

    def test_zero_crossing_quantization(self):
        """Around zero, sub-precision magnitudes quantize to the nearest
        step with round-half-to-even — never across the sign boundary by
        more than one step."""
        cfg = FixedPointConfig(frac_bits=12)
        step = 1.0 / (1 << 12)
        values = np.array([-step, -step / 2, -step / 4, 0.0, step / 4, step / 2, step])
        decoded = cfg.decode(cfg.encode(values))
        np.testing.assert_allclose(
            decoded, [-step, -0.0, 0.0, 0.0, 0.0, 0.0, step], atol=1e-9
        )

    @pytest.mark.parametrize("frac_bits", [4, 12, 20])
    def test_seeded_sweep_roundtrip_within_half_step(self, frac_bits):
        """10k seeded values spanning the full encodable range round-trip
        within half a quantization step (in float64 arithmetic)."""
        cfg = FixedPointConfig(frac_bits=frac_bits)
        rng = np.random.default_rng(frac_bits)
        limit = float(1 << (64 - 2 - frac_bits))
        # float32 decode caps useful magnitudes; sweep the float32-exact span.
        span = min(limit * 0.999, 2.0**20)
        values = rng.uniform(-span, span, size=10_000)
        ring = cfg.encode(values)
        signed = ring.astype(np.int64).astype(np.float64) / (1 << frac_bits)
        np.testing.assert_allclose(
            signed, values, atol=0.5 / (1 << frac_bits) + 1e-9
        )

    def test_seeded_sweep_wraparound_additivity(self):
        """Ring addition of encodings decodes to real addition (mod the
        ring) even when the intermediate crosses 2^63 — the property the
        noised reveal relies on when the client adds encode(Delta)."""
        cfg = FixedPointConfig(frac_bits=12)
        rng = np.random.default_rng(99)
        a = rng.uniform(-1000, 1000, size=4096)
        b = rng.uniform(-1000, 1000, size=4096)
        total = (cfg.encode(a) + cfg.encode(b)).astype(np.uint64)
        np.testing.assert_allclose(
            cfg.decode(total), (a + b).astype(np.float32), atol=2.5e-4
        )

    def test_neg_at_the_edges(self):
        zero = np.array([0], dtype=np.uint64)
        np.testing.assert_array_equal(FixedPointConfig.neg(zero), zero)
        half = np.array([1 << 63], dtype=np.uint64)
        # -(-2^63) wraps to itself in two's complement.
        np.testing.assert_array_equal(FixedPointConfig.neg(half), half)
        one = np.array([1], dtype=np.uint64)
        np.testing.assert_array_equal(
            FixedPointConfig.neg(one), np.array([(1 << 64) - 1], dtype=np.uint64)
        )
