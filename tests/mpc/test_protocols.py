"""Tests for the online 2PC protocols against plaintext oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc import Channel, FixedPointConfig, TrustedDealer
from repro.mpc.protocols import (
    beaver_multiply,
    bit_to_arithmetic,
    boolean_and,
    multiply_public_constant,
    open_shares,
    public_less_than_shared,
    secure_drelu,
    secure_linear,
    secure_maximum,
    secure_msb,
    secure_relu,
    truncate_shares,
)
from repro.mpc.sharing import (
    LOW63_MASK,
    pack_bit_words,
    reconstruct_additive,
    reconstruct_boolean,
    reconstruct_boolean_words,
    share_additive,
    share_boolean,
    share_boolean_words,
)

CFG = FixedPointConfig(frac_bits=12)


def setup(seed=0):
    return TrustedDealer(seed=seed), Channel(), np.random.default_rng(seed + 100)


class TestBeaver:
    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_multiply_matches_ring_product(self, seed):
        dealer, channel, rng = setup(seed)
        x = FixedPointConfig.random_ring(rng, (64,))
        y = FixedPointConfig.random_ring(rng, (64,))
        zs = beaver_multiply(share_additive(x, rng), share_additive(y, rng), dealer, channel)
        np.testing.assert_array_equal(reconstruct_additive(*zs), (x * y).astype(np.uint64))

    def test_multiply_counts_one_round(self):
        dealer, channel, rng = setup()
        x = share_additive(FixedPointConfig.random_ring(rng, (8,)), rng)
        beaver_multiply(x, x, dealer, channel)
        assert channel.rounds == 1
        assert channel.total_bytes == 2 * 2 * 8 * 8  # (d,e) both ways

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_boolean_and(self, seed):
        """Bitsliced AND: 128 elements x 63 lanes in one word-parallel call."""
        dealer, channel, rng = setup(seed)
        a = rng.integers(0, 2, size=(128, 63), dtype=np.uint8)
        b = rng.integers(0, 2, size=(128, 63), dtype=np.uint8)
        zs = boolean_and(
            share_boolean_words(pack_bit_words(a), rng),
            share_boolean_words(pack_bit_words(b), rng),
            dealer,
            channel,
        )
        expected = pack_bit_words((a & b).astype(np.uint8))
        np.testing.assert_array_equal(reconstruct_boolean_words(*zs), expected)

    def test_boolean_and_payload_is_raw_word_bytes(self):
        dealer, channel, rng = setup(1)
        bits = rng.integers(0, 2, size=(64, 63), dtype=np.uint8)
        shares = share_boolean_words(pack_bit_words(bits), rng)
        boolean_and(shares, shares, dealer, channel)
        # (d, e) words both ways: 2 * 2 * 8 bytes per element, one round.
        assert channel.total_bytes == 2 * 2 * 8 * 64
        assert channel.rounds == 1


class TestComparison:
    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_public_less_than_shared(self, seed):
        dealer, channel, rng = setup(seed)
        z = rng.integers(0, 2**63, size=(50,), dtype=np.uint64)
        r = rng.integers(0, 2**63, size=(50,), dtype=np.uint64)
        r_words = share_boolean_words(r, rng)
        lt = public_less_than_shared(z & LOW63_MASK, r_words, dealer, channel)
        np.testing.assert_array_equal(reconstruct_boolean(*lt), (z < r).astype(np.uint8))

    def test_less_than_equal_values_is_false(self):
        dealer, channel, rng = setup(3)
        z = rng.integers(0, 2**63, size=(20,), dtype=np.uint64)
        r_words = share_boolean_words(z, rng)
        lt = public_less_than_shared(z & LOW63_MASK, r_words, dealer, channel)
        np.testing.assert_array_equal(reconstruct_boolean(*lt), 0)

    def test_comparison_round_count_is_logarithmic(self):
        dealer, channel, rng = setup()
        z = rng.integers(0, 2**63, size=(4,), dtype=np.uint64)
        r = rng.integers(0, 2**63, size=(4,), dtype=np.uint64)
        public_less_than_shared(
            z & LOW63_MASK,
            share_boolean_words(r, rng),
            dealer,
            channel,
        )
        # 6 suffix-AND doubling levels + 1 final AND level.
        assert channel.rounds == 7

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_secure_msb(self, seed):
        dealer, channel, rng = setup(seed)
        values = rng.uniform(-50, 50, size=(40,)).astype(np.float32)
        encoded = CFG.encode(values)
        msb = secure_msb(share_additive(encoded, rng), dealer, channel)
        np.testing.assert_array_equal(
            reconstruct_boolean(*msb), (values < 0).astype(np.uint8)
        )

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_secure_drelu(self, seed):
        dealer, channel, rng = setup(seed)
        values = rng.uniform(-10, 10, size=(40,)).astype(np.float32)
        drelu = secure_drelu(share_additive(CFG.encode(values), rng), dealer, channel)
        np.testing.assert_array_equal(
            reconstruct_boolean(*drelu), (values >= 0).astype(np.uint8)
        )

    def test_drelu_at_zero_is_one(self):
        dealer, channel, rng = setup()
        drelu = secure_drelu(
            share_additive(CFG.encode(np.zeros(8)), rng), dealer, channel
        )
        np.testing.assert_array_equal(reconstruct_boolean(*drelu), 1)


class TestB2AAndReLU:
    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_bit_to_arithmetic(self, seed):
        dealer, channel, rng = setup(seed)
        bits = rng.integers(0, 2, size=(64,), dtype=np.uint8)
        arith = bit_to_arithmetic(share_boolean(bits, rng), dealer, channel)
        np.testing.assert_array_equal(
            reconstruct_additive(*arith), bits.astype(np.uint64)
        )

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_secure_relu_matches_plaintext(self, seed):
        dealer, channel, rng = setup(seed)
        values = rng.uniform(-20, 20, size=(100,)).astype(np.float32)
        ys = secure_relu(share_additive(CFG.encode(values), rng), dealer, channel)
        decoded = CFG.decode(reconstruct_additive(*ys))
        np.testing.assert_allclose(decoded, np.maximum(values, 0), atol=2e-3)

    def test_secure_relu_round_budget(self):
        """1 reveal + 7 comparison + 1 b2a + 1 beaver = 10 rounds."""
        dealer, channel, rng = setup()
        secure_relu(share_additive(CFG.encode(np.ones(16)), rng), dealer, channel)
        assert channel.rounds == 10

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_secure_maximum(self, seed):
        dealer, channel, rng = setup(seed)
        a = rng.uniform(-10, 10, size=(50,)).astype(np.float32)
        b = rng.uniform(-10, 10, size=(50,)).astype(np.float32)
        ms = secure_maximum(
            share_additive(CFG.encode(a), rng),
            share_additive(CFG.encode(b), rng),
            dealer,
            channel,
        )
        np.testing.assert_allclose(
            CFG.decode(reconstruct_additive(*ms)), np.maximum(a, b), atol=2e-3
        )


class TestLinearAndTruncation:
    def test_truncation_error_at_most_one_lsb(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-100, 100, size=(5000,)).astype(np.float64)
        encoded_2f = CFG.encode(values, frac_bits=24)
        shares = share_additive(encoded_2f, rng)
        truncated = truncate_shares(shares, 12)
        decoded = CFG.decode(reconstruct_additive(*truncated))
        np.testing.assert_allclose(decoded, values, atol=2.5 / 4096)

    def test_multiply_public_constant(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-5, 5, size=(64,)).astype(np.float32)
        shares = share_additive(CFG.encode(values), rng)
        scaled = multiply_public_constant(shares, CFG.encode(np.array(0.25)))
        decoded = CFG.decode(
            reconstruct_additive(*truncate_shares(scaled, CFG.frac_bits))
        )
        np.testing.assert_allclose(decoded, values * 0.25, atol=1e-3)

    def test_secure_linear_matmul(self):
        dealer, channel, rng = setup(7)
        x = rng.uniform(-2, 2, size=(4, 10)).astype(np.float32)
        w = rng.uniform(-1, 1, size=(6, 10)).astype(np.float32)
        b = rng.uniform(-1, 1, size=(6,)).astype(np.float32)
        w_ring = CFG.encode(w)
        bias_2f = np.broadcast_to(CFG.encode(b, frac_bits=24), (4, 6)).astype(np.uint64)

        def ring_fn(v):
            return np.matmul(v, w_ring.T)

        ys = secure_linear(share_additive(CFG.encode(x), rng), ring_fn, bias_2f, dealer, channel)
        decoded = CFG.decode(reconstruct_additive(*truncate_shares(ys, CFG.frac_bits)))
        np.testing.assert_allclose(decoded, x @ w.T + b, atol=2e-2)

    def test_secure_linear_is_one_message(self):
        dealer, channel, rng = setup()
        x = share_additive(CFG.encode(np.ones((2, 4))), rng)
        w_ring = CFG.encode(np.eye(4, dtype=np.float32))
        secure_linear(x, lambda v: np.matmul(v, w_ring.T), None, dealer, channel)
        assert channel.rounds == 1
        assert channel.bytes_server_to_client == 0  # client->server only

    def test_open_shares(self):
        _, channel, rng = setup()
        secret = FixedPointConfig.random_ring(rng, (16,))
        shares = share_additive(secret, rng)
        np.testing.assert_array_equal(open_shares(shares, channel), secret)
        assert channel.rounds == 1


class TestSecurityProperties:
    def test_masked_reveal_is_uniform(self):
        """The opened z = x + r must look uniform regardless of x."""
        dealer = TrustedDealer(seed=0)
        mask = dealer.comparison_masks((20000,))
        r = reconstruct_additive(*mask.r_shares)
        x = CFG.encode(np.full(20000, 3.14159))
        z = (x + r).astype(np.uint64)
        top = (z >> np.uint64(63)).astype(float)
        assert abs(top.mean() - 0.5) < 0.02

    def test_linear_masked_message_is_uniform(self):
        """The client's online linear message x0 - m is uniform."""
        dealer, channel, rng = setup()
        constant_input = share_additive(CFG.encode(np.zeros(20000)), rng)
        w_ring = CFG.encode(np.eye(1, dtype=np.float32))
        correlation = dealer.linear_correlation((20000,), lambda v: v)
        masked = (constant_input[0] - correlation.mask).astype(np.uint64)
        top = (masked >> np.uint64(63)).astype(float)
        assert abs(top.mean() - 0.5) < 0.02
