"""Additive and boolean secret sharing, including the bitsliced GF(2) layer.

Arithmetic shares live in Z_2^64 (``uint64``): ``x = x0 + x1 (mod 2^64)``.
Boolean shares come in two layouts:

* **byte-per-bit** (``uint8`` containing 0/1): one array slot per bit —
  the layout single-bit material (daBits, MSB shares) still uses;
* **bitsliced words** (``uint64``): up to 64 bits of one element packed
  little-endian into a single word, so a word-level ``&``/``^``/``>>``
  acts on all bit lanes of an element at once. The comparison circuit
  runs entirely in this layout (one word per ring element), which is
  what makes the DReLU hot path word-parallel.

Both are information-theoretically hiding: a single share is uniformly
distributed and independent of the secret.
"""

from __future__ import annotations

import numpy as np

from .fixedpoint import FixedPointConfig

__all__ = [
    "COMPARISON_BITS",
    "LOW63_MASK",
    "share_additive",
    "reconstruct_additive",
    "share_boolean",
    "reconstruct_boolean",
    "random_words",
    "share_boolean_words",
    "reconstruct_boolean_words",
    "pack_bit_words",
    "unpack_bit_words",
]

# The comparison circuit compares the low 63 bits of the ring; the 64th
# bit is the sign the circuit is extracting. One uint64 word therefore
# holds a whole element's circuit state with lane 63 permanently zero.
COMPARISON_BITS = 63
LOW63_MASK = np.uint64((1 << 63) - 1)

_WORD_DTYPE = np.dtype("<u8")


def share_additive(
    secret: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split a uint64 array into two uniformly random additive shares."""
    secret = np.asarray(secret, dtype=np.uint64)
    share0 = FixedPointConfig.random_ring(rng, secret.shape)
    share1 = (secret - share0).astype(np.uint64)
    return share0, share1


def reconstruct_additive(share0: np.ndarray, share1: np.ndarray) -> np.ndarray:
    """Recombine additive shares: ``x = x0 + x1 (mod 2^64)``."""
    return (np.asarray(share0, dtype=np.uint64) + np.asarray(share1, dtype=np.uint64)).astype(
        np.uint64
    )


def share_boolean(
    bits: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split a 0/1 uint8 array into two XOR shares."""
    bits = np.asarray(bits, dtype=np.uint8)
    share0 = rng.integers(0, 2, size=bits.shape, dtype=np.uint8)
    share1 = (bits ^ share0).astype(np.uint8)
    return share0, share1


def reconstruct_boolean(share0: np.ndarray, share1: np.ndarray) -> np.ndarray:
    """Recombine XOR shares."""
    return (np.asarray(share0, dtype=np.uint8) ^ np.asarray(share1, dtype=np.uint8)).astype(
        np.uint8
    )


def random_words(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform 63-lane uint64 words: lanes 0..62 fair coins, lane 63 zero.

    One full-range 64-bit draw per word with lane 63 masked off — the
    bounded ``integers(0, 2**63)`` path is ~3x slower for the same bits.
    """
    words = FixedPointConfig.random_ring(rng, shape)
    return np.bitwise_and(words, LOW63_MASK, out=words)


def share_boolean_words(
    words: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """XOR-share packed 63-lane uint64 words (lane 63 zero).

    Material stream v2: share 0 is one :func:`random_words` draw per
    element and share 1 is the secret masked with it, so each share is a
    uniform 63-lane word independent of the secret and lane 63 stays
    zero in both. A secret with lane 63 set is refused — that lane would
    travel unmasked.
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.size and words.max() > LOW63_MASK:
        raise ValueError("boolean words must keep lane 63 zero")
    share0 = random_words(rng, words.shape)
    return share0, words ^ share0


def reconstruct_boolean_words(share0: np.ndarray, share1: np.ndarray) -> np.ndarray:
    """Recombine word-packed XOR shares (stays packed)."""
    return (np.asarray(share0, dtype=np.uint64) ^ np.asarray(share1, dtype=np.uint64)).astype(
        np.uint64
    )


def pack_bit_words(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(..., k)`` little-endian 0/1 array into uint64 words.

    ``k`` may be at most 64; lanes ``k..63`` of every word are zero. The
    result drops the trailing bit axis: shape ``(...,)``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    k = bits.shape[-1]
    if k > 64:
        raise ValueError(f"cannot pack {k} bits into a uint64 word")
    packed = np.packbits(bits, axis=-1, bitorder="little")
    if packed.shape[-1] < 8:  # pad to a full 8-byte word, in place
        padded = np.zeros((*packed.shape[:-1], 8), dtype=np.uint8)
        padded[..., : packed.shape[-1]] = packed
        packed = padded
    words = np.ascontiguousarray(packed).view(_WORD_DTYPE).reshape(bits.shape[:-1])
    return words.astype(np.uint64, copy=False)


def unpack_bit_words(words: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bit_words`: ``(...,)`` words -> ``(..., bits)``."""
    # Force little-endian storage so the uint8 view is bit i -> lane i on
    # any host.
    words = np.ascontiguousarray(words, dtype=_WORD_DTYPE)
    as_bytes = words[..., None].view(np.uint8)
    planes = np.unpackbits(as_bytes, axis=-1, count=bits, bitorder="little")
    return planes.astype(np.uint8)
