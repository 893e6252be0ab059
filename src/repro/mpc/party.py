"""One party's half of the secure engine (the two-process split).

:class:`~repro.mpc.engine.SecureInferenceEngine` orchestrates *both*
parties inside one process — convenient and fast, but every "networked"
number it produces is an accounting formula. :class:`PartyEngine` is the
same op-stream executor split down the party axis: it holds **one**
share, runs the per-party protocols of :mod:`repro.mpc.protocols.party`,
and moves real bytes through a :class:`~repro.mpc.transport.Transport`
(thread loopback or TCP :class:`~repro.mpc.transport.PeerChannel`).

The split preserves the trust boundaries of the deployment:

* the **client** (party 0) executes a *weight-free* program: it needs
  only op kinds and shapes, which the server ships as a JSON
  :func:`program_manifest` during the handshake. Weights, biases and the
  ring encodings never leave the server.
* the **server** (party 1) executes the compiled
  :class:`~repro.mpc.program.SecureProgram` with its encoded weights and
  never sees the client's input or any non-uniform message.
* the **dealer material** arrives as per-party
  :class:`~repro.mpc.preprocessing.PartyMaterialStream` halves — the
  offline bundles of PR 1, split and (for the client) shipped over the
  wire before the online phase starts.

Because every party-side computation and every accounted message mirrors
the joint engine line-for-line, a two-party run produces byte-identical
output shares and byte-identical channel counters to
``SecureInferenceEngine.run`` under the same seeds — the loopback
equivalence tests pin this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..nn.functional import im2col
from .dealer import MATERIAL_STREAM
from .fixedpoint import DEFAULT_CONFIG, FixedPointConfig
from .preprocessing import PartyMaterialStream
from .program import (
    AddOp,
    AvgPoolOp,
    ConvOp,
    FlattenOp,
    LayerTally,
    LinearOp,
    MaxPoolOp,
    ProgramOp,
    ReluOp,
    SaveOp,
    SecureProgram,
    deferred_reveal_flags,
    frame_plan,
)
from .protocols.party import (
    party_multiply_public_constant,
    party_secure_linear,
    party_secure_maximum,
    party_secure_relu,
    party_truncate,
)
from .transport import Transport

__all__ = [
    "PartyExecutionResult",
    "PartyEngine",
    "program_manifest",
    "program_fingerprint",
    "ops_from_manifest",
]


# ----------------------------------------------------------------------
# the weight-free program manifest (handshake payload)
# ----------------------------------------------------------------------
def program_manifest(program: SecureProgram) -> dict:
    """JSON-able description of a program **without** any weights.

    This is everything the client needs to execute its half of the
    protocol: op kinds, shapes and pooling geometry. The server's
    weights, biases and ring encodings stay out by construction.
    ``material_stream`` names the dealer's draw order
    (:data:`~repro.mpc.dealer.MATERIAL_STREAM`), so material generated
    under another version never matches this program's fingerprint.
    """
    ops = []
    for op in program.ops:
        entry = {
            "kind": op.kind,
            "name": op.name,
            "in_shape": list(op.in_shape),
            "out_shape": list(op.out_shape),
            "slot": op.slot,
        }
        if isinstance(op, ConvOp):
            entry.update(
                in_channels=op.in_channels,
                out_channels=op.out_channels,
                kernel_size=op.kernel_size,
                stride=op.stride,
                padding=op.padding,
                dilation=op.dilation,
            )
        elif isinstance(op, LinearOp):
            entry.update(in_features=op.in_features, out_features=op.out_features)
        elif isinstance(op, (MaxPoolOp, AvgPoolOp)):
            entry.update(kernel_size=op.kernel_size, stride=op.stride)
        ops.append(entry)
    return {
        "model": program.model.name,
        "boundary": program.boundary,
        "frac_bits": program.config.frac_bits,
        "input_shape": list(program.input_shape),
        "output_shape": list(program.output_shape),
        "material_stream": MATERIAL_STREAM,
        "ops": ops,
    }


def program_fingerprint(program: SecureProgram) -> str:
    """A stable, weight-free identity for a compiled program.

    Hash of the :func:`program_manifest` (op kinds, shapes, boundary,
    fixed-point geometry, material-stream version) — everything that
    determines the program's dealer material, and nothing that doesn't. Two
    processes that compile the same architecture at the same boundary
    agree on the fingerprint without exchanging weights, which is how the
    crypto-producer service and a serving process establish they are
    provisioning material for the same program.
    """
    import hashlib
    import json

    canonical = json.dumps(program_manifest(program), sort_keys=True)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def ops_from_manifest(manifest: dict) -> list[ProgramOp]:
    """Reconstruct a weight-free op list from a handshake manifest."""
    ops: list[ProgramOp] = []
    for entry in manifest["ops"]:
        common = {
            "kind": entry["kind"],
            "name": entry["name"],
            "in_shape": tuple(entry["in_shape"]),
            "out_shape": tuple(entry["out_shape"]),
            "slot": entry.get("slot", "main"),
        }
        kind = entry["kind"]
        if kind == "conv":
            ops.append(
                ConvOp(
                    **common,
                    in_channels=entry["in_channels"],
                    out_channels=entry["out_channels"],
                    kernel_size=entry["kernel_size"],
                    stride=entry["stride"],
                    padding=entry["padding"],
                    dilation=entry["dilation"],
                )
            )
        elif kind == "linear":
            ops.append(
                LinearOp(
                    **common,
                    in_features=entry["in_features"],
                    out_features=entry["out_features"],
                )
            )
        elif kind == "relu":
            ops.append(ReluOp(**common))
        elif kind == "maxpool":
            ops.append(
                MaxPoolOp(
                    **common,
                    kernel_size=entry["kernel_size"],
                    stride=entry["stride"],
                )
            )
        elif kind == "avgpool":
            ops.append(
                AvgPoolOp(
                    **common,
                    kernel_size=entry["kernel_size"],
                    stride=entry["stride"],
                )
            )
        elif kind == "flatten":
            ops.append(FlattenOp(**common))
        elif kind == "save":
            ops.append(SaveOp(**common))
        elif kind == "add":
            ops.append(AddOp(**common))
        else:
            raise ValueError(f"unknown op kind in manifest: {kind!r}")
    return ops


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
@dataclass
class PartyExecutionResult:
    """One party's outcome of a secure prefix evaluation."""

    share: np.ndarray
    tallies: list[LayerTally]
    transport: Transport
    config: FixedPointConfig

    @property
    def total_bytes(self) -> int:
        return self.transport.total_bytes

    @property
    def rounds(self) -> int:
        return self.transport.rounds


class PartyEngine:
    """Run one party's half of a compiled program over a transport.

    Parameters
    ----------
    ops:
        The program's op list. The server passes encoded ops (from a
        compiled :class:`SecureProgram`); the client passes the
        weight-free reconstruction from the handshake manifest.
    party:
        0 (client, contributes the input) or 1 (server, contributes the
        weights).
    share_seed:
        Client only: seed of the input-sharing generator. Match the joint
        engine's ``share_seed`` to reproduce its run byte for byte.
    """

    def __init__(
        self,
        ops: list[ProgramOp],
        party: int,
        input_shape: tuple[int, ...],
        output_shape: tuple[int, ...],
        config: FixedPointConfig = DEFAULT_CONFIG,
        share_seed: int = 1,
    ):
        if party not in (0, 1):
            raise ValueError(f"party must be 0 or 1, got {party}")
        self.ops = ops
        self.party = party
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(output_shape)
        self.config = config
        self._share_rng = np.random.default_rng(share_seed)
        # Static per-program analysis: which linear reveals fuse into the
        # next masked reveal's frame, and which batch sizes have had
        # their frame sizes presized into the transport's buffer pool.
        self._defer_flags = deferred_reveal_flags(ops)

    @classmethod
    def from_program(
        cls, program: SecureProgram, party: int, share_seed: int = 1
    ) -> "PartyEngine":
        if party == 1 and not program.encoded:
            raise ValueError("the server party needs an encoded program")
        return cls(
            program.ops,
            party,
            program.input_shape,
            program.output_shape,
            config=program.config,
            share_seed=share_seed,
        )

    @classmethod
    def from_manifest(cls, manifest: dict, share_seed: int = 1) -> "PartyEngine":
        """The client-side engine: weight-free ops from the handshake."""
        return cls(
            ops_from_manifest(manifest),
            party=0,
            input_shape=tuple(manifest["input_shape"]),
            output_shape=tuple(manifest["output_shape"]),
            config=FixedPointConfig(frac_bits=manifest["frac_bits"]),
            share_seed=share_seed,
        )

    # ------------------------------------------------------------------
    def share_rng_state(self):
        """Snapshot of the input-sharing rng (client retry support).

        A faulted request that is retried must replay the *same* input
        mask it drew the first time — a fresh draw would change both
        shares and, through the local truncation's share-dependent
        rounding, the logits. The remote client snapshots this state
        before each request and restores it before a retry.
        """
        return self._share_rng.bit_generator.state

    def restore_share_rng(self, state) -> None:
        """Rewind the input-sharing rng to a :meth:`share_rng_state` snapshot."""
        self._share_rng.bit_generator.state = state

    # ------------------------------------------------------------------
    def run(
        self,
        io: Transport,
        material: PartyMaterialStream,
        x: np.ndarray | None = None,
        batch: int | None = None,
    ) -> PartyExecutionResult:
        """Execute this party's half of the online phase.

        The client passes the input batch ``x`` (float NCHW); the server
        passes the expected ``batch`` size. Mirrors
        ``SecureInferenceEngine.run`` step for step — including the
        channel accounting of every message.
        """
        if io.party != self.party:
            raise ValueError(
                f"engine is party {self.party} but transport is party {io.party}"
            )
        pool = io.ensure_pool()
        n = x.shape[0] if x is not None else batch
        if n is not None and n not in pool.presized:
            pool.presize(
                frame_plan(self.ops, n, self.input_shape, self.output_shape)
            )
            pool.presized.add(n)
        share = self._input_share(io, x, batch)
        registers: dict[str, np.ndarray] = {}
        tallies: list[LayerTally] = []
        for op, defer in zip(self.ops, self._defer_flags):
            before = io.snapshot()
            start = time.perf_counter()
            share, tally = self._execute(op, share, registers, material, io, defer)
            if tally is not None:
                tally.compute_s = time.perf_counter() - start
                tally.traffic = io.diff(before)
                tallies.append(tally)
        io.flush_deferred()  # safety net: the last linear never defers
        return PartyExecutionResult(
            share=share, tallies=tallies, transport=io, config=self.config
        )

    def _input_share(
        self, io: Transport, x: np.ndarray | None, batch: int | None
    ) -> np.ndarray:
        if self.party == 0:
            if x is None:
                raise ValueError("the client party needs the input batch x")
            if x.ndim != 4:
                raise ValueError(f"expected NCHW input, got shape {x.shape}")
            if tuple(x.shape[1:]) != self.input_shape:
                raise ValueError(
                    f"expected per-sample shape {self.input_shape}, "
                    f"got {tuple(x.shape[1:])}"
                )
            encoded = self.config.encode(x)
            # Identical rng draw to share_additive, with the outgoing
            # share computed straight into a pooled frame (the old
            # ascontiguousarray(...).tobytes() staging copy is gone).
            own = FixedPointConfig.random_ring(self._share_rng, encoded.shape)
            outgoing = io.alloc_words("input-share", encoded.size).reshape(
                encoded.shape
            )
            np.subtract(encoded, own, out=outgoing)
            io.push(memoryview(outgoing).cast("B"), "input-share")
            io.send(0, outgoing.nbytes, label="input-share")
            io.tick_round("input-share")
            return own
        if batch is None:
            raise ValueError("the server party needs the expected batch size")
        payload = io.pull("input-share")
        share = np.frombuffer(payload, dtype=np.uint64).reshape(
            batch, *self.input_shape
        )
        io.send(0, share.nbytes, label="input-share")
        io.tick_round("input-share")
        return share

    # ------------------------------------------------------------------
    # per-op handlers (the party-split image of SecureInferenceEngine)
    # ------------------------------------------------------------------
    def _execute(
        self,
        op: ProgramOp,
        share: np.ndarray,
        registers: dict[str, np.ndarray],
        material: PartyMaterialStream,
        io: Transport,
        defer: bool = False,
    ) -> tuple[np.ndarray, LayerTally | None]:
        if isinstance(op, (ConvOp, LinearOp)):
            if op.slot != "main":
                registers[op.slot] = self._linear_like(
                    op, registers[op.slot], material, io, defer
                )
                return share, op.tally(share.shape[0])
            return self._linear_like(op, share, material, io, defer), op.tally(
                share.shape[0]
            )
        if isinstance(op, ReluOp):
            flat = party_secure_relu(io, share.reshape(-1), material)
            return flat.reshape(share.shape), op.tally(share.shape[0])
        if isinstance(op, MaxPoolOp):
            return self._maxpool(op, share, material, io), op.tally(share.shape[0])
        if isinstance(op, AvgPoolOp):
            return self._avgpool(op, share), op.tally(share.shape[0])
        if isinstance(op, FlattenOp):
            return share.reshape(share.shape[0], -1), op.tally(share.shape[0])
        if isinstance(op, SaveOp):
            registers[op.slot] = share
            return share, None
        if isinstance(op, AddOp):
            other = registers.pop(op.slot)
            return (share + other).astype(np.uint64), None
        raise ValueError(f"unsupported program op: {op!r}")

    def _linear_like(
        self,
        op: ConvOp | LinearOp,
        share: np.ndarray,
        material: PartyMaterialStream,
        io: Transport,
        defer: bool = False,
    ) -> np.ndarray:
        correlation = material.next("linear_correlation")
        if self.party == 0:
            y = party_secure_linear(io, share, correlation, defer=defer)
        else:
            n = share.shape[0]
            # A broadcast *view* — the add below produces the same bytes
            # without materializing a per-request bias tensor.
            bias_full = np.broadcast_to(
                op.bias_ring.reshape(1, *([-1] + [1] * (len(op.out_shape) - 1))),
                (n, *op.out_shape),
            )
            y = party_secure_linear(
                io,
                share,
                correlation,
                ring_linear_fn=op.ring_fn(),
                bias_2f=bias_full,
            )
        return party_truncate(y, self.party, self.config.frac_bits)

    def _maxpool(
        self,
        op: MaxPoolOp,
        share: np.ndarray,
        material: PartyMaterialStream,
        io: Transport,
    ) -> np.ndarray:
        k, stride = op.kernel_size, op.stride
        n, c, h, w = share.shape
        cols, out_h, out_w = im2col(share.reshape(n * c, 1, h, w), k, k, stride)
        # The same pairwise tournament as the joint engine, on one share.
        candidates = [cols[:, i, :] for i in range(k * k)]
        while len(candidates) > 1:
            half = len(candidates) // 2
            left = np.stack(candidates[:half])
            right = np.stack(candidates[half : 2 * half])
            merged = party_secure_maximum(io, left, right, material)
            candidates = [merged[i] for i in range(half)] + candidates[2 * half :]
        return candidates[0].reshape(n, c, out_h, out_w)

    def _avgpool(self, op: AvgPoolOp, share: np.ndarray) -> np.ndarray:
        k, stride = op.kernel_size, op.stride
        n, c, h, w = share.shape
        cols, out_h, out_w = im2col(share.reshape(n * c, 1, h, w), k, k, stride)
        summed = cols.sum(axis=1, dtype=np.uint64)
        inv = self.config.encode(np.array(1.0 / (k * k)))
        scaled = party_multiply_public_constant(summed, inv)
        truncated = party_truncate(scaled, self.party, self.config.frac_bits)
        return truncated.reshape(n, c, out_h, out_w)
