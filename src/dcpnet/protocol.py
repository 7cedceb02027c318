"""Round-based collaboration protocol with byte-exact accounting.

One frame runs four phase-barriered rounds: local encoding, request
decisions, request/relevance exchange, feature grants plus fusion and
decoding.  Every request, relevance reply and grant crosses between
platforms through `transmit`, which rounds its payload to float32 and
charges the ledger the size of its DCPM message (magic "DCPM", u8 kind,
u16 src, u16 dst, u32 frame, u32 payload length, then the payload); MBpf
is computed from the ledger.  DCP-Net and every baseline run through the
same runner; they differ only in who pulls whose features and how the
received grants are fused.

DCP-Net's two exchange rounds are `request_match` (phase 3) and
`grant_fuse` (phase 4), each sending its messages over a `wire`.
Inference passes one that goes through `transmit`, for the requesters
and their supporters only.  Centralized training runs the same rounds
over the `lossless` wire, with every candidate, soft scores and no gate.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import baselines as bl
from . import rff, smim
from .autodiff import Tensor, no_grad
from .config import ModelConfig
from .errors import FormatError, ProtocolError
from .network import encode_view, predict_segmentation
from .scenes import SceneSample

WIRE_MAGIC = b"DCPM"
_HEADER = struct.Struct("<4sBHHII")  # magic, kind, src, dst, frame, payload length
HEADER_BYTES = _HEADER.size

KIND_REQUEST = 1
KIND_RELEVANCE = 2
KIND_GRANT = 3
KIND_NAMES = {KIND_REQUEST: "request", KIND_RELEVANCE: "relevance", KIND_GRANT: "grant"}


@dataclass
class ProtocolMessage:
    kind: int
    src: int
    dst: int
    frame: int
    payload: bytes


def serialize_message(msg: ProtocolMessage) -> bytes:
    if msg.kind not in KIND_NAMES:
        raise ProtocolError(f"unknown message kind {msg.kind}")
    if not (0 <= msg.src < 2**16 and 0 <= msg.dst < 2**16 and 0 <= msg.frame < 2**32):
        raise ProtocolError(f"src {msg.src}, dst {msg.dst} or frame {msg.frame} overflows its u16/u16/u32 field")
    return _HEADER.pack(WIRE_MAGIC, msg.kind, msg.src, msg.dst, msg.frame, len(msg.payload)) + msg.payload


def parse_message(buf: bytes) -> ProtocolMessage:
    if len(buf) < HEADER_BYTES:
        raise FormatError(f"message truncated at {len(buf)} bytes")
    magic, kind, src, dst, frame, plen = _HEADER.unpack_from(buf)
    if magic != WIRE_MAGIC:
        raise FormatError(f"bad message magic {magic!r}")
    if kind not in KIND_NAMES:
        raise FormatError(f"unknown message kind {kind}")
    if len(buf) != HEADER_BYTES + plen:
        raise FormatError(f"payload length {plen} disagrees with {len(buf) - HEADER_BYTES} bytes present")
    return ProtocolMessage(kind, src, dst, frame, buf[HEADER_BYTES:])


@dataclass
class CommLedger:
    """One (frame, src, dst, kind, wire bytes) entry per message; byte totals come from the entries."""

    entries: list[tuple[int, int, int, int, int]] = field(default_factory=list)

    @property
    def total_wire_bytes(self) -> int:
        return sum(e[4] for e in self.entries)

    @property
    def feature_payload_bytes(self) -> int:
        """Grant payloads only, without their headers: the feature plane."""
        return sum(e[4] - HEADER_BYTES for e in self.entries if e[3] == KIND_GRANT)

    def counts(self) -> dict[str, int]:
        out = {name: 0 for name in KIND_NAMES.values()}
        for _, _, _, kind, _ in self.entries:
            out[KIND_NAMES[kind]] += 1
        return out


def transmit(ledger: CommLedger, kind: int, src: int, dst: int, frame: int, values) -> np.ndarray:
    """Send `values` from platform src to dst as one `kind` message.

    The payload is `values` rounded once to little-endian float32; the
    ledger is charged its DCPM size, header plus payload.  Returns the
    receiver's float64 copy, in the shape of `values`.  A payload that
    float32 cannot carry (inf or NaN after the rounding) is a ProtocolError.
    """
    payload = np.asarray(values, "<f4")
    received = payload.astype(np.float64)
    # a float64 sum of finite float32 values stays finite at any message size
    if not math.isfinite(received.sum()):
        raise ProtocolError(
            f"{KIND_NAMES.get(kind, kind)} from {src} to {dst} in frame {frame} holds a value "
            f"float32 cannot carry"
        )
    ledger.entries.append((frame, src, dst, kind, HEADER_BYTES + payload.nbytes))
    return received


def mbpf(ledger: CommLedger, frames: int, mode: str = "feature_only") -> float:
    """Mean megabytes per frame; feature_only counts grant payloads only."""
    if frames < 1:
        raise ProtocolError("mbpf over zero frames")
    if mode == "feature_only":
        total = ledger.feature_payload_bytes
    elif mode == "total":
        total = ledger.total_wire_bytes
    else:
        raise ProtocolError(f"unknown accounting mode {mode!r}")
    return total / frames / 2**20


def lossless(kind: int, src: int, dst: int, tensor: Tensor) -> Tensor:
    """The wire of centralized training: every message arrives as the tensor sent, graph intact."""
    return tensor


def request_match(i: int, feats: list[Tensor], keys: list[Tensor], params: dict[str, Tensor],
                  wire) -> dict[int, Tensor]:
    """Phase 3 for platform i: its request to every other platform, their relevance
    replies, and the match scores over them.  `wire(kind, src, dst, tensor)` carries
    each message and returns the receiver's copy."""
    r = smim.encode_request(feats[i], params)
    replies: dict[int, Tensor] = {}
    for j in range(len(feats)):
        if j != i:
            # candidate j evaluates the request as it arrived
            rel = smim.candidate_relevance(wire(KIND_REQUEST, i, j, r), keys[j], params["smim.w_alpha"])
            replies[j] = wire(KIND_RELEVANCE, j, i, rel)
    return smim.match_scores(replies)


def grant_fuse(i: int, feats: list[Tensor], params: dict[str, Tensor], confidence: Tensor,
               scores: dict[int, Tensor], wire) -> Tensor:
    """Phase 4 for platform i: a grant from each scored platform, in id order, aligned
    to the local features and mixed in by `confidence` and `scores`, which are not
    renormalized.  No scores: the local features, unscaled."""
    related = {j: rff.compute_related(feats[i], wire(KIND_GRANT, j, i, feats[j]), params) for j in sorted(scores)}
    return rff.fuse(feats[i], related, confidence, scores)


@dataclass
class FrameResult:
    """One frame's outputs: a uint8 class mask per platform, the SMIM
    states and the ledger of every message sent."""

    predictions: list[np.ndarray]       # per-platform H x W uint8 class masks
    states: list[smim.SmimState]
    ledger: CommLedger


@no_grad()
def run_frame(
    sample: SceneSample,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    method: str = "dcp-net",
    seed: int = 0,
) -> FrameResult:
    """Distributed inference for one frame under `method`, logging every message.

    Every method fuses the float32 grant copies its ledger charges.  The
    frame runs under `no_grad()`: no op records a graph.
    """
    n = sample.n_platforms
    ledger = CommLedger()

    def wire(kind: int, src: int, dst: int, tensor: Tensor) -> Tensor:
        return Tensor(transmit(ledger, kind, src, dst, sample.frame, tensor.data))

    # phase 1: local encoding
    feats = [encode_view(Tensor(sample.views[i], requires_grad=False), params) for i in range(n)]

    if method != "dcp-net":
        # a baseline pulls its regime's partners onto the victim alone
        states = [smim.SmimState(confidence=1.0) for _ in feats]
        partners = bl.baseline_partners(method, sample, sample.victim, seed)

        def fuse(i: int) -> Tensor:
            if i != sample.victim:
                return feats[i]
            pulled = [wire(KIND_GRANT, j, i, f) if j in partners else f for j, f in enumerate(feats)]
            return bl.fuse_baseline(method, pulled, i, partners, params)
    else:
        # phase 2: self-information decisions
        states, keys = [], []
        for i in range(n):
            q, k = smim.encode_query_key(feats[i], params)
            p = smim.self_confidence(q, k).item()
            states.append(smim.SmimState(confidence=p, requested=smim.decide_request(p, cfg)))
            keys.append(k)

        # phase 3: every requester's request broadcast and relevance replies, before any grant
        for i, st in enumerate(states):
            if st.requested:
                st.scores = {j: s.item() for j, s in request_match(i, feats, keys, params, wire).items()}
                st.supporters = smim.select_supporters(st.scores, n)

        def fuse(i: int) -> Tensor:
            st = states[i]
            scores = {j: Tensor(st.scores[j]) for j in st.supporters}
            return grant_fuse(i, feats, params, Tensor(st.confidence), scores, wire)

    # phase 4: feature grants, fusion, decoding
    predictions = [predict_segmentation(fuse(i), params) for i in range(n)]
    return FrameResult(predictions, states, ledger)
