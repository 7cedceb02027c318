"""Property: an edited DCPM message or DCPT blob parses to exactly its bytes or raises a DcpError."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dcpnet import protocol as pr
from dcpnet.errors import DcpError, ProtocolError
from dcpnet.tensorio import tensor_from_bytes, tensor_to_bytes

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

U16, U32 = 2**16, 2**32

float32s = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def messages(draw) -> bytes:
    """A valid serialized message: any kind, header fields within their widths, a float32 payload."""
    payload = np.array(draw(st.lists(float32s, max_size=6)), dtype="<f4").tobytes()
    return pr.serialize_message(pr.ProtocolMessage(
        draw(st.sampled_from(sorted(pr.KIND_NAMES))), draw(st.integers(0, U16 - 1)),
        draw(st.integers(0, U16 - 1)), draw(st.integers(0, U32 - 1)), payload,
    ))


@st.composite
def blobs(draw) -> bytes:
    """A valid DCPT blob of rank 0 to 3 holding finite float32 values."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
    return tensor_to_bytes(draw(hnp.arrays(np.float32, shape, elements=float32s)))


@st.composite
def edits(draw, original: bytes) -> bytes:
    """One to three truncations, extensions or byte changes of `original`."""
    buf = bytearray(original)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("truncate", "extend", "change")))
        if op == "truncate":
            del buf[draw(st.integers(0, len(buf))):]
        elif op == "extend":
            buf += draw(st.binary(min_size=1, max_size=8))
        elif buf:
            buf[draw(st.integers(0, len(buf) - 1))] = draw(st.integers(0, 255))
    return bytes(buf)


@PROPERTY
@given(data=st.data())
def test_edited_message_parses_to_its_bytes_or_raises_a_dcp_error(data):
    buf = data.draw(edits(data.draw(messages())))
    try:
        msg = pr.parse_message(buf)
    except DcpError:
        return
    assert pr.serialize_message(msg) == buf


@PROPERTY
@given(data=st.data())
def test_edited_tensor_parses_to_its_bytes_or_raises_a_dcp_error(data):
    buf = data.draw(edits(data.draw(blobs())))
    try:
        arr = tensor_from_bytes(buf)
    except DcpError:
        return
    assert tensor_to_bytes(arr) == buf


@PROPERTY
@given(src=st.integers(-U16, 2 * U16), dst=st.integers(-U16, 2 * U16), frame=st.integers(-U32, 2 * U32))
def test_header_fields_beyond_their_widths_raise_a_protocol_error(src, dst, frame):
    msg = pr.ProtocolMessage(pr.KIND_REQUEST, src, dst, frame, b"\x00" * 4)
    if 0 <= src < U16 and 0 <= dst < U16 and 0 <= frame < U32:
        assert pr.parse_message(pr.serialize_message(msg)) == msg
    else:
        with pytest.raises(ProtocolError):
            pr.serialize_message(msg)

