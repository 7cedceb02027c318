"""Property: an edited dataset or checkpoint manifest loads or raises a DcpError."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dcpnet import harness, scenes
from dcpnet.errors import DcpError

from conftest import small_spec

# besides the manifest's own tokens: values near the valid ones, other key and file
# names, path parts, and bytes that are not UTF-8
FRAGMENTS = [
    b"", b"\n", b"0", b"1", b"2", b"3", b"4", b"9", b"-1", b"-2", b"00", b"10", b"1.5", b"x",
    b"count", b"classes", b"sample", b"homo-pis", b"hetero-pis", b"smim.r.w", b"dec.head.b",
    b"dec.head.b.dcpt", b"smim.w_alpha.dcpt", b"f00001_mask0.dcpt", b"manifest.txt",
    b"../f00000_view1.dcpt", b"/", b".", b"\xff", b"\xc3", "\u0663".encode(), b"\x00", b"\t",
]


@st.composite
def edits(draw, original: bytes) -> bytes:
    """One to four edits of the space-separated tokens of `original`: a token replaced
    by or followed by a fragment, another token or raw bytes, or a line dropped or repeated."""
    lines = [line.split(b" ") for line in original.splitlines()]
    tokens = st.sampled_from(FRAGMENTS + sorted({t for line in lines for t in line}))
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("token", "token", "token", "drop", "repeat")))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, list(lines[i]))
        else:
            j = draw(st.integers(0, len(lines[i])))
            piece = draw(st.binary(max_size=4)) if draw(st.integers(0, 3)) == 0 else draw(tokens)
            lines[i][j:j + draw(st.integers(0, 1))] = [piece]
    return b"\n".join(b" ".join(line) for line in lines) + b"\n"


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """A two-sample dataset and a DCP-Net checkpoint that fits it, with their loaders."""
    root = tmp_path_factory.mktemp("manifests")
    dataset = scenes.make_dataset(small_spec(), "homo-cis", 2, seed=1, n_platforms=2)
    scenes.save_dataset(dataset, root / "ds")
    cfg = harness.model_config(dataset, request_dim=4)
    harness.save_checkpoint(harness.init_dcp_params(cfg, seed=0), root / "ckpt")
    return {
        "dataset": (root / "ds", scenes.load_dataset),
        "checkpoint": (root / "ckpt", lambda d: harness.load_model("dcp-net", dataset, d)),
    }


@pytest.mark.parametrize("store", ["dataset", "checkpoint"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_edited_manifest_loads_or_raises_a_dcp_error(stores, store, data):
    dirpath, load = stores[store]
    manifest = dirpath / "manifest.txt"
    original = manifest.read_bytes()
    manifest.write_bytes(data.draw(edits(original)))
    try:
        load(dirpath)
    except DcpError:
        pass
    finally:
        manifest.write_bytes(original)
