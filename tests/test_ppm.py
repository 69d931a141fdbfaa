import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tivis.errors import PpmDepthError, PpmError, PpmMagicError, PpmTruncatedError, TivisError
from tivis.ppm import read_ppm, write_ppm


def test_round_trip_identity_on_integer_images(tmp_path):
    rng = np.random.default_rng(0)
    img = np.floor(rng.uniform(0, 256, (7, 5, 3)))
    path = tmp_path / "a.ppm"
    write_ppm(img, path)
    np.testing.assert_array_equal(read_ppm(path), img)


def test_one_by_one_byte_layout(tmp_path):
    # documented canonical layout: 11 header bytes + 3 payload bytes
    img = np.array([[[1.0, 2.0, 3.0]]])
    path = tmp_path / "tiny.ppm"
    write_ppm(img, path)
    assert path.read_bytes() == b"P6\n1 1\n255\n\x01\x02\x03"


def test_hand_written_file_reads_back(tmp_path):
    path = tmp_path / "hand.ppm"
    path.write_bytes(b"P6\n2 1\n255\n" + bytes([10, 20, 30, 40, 50, 60]))
    img = read_ppm(path)
    assert img.shape == (1, 2, 3)
    assert img[0, 0].tolist() == [10, 20, 30]
    assert img[0, 1].tolist() == [40, 50, 60]


def test_comments_and_whitespace_accepted(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6 # a comment\n# another\n 1\t1 \n255\n\x07\x08\x09")
    img = read_ppm(path)
    assert img[0, 0].tolist() == [7, 8, 9]


def test_real_values_truncate_on_write(tmp_path):
    img = np.array([[[9.99, 100.5, 254.999]]])
    path = tmp_path / "t.ppm"
    write_ppm(img, path)
    assert read_ppm(path)[0, 0].tolist() == [9, 100, 254]


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(PpmMagicError):
        read_ppm(path)


def test_magic_must_end_at_whitespace(tmp_path):
    # "P65 5 255" once read as a P6 header for a 5x5 image
    path = tmp_path / "p65.ppm"
    path.write_bytes(b"P65 5 255\n" + bytes(75))
    with pytest.raises(PpmMagicError):
        read_ppm(path)


def test_unsupported_depth(tmp_path):
    path = tmp_path / "deep.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
    with pytest.raises(PpmDepthError):
        read_ppm(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(PpmTruncatedError):
        read_ppm(path)


def test_bad_dimensions(tmp_path):
    path = tmp_path / "dim.ppm"
    path.write_bytes(b"P6\n0 1\n255\n")
    with pytest.raises(PpmError):
        read_ppm(path)


def test_write_rejects_non_image():
    with pytest.raises(ValueError):
        write_ppm(np.zeros((4, 4)), "/tmp/never.ppm")


@pytest.fixture(scope="module")
def ppm_file(tmp_path_factory):
    return tmp_path_factory.mktemp("ppm") / "x.ppm"


def _read_raises_only_tivis_or_value_errors(path, raw):
    path.write_bytes(raw)
    try:
        read_ppm(path)
    except (TivisError, ValueError):
        pass


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(raw=st.one_of(st.binary(max_size=40), st.binary(max_size=40).map(lambda b: b"P6" + b)))
def test_arbitrary_bytes_raise_only_tivis_or_value_errors(ppm_file, raw):
    _read_raises_only_tivis_or_value_errors(ppm_file, raw)


_HEADER_FRAGMENTS = st.one_of(
    st.binary(max_size=4),
    st.sampled_from(
        [b" ", b"\n", b"\t", b"#", b"# c\n", b"P6", b"P5", b"0", b"1", b"-1", b"+2", b"255",
         b"65535", b"1_0", b"99999999999999999999", b"\xff"]
    ),
)
_VALID = b"P6\n2 1\n255\n" + bytes([10, 20, 30, 40, 50, 60])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_header_raises_only_tivis_or_value_errors(ppm_file, data):
    start = data.draw(st.integers(0, 11), label="start")
    end = data.draw(st.integers(start, 11), label="end")
    insert = b"".join(data.draw(st.lists(_HEADER_FRAGMENTS, max_size=3), label="insert"))
    _read_raises_only_tivis_or_value_errors(ppm_file, _VALID[:start] + insert + _VALID[end:])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(h=st.integers(1, 40), w=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_write_then_read_is_identity_on_integer_images(ppm_file, h, w, seed):
    img = np.random.default_rng(seed).integers(0, 256, (h, w, 3)).astype(np.float64)
    write_ppm(img, ppm_file)
    np.testing.assert_array_equal(read_ppm(ppm_file), img)
