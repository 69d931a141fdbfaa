"""Binary PPM (P6) reader and writer, 8-bit only.

The writer emits the canonical minimal header

    b"P6\\n" + b"{width} {height}\\n" + b"255\\n"

followed by height*width*3 bytes of RGB samples in row-major order. A 1x1
image is therefore exactly 11 header bytes plus 3 payload bytes. Real
values are truncated toward zero on write, so the write/read round trip is
the identity on integer-valued images.

The reader accepts the general P6 grammar: any whitespace between header
tokens and '#' comments through end-of-line. Header fields are ASCII decimal
digits, and only maxval 255 is supported.
"""

from __future__ import annotations

import numpy as np

from .errors import PpmDepthError, PpmError, PpmMagicError, PpmTruncatedError


def write_ppm(image: np.ndarray, path) -> None:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected an (H, W, 3) image, got shape {tuple(image.shape)}")
    h, w = image.shape[:2]
    data = np.clip(np.trunc(image), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    return _read_pixels(path).astype(np.float64)


def _read_pixels(path) -> np.ndarray:
    """The file's (H, W, 3) uint8 samples, read-only, after checking its header."""
    with open(path, "rb") as f:
        raw = f.read()
    # the magic ends at whitespace or a comment: b"P65 5 255" is not P6
    if raw[:2] != b"P6" or raw[2:3] not in (b" ", b"\t", b"\r", b"\n", b"#"):
        raise PpmMagicError(f"expected P6 magic followed by whitespace, got {raw[:3]!r}")
    pos = 2
    fields = []
    while len(fields) < 3:
        token, pos = _next_token(raw, pos)
        fields.append(token)
    # Netpbm header fields are ASCII decimal digits; int() would also take a sign or "_"
    if not all(t.isascii() and t.isdigit() for t in fields):
        raise PpmError(f"non-numeric header fields {fields!r}")
    w, h, maxval = (int(t) for t in fields)
    if w < 1 or h < 1:
        raise PpmError(f"bad dimensions {w}x{h}")
    if maxval != 255:
        raise PpmDepthError(f"unsupported maxval {maxval}; only 8-bit (255) files are handled")
    pos += 1  # single whitespace byte after maxval
    need = w * h * 3
    payload = raw[pos : pos + need]
    if len(payload) < need:
        raise PpmTruncatedError(
            f"pixel data is {len(payload)} bytes, header promises {need}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)


def _next_token(raw: bytes, pos: int):
    """Skip whitespace and # comments, then collect one header token."""
    while pos < len(raw):
        b = raw[pos]
        if b in b" \t\r\n":
            pos += 1
        elif b == ord("#"):
            while pos < len(raw) and raw[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= len(raw):
        raise PpmError("unexpected end of file in header")
    start = pos
    while pos < len(raw) and raw[pos] not in b" \t\r\n":
        pos += 1
    return raw[start:pos].decode("ascii", errors="replace"), pos
