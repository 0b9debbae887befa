"""Grayscale test images, PGM I/O and detector-based segmentation.

Images are 8-bit grayscale with maxval fixed at 255; both the ASCII
(P2) and binary (P5) PGM variants are read, P5 is the default on
write. Comments are tolerated anywhere in a header being read but are
never emitted, so writes are byte-deterministic. The width, height and
maxval are runs of ASCII digits, like the samples. A P2 sample is a run
of ASCII digits (leading zeros allowed, so ``0255`` is 255) separated
by ASCII whitespace; a sign or any other character is rejected.

Segmentation maps pixel intensities onto detector input voltages, looks
the swept response up in a table and normalizes it to [0, 1]. Applied
to a centered Gaussian intensity blob, a band detector lights an
annulus: the ring's radius tracks where the blob crosses the band and
its thickness tracks the band width. The response is evaluated once per
intensity level in the image's range, and the ring geometry about the
image center once per image shape: a second detector on an image, or a
later image of the same shape, reuses it.

The P2 reader and writer, the detector lookup and the ring profile go
through an image in blocks of one fixed size, _BLOCK bytes: the reader
scans the raster in blocks cut just after a whitespace byte, the writer
formats and writes a few rows at a time, the lookup fills its result a
few rows at a time and the profile gathers a few radii at a time. Their
temporaries are bounded by the block, not by the image; what grows with
the image is the file's bytes, the pixels and the float64 response.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _EXPORTS
from .errors import (BadHeader, BadMagic, DomainError, LutRangeError, NoRing,
                     TruncatedData, UnsupportedMaxval)

if TYPE_CHECKING:   # the circuit layers load only where a call needs them
    from .solver import SweepResult

__all__ = list(_EXPORTS["imaging"])

# largest side; one 134 MB float64 work array, 174 MB peak RSS in all
MAX_GAUSSIAN_SIZE = 4096

# the bytes of P2 text that one step of the P2 reader scans, and of the
# largest per-pixel work array of one step of the P2 writer, the detector
# lookup and the ring profile: the work arrays stay in cache, and the
# temporaries do not grow with the image
_BLOCK = 1 << 16


class ImageGray:
    """8-bit grayscale image backed by a (height, width) uint8 array."""

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.ndim != 2 or arr.size == 0:
            raise DomainError("ImageGray needs a non-empty 2-D pixel array")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise DomainError(f"pixels must be integers, got {arr.dtype}")
            if arr.min() < 0 or arr.max() > 255:
                raise DomainError("pixel values must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        self.pixels = arr

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other):
        if not isinstance(other, ImageGray):
            return NotImplemented
        return (self.pixels.shape == other.pixels.shape
                and bool(np.all(self.pixels == other.pixels)))

    def __repr__(self):
        return f"ImageGray({self.width}x{self.height})"


def gen_gaussian_image(size: int = 129, sigma: float | None = None,
                       amplitude: int = 255) -> ImageGray:
    """Centered Gaussian intensity blob.

    Pixel (y, x) gets round(amplitude * exp(-r^2 / (2 sigma^2))) where r
    is the distance to the image center (size-1)/2. sigma defaults to
    size/6 so the blob decays to roughly nothing at the borders. size
    lies in [3, MAX_GAUSSIAN_SIZE].
    """
    try:
        size = operator.index(size)
    except TypeError:
        raise DomainError(f"size must be an integer, got {size!r}") from None
    if size < 3:
        raise DomainError(f"size must be >= 3, got {size}")
    if size > MAX_GAUSSIAN_SIZE:
        raise DomainError(f"size {size} exceeds the limit of "
                          f"{MAX_GAUSSIAN_SIZE}")
    if sigma is None:
        sigma = size / 6.0
    if not (math.isfinite(sigma) and sigma > 0):
        raise DomainError(f"sigma must be finite and positive, got {sigma}")
    if not 0 < amplitude <= 255:
        raise DomainError(f"amplitude must lie in (0, 255], got {amplitude}")
    c = (size - 1) / 2.0
    # r^2 / (2 sigma^2) must be in range up to the corners, where r^2 is
    # largest: an underflowed divisor makes the center pixel 0/0
    divisor = 2.0 * sigma * sigma
    if not (divisor > 0.0 and (c * c + c * c) / divisor < math.inf):
        raise DomainError(f"sigma {sigma} is too small for a {size}x{size} "
                          f"image: r^2 / (2 sigma^2) is out of range")
    yy, xx = np.ogrid[0:size, 0:size]   # a column and a row, broadcast
    vals = (yy - c) ** 2 + (xx - c) ** 2   # r^2, the one full-size array
    vals /= -divisor
    np.exp(vals, out=vals)
    vals *= amplitude
    return ImageGray(np.rint(vals, out=vals).astype(np.uint8))


# a header token after any whitespace and # comments; the lookaheads
# keep backtracking from ending a comment or a token early. At most one
# whitespace byte after the maxval is header: the raster starts past it.
_TOKEN = rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]+)(?![^\s#])"
_HEADER = re.compile(_TOKEN * 4 + rb"\s?")
_MAGIC = re.compile(rb"[^\s#]{0,8}")   # the first token, cut for a message


def _p2_samples(raster, count: int) -> np.ndarray:
    """The first count samples of a P2 raster (a bytes-like object).

    Samples are runs of ASCII digits between runs of the whitespace that
    bytes.split() splits on; leading zeros are allowed. The raster is
    scanned in blocks of about _BLOCK bytes, each cut just after a
    whitespace byte so that no sample spans two; bytes past the end of
    the count-th sample are not checked.
    """
    data = np.frombuffer(raster, np.uint8)
    # a sample and its separator take two bytes, so a short raster with a
    # huge count allocates no more than the raster could hold
    out = np.empty(min(count, (data.size + 1) // 2), np.uint8)
    found = start = 0
    size = _BLOCK
    error = None        # a non-numeric sample outranks one out of range
    while found < count and start < data.size:
        block = data[start:start + size]
        final = start + block.size == data.size
        # two whitespace bytes in front keep the three digits ending at
        # every sample's last byte in bounds; one more ends the raster
        buf = np.full(block.size + 2 + final, 32, np.uint8)
        buf[2:2 + block.size] = block
        token = (buf != 32) & (buf - np.uint8(9) >= 5)  # not \t\n\v\f\r, space
        ends = np.flatnonzero(token[:-1] > token[1:])   # whitespace follows
        if not (ends.size or final):
            size *= 2           # no whole sample in the block: a longer one
            continue
        # the next block starts just past the whitespace after the last end
        start = data.size if final else start + ends[-1]
        size = _BLOCK
        if not ends.size:
            break               # whitespace to the raster's end
        ends = ends[:count - found]
        stop = ends[-1] + 1
        digit = buf[:stop] - np.uint8(48)
        token = token[:stop]
        if np.any((digit > 9) & token):
            error = "non-numeric sample in P2 raster"
        elif error is None:
            digit *= token              # whitespace reads as 0
            # out of range: above 255, or a nonzero digit left of the last
            # three
            far = np.any((digit[:-3] != 0) & token[1:-2] & token[2:-1]
                         & token[3:])
            # the number spelled by the three digits ending at each byte;
            # the hundreds count only when the tens belong to the same
            # sample
            value = np.multiply(digit[:-2], token[1:-1], dtype=np.uint16)
            value *= 10
            value += digit[1:-1]
            value *= 10
            value += digit[2:]
            ends -= 2
            value = value[ends]
            if far or np.any(value > 255):
                error = "P2 sample outside [0, 255]"
            out[found:found + ends.size] = value
        found += ends.size
    if found < count:
        raise TruncatedData(f"expected {count} samples, got {found}")
    if error:
        raise TruncatedData(error)
    return out


def read_pgm(path) -> ImageGray:
    """Read a P2 or P5 PGM file with maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = _MAGIC.match(data)[0]
    if magic not in (b"P2", b"P5"):
        raise BadMagic(f"not a P2/P5 PGM file (magic "
                       f"{magic.decode('ascii', 'replace') or '<empty>'!r})")
    header = _HEADER.match(data)
    if header is None:
        raise BadHeader("header ended before size and maxval")
    fields = header.groups()[1:]
    if not all(t.isdigit() for t in fields):
        raise BadHeader(f"non-integer size or maxval in header: "
                        f"{b' '.join(fields).decode('ascii', 'replace')}")
    # int() refuses more than 4300 digits; 18 hold any size that fits a file
    fields = [t.lstrip(b"0") or b"0" for t in fields]
    for t in fields:
        if len(t) > 18:
            raise BadHeader(f"header number {t[:40].decode()}... has more "
                            "than 18 digits")
    width, height, maxval = map(int, fields)
    off = header.end()
    if width <= 0 or height <= 0:
        raise BadHeader(f"image size {width}x{height} is not positive")
    if maxval != 255:
        raise UnsupportedMaxval(f"only maxval 255 is supported, got {maxval}")
    count = width * height
    if magic == b"P5":
        if len(data) - off < count:
            raise TruncatedData(f"expected {count} raster bytes, "
                                f"got {len(data) - off}")
        # one copy out of the file's bytes: writable, as a P2 read is
        arr = np.frombuffer(data, np.uint8, count, off).copy()
    else:
        arr = _p2_samples(memoryview(data)[off:], count)
    return ImageGray(arr.reshape(height, width))


# each byte value's P2 text, NUL-padded to one 4-byte word: its decimal
# digits and a space, or a newline for the last sample of a row
_P2_WORD, _P2_LINE = (
    np.array([f"{v}{end}".encode() for v in range(256)], "S4").view(np.uint32)
    for end in " \n")


def _p2_raster(px: np.ndarray) -> bytes:
    """P2 text of a pixel array: one row per line, samples separated by
    single spaces."""
    text = _P2_WORD.take(px)
    text[:, -1] = _P2_LINE.take(px[:, -1])
    return text.tobytes().translate(None, b"\0")     # drop the padding


def write_pgm(path, image: ImageGray, binary: bool = True) -> None:
    """Write a PGM file, P5 by default, P2 when binary=False."""
    px = image.pixels
    header = f"{'P5' if binary else 'P2'}\n{image.width} {image.height}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(px.tobytes())
        else:
            # the work array holds a 4-byte word per sample
            rows = max(1, _BLOCK // (4 * image.width))
            for top in range(0, image.height, rows):
                fh.write(_p2_raster(px[top:top + rows]))


def pixel_to_voltage(pixels, v_low: float = 0.0,
                     v_high: float = 3.0) -> np.ndarray:
    """Affine map of 8-bit intensities onto [v_low, v_high]."""
    for name, bound in (("v_low", v_low), ("v_high", v_high)):
        if math.isinf(bound):   # NaN fails the order check below
            raise DomainError(f"{name} must be finite, got {bound}")
    if not v_high > v_low:
        raise DomainError(f"need v_high > v_low, got {v_low} .. {v_high}")
    arr = np.asarray(pixels, dtype=float)
    return v_low + (v_high - v_low) * arr / 255.0


class ResponseLut:
    """Lookup table over a swept response, normalized on application.

    Inputs must be strictly increasing. Lookups between samples are
    linearly interpolated; lookups outside the swept range raise
    LutRangeError rather than extrapolating.
    """

    def __init__(self, inputs, outputs):
        x = np.asarray(inputs, dtype=float)
        y = np.asarray(outputs, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
            raise DomainError("lut needs matching 1-D arrays of >= 2 points")
        if not np.all(np.isfinite(x) & np.isfinite(y)):
            raise DomainError("lut inputs and outputs must be finite")
        if not np.all(np.diff(x) > 0):
            raise DomainError("lut inputs must be strictly increasing")
        self.inputs = x
        self.outputs = y

    @classmethod
    def from_sweep(cls, sweep: SweepResult, node: str) -> "ResponseLut":
        return cls(sweep.inputs, sweep.column(node))

    def __call__(self, voltages) -> np.ndarray:
        v = np.asarray(voltages, dtype=float)
        lo, hi = self.inputs[0], self.inputs[-1]
        vmin, vmax = (v.min(), v.max()) if v.size else (lo, hi)
        if not lo <= vmin <= vmax <= hi:            # a NaN fails too
            bad = float(vmax if lo <= vmin else vmin)
            raise LutRangeError(
                f"voltage {bad:.6g} outside sweep range [{lo:.6g}, {hi:.6g}]")
        return np.interp(v, self.inputs, self.outputs)

    def normalized(self, voltages) -> np.ndarray:
        """Interpolated response scaled by the table's global extrema.

        A constant table normalizes to all zeros.
        """
        raw = self(voltages)
        lo = float(self.outputs.min())
        hi = float(self.outputs.max())
        if hi <= lo:
            return np.zeros_like(raw)
        return (raw - lo) / (hi - lo)


def apply_detector(image: ImageGray, lut: ResponseLut,
                   v_low: float = 0.0, v_high: float = 3.0) -> np.ndarray:
    """Per-pixel normalized detector response of an image.

    Pixels map affinely onto [v_low, v_high], the swept response is
    interpolated at those voltages and normalized by the table's global
    extrema, giving a float array in [0, 1]. The response is evaluated
    once per intensity level from the image's least to its greatest, so
    the result and any LutRangeError are those of evaluating every pixel.
    """
    px = image.pixels
    lo, hi = int(px.min()), int(px.max())
    # the map rises with the level, so the table spans the same voltages;
    # it is indexed by the level itself, and no pixel reads below lo
    table = np.zeros(hi + 1)
    table[lo:] = lut.normalized(pixel_to_voltage(np.arange(lo, hi + 1),
                                                 v_low, v_high))
    out = np.empty(px.shape)
    # take converts its indices to intp, 8 bytes a pixel: a row block at a
    # time. Every level is in the table, so "clip" only spares the bounds
    # check and the buffered copy of out that "raise" makes
    rows = max(1, _BLOCK // (8 * image.width))
    for top in range(0, image.height, rows):
        np.take(table, px[top:top + rows], out=out[top:top + rows],
                mode="clip")
    return out


@dataclass(frozen=True)
class RingMetrics:
    """Radial summary of an annular response."""

    peak_radius: float
    thickness: float
    peak_brightness: float


@functools.lru_cache(maxsize=4)     # kept: 4 B or less per pixel inside rmax
def _ring_geometry(h: int, w: int):
    """Pixels within rmax of the center of an h x w image, rmax the
    largest full annulus, as a read-only flat index ordered by rounded
    radius and then row-major, and the index bounds of each radius
    0..rmax."""
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rmax = int(min(cy, cx))
    yy, xx = np.ogrid[0:h, 0:w]
    dy, dx = yy - cy, xx - cx
    # the offsets are whole or half numbers, so each squared distance is
    # exact and its correctly rounded root is a half number k + 1/2 only
    # when the distance is; otherwise it lies at least 0.25/(2k + 2) from
    # one, far above an ulp: the rounded root is the rounded distance
    radii = dy * dy + dx * dx
    np.sqrt(radii, out=radii)
    np.rint(radii, out=radii)
    # pixels beyond rmax sort last; a stable (radix) sort keeps each
    # radius's pixels in row-major order
    np.minimum(radii, rmax + 1, out=radii)
    radii = radii.astype(np.min_scalar_type(rmax + 1)).ravel()
    order = np.argsort(radii, kind="stable")
    bounds = np.searchsorted(radii[order], np.arange(rmax + 2))
    index = order[:bounds[-1]].astype(np.min_scalar_type(h * w))
    index.flags.writeable = False
    return index, tuple(bounds.tolist())


def _radial_profile(response: np.ndarray) -> np.ndarray:
    if min(response.shape) < 5:   # rmax < 2
        raise NoRing("image too small for a radial profile")
    index, bounds = _ring_geometry(*response.shape)
    flat = response.ravel()
    prof = np.zeros(len(bounds) - 1)
    r = 0
    while r < prof.size:
        # radii r..end-1 are gathered together: at most _BLOCK bytes of
        # float64 values (and of intp indices), or the one radius r if it
        # alone has more. Every index is in the image, so "clip" only
        # spares take's bounds check
        first = bounds[r]
        end = max(bisect.bisect_right(bounds, first + _BLOCK // 8) - 1, r + 1)
        values = flat.take(index[first:bounds[end]], mode="clip")
        # each slice's sum over its count is response[radii == k].mean():
        # the same values added in the same order, without mean's Python
        # wrapper; bincount or reduceat would reorder them
        for k in range(r, end):
            a, b = bounds[k] - first, bounds[k + 1] - first
            if b > a:
                prof[k] = np.add.reduce(values[a:b]) / (b - a)
        r = end
    return prof


def ring_metrics(response) -> RingMetrics:
    """Ring position, full width at half maximum and peak brightness.

    The response is averaged over integer-rounded radii about the image
    center ((h-1)/2, (w-1)/2) out to the largest full annulus; the ring
    geometry of the last few image shapes is kept and reused by later
    calls. Raises NoRing when the profile is flat, peaks at the center
    (a blob, not a ring), or never falls back to half height on both
    sides of the peak. A non-finite response value is a DomainError.
    """
    from .cells import _half_crossings, _runs
    resp = np.asarray(response, dtype=float)
    if resp.ndim != 2:
        raise DomainError("response must be a 2-D array")
    if not np.all(np.isfinite(resp)):
        raise DomainError("response holds a non-finite value")
    prof = _radial_profile(resp)
    peak = float(prof.max())
    if peak <= 0.0 or peak - float(prof.min()) < 1e-12:
        raise NoRing("radial profile is flat")
    ipk = int(prof.argmax())
    if ipk == 0:
        raise NoRing("response peaks at the center, not on a ring")
    half = 0.5 * peak
    first, last = _runs(prof >= half)
    k = first.searchsorted(ipk, side="right") - 1   # the run holding the peak
    lo, hi = _half_crossings(np.arange(len(prof), dtype=float), prof, half,
                             first[k], last[k])
    if lo is None or hi is None:
        raise NoRing("ring does not fall to half height on both sides")
    return RingMetrics(peak_radius=float(ipk),
                       thickness=float(hi - lo),
                       peak_brightness=peak)
