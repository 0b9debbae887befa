"""Image generation, PGM round-trips and ring extraction.

The annulus oracle is exact by construction: a unit ring over rounded
radii 10..14 has its half-maximum crossings at 9.5 and 14.5, so the
reported thickness must be exactly 5.0.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dtlsim import imaging
from dtlsim.cells import (DETECTOR_CONFIG_1, DETECTOR_CONFIG_2,
                          build_intensity_detector)
from dtlsim.errors import (BadHeader, BadMagic, DomainError, LutRangeError,
                           NoRing, PgmError, TruncatedData, UnsupportedMaxval)
from dtlsim.imaging import (ImageGray, ResponseLut, RingMetrics, apply_detector,
                            gen_gaussian_image, pixel_to_voltage, read_pgm,
                            ring_metrics, write_pgm)
from dtlsim.solver import SweepResult

from conftest import dc_from_directive


# --- ImageGray -------------------------------------------------------------

def test_imagegray_accepts_int_arrays():
    im = ImageGray([[0, 128, 9], [255, 7, 3]])
    assert im.width == 3 and im.height == 2
    assert im.pixels.dtype == np.uint8
    assert repr(im) == "ImageGray(3x2)"   # width by height


def test_imagegray_validation():
    with pytest.raises(DomainError):
        ImageGray([1, 2, 3])                     # 1-D
    with pytest.raises(DomainError):
        ImageGray(np.zeros((0, 4), dtype=np.uint8))
    with pytest.raises(DomainError):
        ImageGray([[0.5, 1.0]])                  # floats
    with pytest.raises(DomainError):
        ImageGray([[0, 300]])                    # out of range
    with pytest.raises(DomainError):
        ImageGray([[-1, 0]])


def test_imagegray_equality():
    a = ImageGray([[1, 2], [3, 4]])
    assert a == ImageGray([[1, 2], [3, 4]])
    assert a != ImageGray([[1, 2], [3, 5]])
    assert a != ImageGray([[1, 2, 3, 4]])
    assert a != "not an image"


# --- Gaussian blob -----------------------------------------------------------

def test_gaussian_center_and_symmetry():
    im = gen_gaussian_image()
    px = im.pixels
    assert px.shape == (129, 129)
    assert px[64, 64] == 255
    assert np.array_equal(px, px[::-1, :])
    assert np.array_equal(px, px[:, ::-1])
    assert np.array_equal(px, px.T)
    assert px[0, 0] == 0    # default sigma decays to nothing at the corner


def test_gaussian_frozen_sample():
    # 10 pixels off center at sigma 10: 255*exp(-0.5) rounds to 155
    im = gen_gaussian_image(65, sigma=10.0)
    assert im.pixels[32, 42] == 155
    assert im.pixels[42, 32] == 155
    assert im.pixels[32, 32] == 255


def test_gaussian_amplitude_and_monotone_profile():
    im = gen_gaussian_image(33, sigma=5.0, amplitude=100)
    px = im.pixels
    assert px[16, 16] == 100
    row = px[16, 16:].astype(int)
    assert np.all(np.diff(row) <= 0)   # radially non-increasing


# odd and even sides; at 5 and 6 a 64-byte block holds two of the
# quadrant's three rows, and at 1025 a default block 15 of its 513
@pytest.mark.parametrize("size", [3, 4, 5, 6, 128, 129, 1024, 1025, 4096])
def test_gaussian_equals_full_grid_formula(size):
    # the formula on two full np.mgrid index grids, as it was first written,
    # against row blocks of one row, of a few rows and of the default size
    yy, xx = np.mgrid[0:size, 0:size]
    c = (size - 1) / 2.0
    r2 = (yy - c) ** 2 + (xx - c) ** 2
    blocks = (8, 64, imaging._BLOCK)
    for sigma, amplitude in ((None, 255), (size / 3.5, 255), (None, 100)):
        s = size / 6.0 if sigma is None else sigma
        want = np.rint(amplitude * np.exp(-r2 / (2.0 * s * s))).astype(np.uint8)
        assert (_at_blocks(blocks, lambda: gen_gaussian_image(
                    size, sigma, amplitude).pixels.tobytes())
                == [want.tobytes()] * len(blocks))


def test_gaussian_validation():
    with pytest.raises(DomainError):
        gen_gaussian_image(2)
    with pytest.raises(DomainError):
        gen_gaussian_image(65, sigma=0.0)
    with pytest.raises(DomainError):
        gen_gaussian_image(65, amplitude=0)
    with pytest.raises(DomainError):
        gen_gaussian_image(65, amplitude=256)
    with pytest.raises(DomainError):
        gen_gaussian_image(9.5)                  # not an integer size
    with pytest.raises(DomainError):
        gen_gaussian_image(9.0)
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            gen_gaussian_image(9, sigma=sigma)
    # at 1e-300, 2 sigma^2 underflows to 0 and the center pixel is 0/0;
    # at 1e-160, r^2 / (2 sigma^2) overflows at the corners
    for sigma in (1e-300, 1e-160):
        with pytest.raises(DomainError, match=f"sigma {sigma} is too small"):
            gen_gaussian_image(5, sigma=sigma)
    # a sigma in range gives the formula's image: amplitude at r = 0 only
    assert gen_gaussian_image(5, sigma=1e-150).pixels.tolist() == [
        [0] * 5, [0] * 5, [0, 0, 255, 0, 0], [0] * 5, [0] * 5]
    assert gen_gaussian_image(np.int64(9)) == gen_gaussian_image(9)


@pytest.mark.parametrize("size", [4097, 10**6, 10**12])
def test_gaussian_size_is_bounded(size):
    # 10**12 would ask numpy for exabytes if the check came after the grid
    with pytest.raises(DomainError, match=f"size {size} exceeds the limit "
                                          f"of 4096"):
        gen_gaussian_image(size)


# --- PGM I/O ---------------------------------------------------------------------

def _random_image(rng, h=11, w=7):
    return ImageGray(rng.integers(0, 256, size=(h, w), dtype=np.uint8))


@pytest.mark.parametrize("binary", [True, False])
def test_pgm_round_trip(tmp_path, binary):
    rng = np.random.default_rng(4)
    im = _random_image(rng)
    p = tmp_path / "x.pgm"
    write_pgm(p, im, binary=binary)
    assert read_pgm(p) == im
    # a strided view of the pixels writes the bytes of its contiguous copy
    a = rng.integers(0, 256, size=(11, 14), dtype=np.uint8)
    view, twin = tmp_path / "view.pgm", tmp_path / "twin.pgm"
    write_pgm(view, ImageGray(a[:, ::2]), binary=binary)
    write_pgm(twin, ImageGray(a[:, ::2].copy()), binary=binary)
    assert view.read_bytes() == twin.read_bytes()
    assert read_pgm(view) == ImageGray(a[:, ::2])


def test_p5_and_p2_reads_give_equal_writable_images(tmp_path):
    # a P5 read copies its raster out of the file's bytes, so its pixels
    # are writable, as a P2 read's and a generated image's are
    im = gen_gaussian_image(33)
    p5, p2 = tmp_path / "p5.pgm", tmp_path / "p2.pgm"
    write_pgm(p5, im)
    write_pgm(p2, im, binary=False)
    images = read_pgm(p5), read_pgm(p2)
    assert images[0] == images[1] == im
    for img in (*images, im):
        img.pixels[0, 0] = 7
        assert img.pixels[0, 0] == 7


def test_pgm_write_is_byte_deterministic(tmp_path):
    im = gen_gaussian_image(33)
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(a, im)
    write_pgm(b, im)
    assert a.read_bytes() == b.read_bytes()


def test_p5_raster_bytes_that_look_like_text(tmp_path):
    # raster bytes 10 (newline), 13, 32 (space) and 35 ('#') must pass
    # through untouched: the raster is positional, not tokenized
    im = ImageGray(np.array([[10, 13], [32, 35]], dtype=np.uint8))
    p = tmp_path / "tricky.pgm"
    write_pgm(p, im)
    assert read_pgm(p) == im


def test_p5_single_separator_before_raster(tmp_path):
    # exactly one whitespace terminates the maxval; a leading 0x20 raster
    # byte must not be eaten as header padding
    p = tmp_path / "sep.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([32, 0, 1, 2]))
    assert np.array_equal(read_pgm(p).pixels, [[32, 0], [1, 2]])


def test_pgm_header_comments_tolerated(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P2 # magic\n# a full comment line\n3 2 # size\n255\n"
                  b"0 1 2\n3 4 5\n")
    assert np.array_equal(read_pgm(p).pixels, [[0, 1, 2], [3, 4, 5]])


def test_pgm_bad_magic(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(BadMagic):
        read_pgm(p)
    p.write_bytes(b"")
    with pytest.raises(BadMagic):
        read_pgm(p)


@pytest.mark.parametrize("data", [
    b"P2x 2 1 255\n1 2\n",
    b"P55 2 1 255\n1 2\n",
    b"P5x 2 1 255\n\x01\x02",
    b" P5 2 1 255\n\x01\x02",
])
def test_pgm_magic_is_the_whole_first_token(tmp_path, data):
    p = tmp_path / "m.pgm"
    p.write_bytes(data)
    with pytest.raises(BadMagic, match="not a P2/P5 PGM file"):
        read_pgm(p)


def test_pgm_bad_header(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n3 x\n255\n0 0 0")
    with pytest.raises(BadHeader):
        read_pgm(p)
    p.write_bytes(b"P2\n0 2\n255\n")
    with pytest.raises(BadHeader):
        read_pgm(p)
    p.write_bytes(b"P5\n3")           # header ends early
    with pytest.raises(BadHeader):
        read_pgm(p)


@pytest.mark.parametrize("header", [
    b"P5#c\n2 1\n255\n",                     # a comment right after a token
    b"P5# m\n2#w\n#\n1 # h #\n255\n",          # one between every pair
    b"P5\r2\x0b1\x0c255\r",                    # CR, VT and FF separate
    b"P5\t002 01\n255 ",                        # leading zeros
    pytest.param(b"P5 2 1 " + b"0" * 5000 + b"255\n",   # past int()'s limit
                 id="P5 2 1 0...0255"),
])
def test_pgm_header_separators(tmp_path, header):
    p = tmp_path / "h.pgm"
    p.write_bytes(header + bytes([32, 35]))
    assert np.array_equal(read_pgm(p).pixels, [[32, 35]])


@pytest.mark.parametrize("header, error", [
    (b"P5 2 1", "header ended before"),       # fewer than four tokens
    (b"P5 2 1 # 255\n", "header ended before"),
    (b"P5#2 1 255\n", "header ended before"),
    (b"P5\n1_0 +1\n255\n", "non-integer"),   # int() would read 10x1
    (b"P5\n+1 1\n255\n", "non-integer"),
    (b"P5\n1 1\n+255\n", "non-integer"),
    (b"P5\n1 -1\n255\n", "non-integer"),
    (b"P5\n\xd9\xa1 1\n255\n", "non-integer"),   # an Arabic-Indic one
])
def test_pgm_header_rejects(tmp_path, header, error):
    p = tmp_path / "h.pgm"
    p.write_bytes(header)
    with pytest.raises(BadHeader, match=error):
        read_pgm(p)


@pytest.mark.parametrize("magic", [b"P5", b"P2"])
@pytest.mark.parametrize("field", range(3))
def test_pgm_header_number_over_18_digits(tmp_path, magic, field):
    # int() alone raises a plain ValueError past 4300 digits
    fields = [b"1", b"1", b"255"]
    fields[field] = b"1" * 5000
    p = tmp_path / "long.pgm"
    p.write_bytes(magic + b"\n" + b" ".join(fields) + b"\n0 ")
    with pytest.raises(BadHeader, match=r"header number 1{40}\.\.\. has more"):
        read_pgm(p)


def test_pgm_unsupported_maxval(tmp_path):
    p = tmp_path / "deep.pgm"
    p.write_bytes(b"P2\n2 1\n65535\n0 0\n")
    with pytest.raises(UnsupportedMaxval):
        read_pgm(p)


def test_pgm_truncated_data(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(TruncatedData):
        read_pgm(p)
    p.write_bytes(b"P2\n2 2\n255\n0 1 2\n")
    with pytest.raises(TruncatedData):
        read_pgm(p)
    p.write_bytes(b"P2\n2 1\n255\n0 zz\n")
    with pytest.raises(TruncatedData):
        read_pgm(p)
    p.write_bytes(b"P2\n2 1\n255\n0 300\n")
    with pytest.raises(TruncatedData):
        read_pgm(p)


def test_pgm_errors_share_a_base():
    for exc in (BadMagic, BadHeader, TruncatedData, UnsupportedMaxval):
        assert issubclass(exc, PgmError)


# --- intensity-to-voltage and LUTs ------------------------------------------------

def test_pixel_to_voltage_endpoints():
    v = pixel_to_voltage(np.array([0, 51, 255]), 0.0, 3.0)
    assert v[0] == 0.0
    assert v[1] == pytest.approx(0.6)
    assert v[2] == 3.0
    v = pixel_to_voltage(np.array([0, 255]), 1.0, 2.0)
    assert v[0] == 1.0 and v[1] == 2.0


def test_pixel_to_voltage_validation():
    with pytest.raises(DomainError):
        pixel_to_voltage(np.array([0]), 2.0, 1.0)
    inf = math.inf
    for lo, hi, name in ((0.0, inf, "v_high"), (-inf, 1.0, "v_low"),
                         (-inf, inf, "v_low"), (inf, inf, "v_low")):
        with pytest.raises(DomainError, match=f"^{name} must be finite, got "):
            pixel_to_voltage(np.array([0, 128, 255]), lo, hi)
    # the detector maps through it: a bound is named, not a NaN voltage
    lut = ResponseLut([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    with pytest.raises(DomainError, match="^v_high must be finite, got inf$"):
        apply_detector(gen_gaussian_image(9), lut, 0.0, inf)


def test_lut_interpolates_and_hits_samples():
    lut = ResponseLut([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    assert float(lut(1.0)) == 2.0
    assert float(lut(0.5)) == 1.0
    assert float(lut(1.75)) == 0.5


def test_lut_range_error():
    lut = ResponseLut([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(LutRangeError):
        lut(-0.01)
    with pytest.raises(LutRangeError):
        lut(np.array([0.5, 1.01]))
    with pytest.raises(LutRangeError, match="voltage nan"):
        lut([float("nan")])
    with pytest.raises(LutRangeError, match="voltage nan"):
        lut(np.array([0.5, float("nan"), 0.25]))
    with pytest.raises(LutRangeError, match="voltage inf"):
        lut([0.5, float("inf")])
    assert lut([]).size == 0


def test_lut_validation():
    with pytest.raises(DomainError):
        ResponseLut([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])   # not increasing
    with pytest.raises(DomainError):
        ResponseLut([0.0], [1.0])
    with pytest.raises(DomainError):
        ResponseLut([0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        ResponseLut([0.0, 1.0], [0.0, float("nan")])
    with pytest.raises(DomainError):
        ResponseLut([0.0, 1.0], [float("-inf"), 1.0])
    with pytest.raises(DomainError):
        ResponseLut([0.0, float("inf")], [0.0, 1.0])


def test_lut_normalized_scales_by_table_extrema():
    lut = ResponseLut([0.0, 1.0, 2.0], [1.0, 3.0, 1.0])
    out = lut.normalized(np.array([0.0, 1.0, 0.5]))
    assert out == pytest.approx([0.0, 1.0, 0.5])


def test_lut_constant_table_normalizes_to_zero():
    lut = ResponseLut([0.0, 1.0], [2.0, 2.0])
    assert np.array_equal(lut.normalized(np.array([0.0, 0.7])), [0.0, 0.0])


def test_lut_from_sweep():
    s = SweepResult(source="v_in", inputs=np.array([0.0, 1.0, 2.0]),
                    voltages={"out": np.array([0.0, 5.0, 0.0])})
    lut = ResponseLut.from_sweep(s, "out")
    assert float(lut(0.5)) == 2.5
    with pytest.raises(DomainError, match=r"no node 'nope' among \['out'\]"):
        ResponseLut.from_sweep(s, "nope")


def _lut_outcome(f, *args):
    """The result's dtype, shape and bytes (bit-exact), or the error."""
    try:
        out = f(*args)
        return out.dtype, out.shape, out.tobytes()
    except LutRangeError as exc:
        return type(exc), str(exc)


def _apply_detector_per_pixel(image, lut, v_low, v_high):
    return lut.normalized(pixel_to_voltage(image.pixels, v_low, v_high))


@st.composite
def _detector_cases(draw):
    """An image on a sub-range of levels and a LUT whose swept range, in
    levels, starts and ends within a few levels of the image's."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(0, 255))
    hi = draw(st.integers(lo, min(lo + draw(st.sampled_from([3, 40, 255])),
                                  255)))
    shape = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    image = ImageGray(rng.integers(lo, hi, shape, endpoint=True))
    v_low = draw(st.sampled_from([0.0, -0.7, 1.3]))
    v_high = v_low + draw(st.sampled_from([3.0, 0.25, 7.0]))
    # a LUT end on a level matches that level's voltage exactly; a
    # fractional offset moves it between levels
    first = lo - draw(st.integers(-2, 3)) + draw(st.sampled_from([0.0, 0.5]))
    last = max(hi + draw(st.integers(-2, 3))
               - draw(st.sampled_from([0.0, 0.5])), first + 1.0)
    steps = np.cumsum(rng.uniform(0.1, 1.0, draw(st.integers(1, 8))))
    levels = np.concatenate([[first],
                             first + (last - first) * steps / steps[-1]])
    outputs = (np.full(levels.size, 0.4) if draw(st.booleans())
               else rng.normal(size=levels.size))
    lut = ResponseLut(pixel_to_voltage(levels, v_low, v_high), outputs)
    return image, lut, v_low, v_high


@given(_detector_cases())
def test_apply_detector_equals_per_pixel_evaluation(case):
    # one table entry per level gives the same bits as evaluating every
    # pixel, and an out-of-range level the same error, whether a block
    # holds a part of a row, one row or several
    blocks = (8, 40, imaging._BLOCK)
    assert (_at_blocks(blocks, lambda: _lut_outcome(apply_detector, *case))
            == [_lut_outcome(_apply_detector_per_pixel, *case)] * len(blocks))


def test_apply_detector_range_error_names_the_extreme_pixel():
    lut = ResponseLut([0.0, 1.0], [0.0, 1.0])
    image = ImageGray([[0, 40], [90, 17]])
    with pytest.raises(LutRangeError, match=r"voltage 1\.05882 outside sweep"):
        apply_detector(image, lut, 0.0, 3.0)
    with pytest.raises(LutRangeError, match=r"voltage -0\.5 outside"):
        apply_detector(image, lut, -0.5, 2.5)
    assert np.array_equal(apply_detector(ImageGray([[0, 85]]), lut, 0.0, 3.0),
                          [[0.0, 1.0]])


# --- ring metrics -----------------------------------------------------------------

def _annulus(size=65, r_lo=10, r_hi=14):
    c = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size]
    rr = np.rint(np.hypot(yy - c, xx - c)).astype(int)
    return np.where((rr >= r_lo) & (rr <= r_hi), 1.0, 0.0)


def test_ring_metrics_annulus_oracle_exact():
    m = ring_metrics(_annulus())
    assert m.peak_radius == 10.0        # first sample of the unit plateau
    assert m.thickness == 5.0           # crossings at exactly 9.5 and 14.5
    assert m.peak_brightness == 1.0


def test_ring_metrics_transpose_invariant():
    resp = _annulus()
    a = ring_metrics(resp)
    b = ring_metrics(resp.T)
    assert a == b


def test_ring_metrics_rejects_blob_and_flat():
    blob = gen_gaussian_image(65).pixels.astype(float) / 255.0
    with pytest.raises(NoRing):
        ring_metrics(blob)
    with pytest.raises(NoRing):
        ring_metrics(np.ones((31, 31)))
    with pytest.raises(NoRing):
        ring_metrics(np.zeros((31, 31)))


def test_ring_metrics_needs_half_crossings():
    # cone rising to the border: never falls back to half on the outside
    yy, xx = np.mgrid[0:41, 0:41]
    cone = np.hypot(yy - 20, xx - 20)
    with pytest.raises(NoRing):
        ring_metrics(cone)


def test_ring_metrics_too_small():
    with pytest.raises(NoRing):
        ring_metrics(np.ones((3, 3)))
    with pytest.raises(DomainError):
        ring_metrics(np.ones(9))


def test_ring_metrics_rejects_non_finite_input():
    resp = _annulus()
    for bad in (float("nan"), float("inf")):
        poisoned = resp.copy()
        poisoned[32, 44] = bad
        with pytest.raises(DomainError):
            ring_metrics(poisoned)


# --- end-to-end: blob through a band lut lights a ring ------------------------------

def test_gaussian_through_band_lut_gives_ring():
    lut = ResponseLut([0.0, 0.9, 1.2, 1.5, 3.0], [0.0, 0.0, 2.0, 0.0, 0.0])
    im = gen_gaussian_image(65)
    resp = apply_detector(im, lut, 0.0, 3.0)
    assert resp.shape == (65, 65)
    assert resp.min() >= 0.0 and resp.max() <= 1.0
    m = ring_metrics(resp)
    # sigma 65/6: the band centre 1.2 V maps to intensity 102, crossed
    # near r = sigma * sqrt(2 ln(255/102)) ~ 14.7
    assert 12.0 <= m.peak_radius <= 17.0
    assert 1.0 <= m.thickness <= 8.0
    assert m.peak_brightness > 0.5


def test_gaussian_rings_are_frozen():
    # exact values: radial means from np.bincount, which reorders the
    # sums, move config 1's peak radius to 357 and config 2's to 335
    image = gen_gaussian_image(1025)
    rings = [ring_metrics(apply_detector(image, ResponseLut.from_sweep(
                 dc_from_directive(build_intensity_detector(cfg)), "out")))
             for cfg in (DETECTOR_CONFIG_1, DETECTOR_CONFIG_2)]
    assert rings == [
        RingMetrics(356.0, 40.01882745708974, 0.9993243624463775),
        RingMetrics(336.0, 172.9144214930884, 0.9990405956617089)]


# --- loop references of the vectorized imaging paths --------------------------------

def _radial_profile_loop(response):
    h, w = response.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.mgrid[0:h, 0:w]
    radii = np.rint(np.hypot(yy - cy, xx - cx)).astype(int)
    rmax = int(min(cy, cx, h - 1 - cy, w - 1 - cx))
    if rmax < 2:
        raise NoRing("image too small for a radial profile")
    prof = np.empty(rmax + 1)
    for r in range(rmax + 1):
        m = radii == r
        prof[r] = response[m].mean() if m.any() else 0.0
    return prof


def _p2_raster_loop(px):
    return b"".join((" ".join(str(int(v)) for v in row) + "\n").encode("ascii")
                    for row in px)


def _p2_samples_loop(raster, count):
    fields = raster.split()
    if len(fields) < count:
        raise TruncatedData(f"expected {count} samples, got {len(fields)}")
    try:
        vals = [int(f) for f in fields[:count]]
    except ValueError:
        raise TruncatedData("non-numeric sample in P2 raster")
    if min(vals) < 0 or max(vals) > 255:
        raise TruncatedData("P2 sample outside [0, 255]")
    return np.array(vals, dtype=np.uint8)


def _outcome(f, *args):
    """The result as a list (exact float comparison), or the error."""
    try:
        return f(*args).tolist()
    except (NoRing, TruncatedData) as exc:
        return type(exc), str(exc)


def _at_blocks(blocks, run):
    """run()'s result with imaging._BLOCK set to each of blocks in turn."""
    results = []
    for block in blocks:
        with mock.patch.object(imaging, "_BLOCK", block):
            results.append(run())
    return results


@st.composite
def _responses(draw):
    h, w = draw(st.integers(3, 90)), draw(st.integers(3, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # plateaus and ties from a few levels, or all-distinct values
    levels = rng.choice([0.0, 0.1, 0.3, 1.0], size=(h, w))
    kind = draw(st.sampled_from(["levels", "random", "mixed"]))
    return {"levels": levels, "random": rng.random((h, w)),
            "mixed": np.where(rng.random((h, w)) < 0.5, levels,
                              rng.random((h, w)))}[kind]


# the center is a pixel on an odd side and half-integer on an even one
@given(_responses())
@example(np.random.default_rng(1).random((9, 9)))
@example(np.random.default_rng(2).random((8, 8)))
@example(np.random.default_rng(3).random((8, 11)))
@example(np.random.default_rng(4).random((11, 8)))
def test_radial_profile_equals_its_loop(resp):
    assert (_outcome(imaging._radial_profile, resp)
            == _outcome(_radial_profile_loop, resp))


@given(_responses(), st.integers(0, 2**32 - 1))
def test_reused_ring_geometry_equals_its_loop(resp, seed):
    # later responses of one shape reuse the first's geometry; a
    # transposed response is not contiguous
    h, w = resp.shape
    rng = np.random.default_rng(seed)
    before = imaging._ring_geometry.cache_info()
    for other in (resp, rng.random((h, w)), rng.random((w, h)).T,
                  np.round(rng.random((h, w)), 1)):
        assert (_outcome(imaging._radial_profile, other)
                == _outcome(_radial_profile_loop, other))
    after = imaging._ring_geometry.cache_info()
    assert after.misses - before.misses <= 1


@pytest.mark.parametrize("h, w", [(9, 9), (10, 10), (9, 14), (14, 9),
                                  (12, 17), (64, 96), (101, 100)])
def test_ring_geometry_equals_its_hypot_reference(h, w):
    # radii from np.hypot, rounded, and the same stable sort
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rmax = int(min(cy, cx))
    yy, xx = np.ogrid[0:h, 0:w]
    radii = np.minimum(np.rint(np.hypot(yy - cy, xx - cx)), rmax + 1).ravel()
    order = np.argsort(radii, kind="stable")
    bounds = np.searchsorted(radii[order], np.arange(rmax + 2))
    index, got = imaging._ring_geometry(h, w)
    assert got == tuple(bounds.tolist())
    assert index.tolist() == order[:bounds[-1]].tolist()


def test_ring_geometry_is_read_only():
    index, bounds = imaging._ring_geometry(9, 11)
    assert index.dtype == np.uint8 and not index.flags.writeable
    with pytest.raises(ValueError):
        index[0] = 0
    assert bounds[0] == 0 and bounds[-1] == index.size
    assert imaging._ring_geometry(257, 257)[0].dtype \
        == np.uint32                        # 257^2 pixels pass 2^16


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_p2_read_and_detector_memory_stay_bounded(tmp_path):
    # traced peaks at 513^2, in blocks (and in whole-image steps): the P2
    # write_pgm 0.27x the file bytes (4.39x), read_pgm 2.46x the file
    # (8.66x), apply_detector 8.25x the image bytes, 8x being the float64
    # result (9.28x), ring_metrics with its geometry cached 0.13x the
    # response bytes, its finiteness mask (1.57x); the P5 write_pgm 0.02x
    # the pixel bytes (a whole copy, 1.02x). gen_gaussian_image(1025)
    # 1.27x its image bytes (9.02x)
    assert _traced_peak(gen_gaussian_image, 1025) <= 2 * 1025 * 1025
    image = gen_gaussian_image(513)
    path = tmp_path / "g.pgm"
    assert _traced_peak(write_pgm, path, image) <= 0.1 * image.pixels.nbytes
    write_peak = _traced_peak(write_pgm, path, image, False)
    assert write_peak <= 0.5 * path.stat().st_size
    assert _traced_peak(read_pgm, path) <= 3 * path.stat().st_size
    lut = ResponseLut([0.0, 0.9, 1.2, 1.5, 3.0], [0.0, 0.0, 2.0, 0.0, 0.0])
    assert _traced_peak(apply_detector, image, lut) <= 9 * image.pixels.nbytes
    response = apply_detector(image, lut)
    imaging._ring_geometry(*response.shape)
    assert _traced_peak(ring_metrics, response) <= 0.25 * response.nbytes


_SEPARATORS = [b" ", b"  ", b"\t", b"\r\n", b"\n", b" \t\n", b"\x0b\x0c"]
_BAD_SAMPLES = [b"zz", b"300", b"0300", b"1000", b"256", b"00000999", b"1a"]


def _header_loop(data):
    """The first four header tokens and the offset past the one whitespace
    byte after the last, or None if the header ends before them."""
    tokens, i, n = [], 0, len(data)
    while len(tokens) < 4:
        while i < n and data[i:i + 1].isspace():
            i += 1
        if i < n and data[i:i + 1] == b"#":
            while i < n and data[i:i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < n and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
            j += 1
        if j == i:
            return None
        tokens.append(data[i:j])
        i = j
    return tokens, i + (i < n and data[i:i + 1].isspace())


@given(st.lists(st.sampled_from([b"P5", b"1", b"255", b"#", b"# c", b" ",
                                 b"\n", b"\r", b"\t", b"\x0b", b"\x0c",
                                 b"x", b"\x85", b"\xa0"]), max_size=14))
def test_pgm_header_pattern_equals_its_loop(pieces):
    data = b"".join(pieces)
    header = imaging._HEADER.match(data)
    assert _header_loop(data) == (
        None if header is None else (list(header.groups()), header.end()))


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
@example(7, 4, 0)       # 64-byte blocks hold 4 rows, which do not divide 7
@example(3, 12, 0)      # a row is wider than an 8-byte block
def test_p2_writer_equals_its_loop(tmp_path_factory, h, w, seed):
    rng = np.random.default_rng(seed)
    px = rng.choice(np.array([0, 1, 9, 10, 99, 100, 254, 255], np.uint8),
                    size=(h, w))
    px[rng.random((h, w)) < 0.5] = rng.integers(0, 256, dtype=np.uint8)
    text = imaging._p2_raster(px)
    assert text == _p2_raster_loop(px)
    assert np.array_equal(imaging._p2_samples(text, px.size), px.ravel())
    # the file written and read back in blocks of one row or less, of a
    # few rows, and of the whole image
    path = tmp_path_factory.getbasetemp() / "p2_writer.pgm"
    blocks = (8, 64, imaging._BLOCK)

    def round_trip():
        write_pgm(path, ImageGray(px), binary=False)
        return path.read_bytes(), read_pgm(path).pixels.tolist()
    assert (_at_blocks(blocks, round_trip)
            == [(b"P2\n%d %d\n255\n" % (w, h) + _p2_raster_loop(px),
                 px.tolist())] * len(blocks))


# blocks of a byte or a few cut samples, whitespace runs and the end of
# the count-th sample at every place
_P2_BLOCKS = (1, 3, 8, 64, imaging._BLOCK)
_GAP = b" " * 70        # the samples on either side lie in different blocks


@given(st.lists(st.one_of(st.integers(0, 255), st.sampled_from(_BAD_SAMPLES)),
                max_size=30),
       st.data())
def test_p2_reader_equals_its_loop(samples, data):
    # valid samples get random leading zeros, every gap a random run
    # of whitespace; the count may ask for more samples than there are
    raster = b""
    for v in samples:
        raster += data.draw(st.sampled_from(_SEPARATORS))
        zeros = b"0" * data.draw(st.integers(0, 3))
        raster += zeros + b"%d" % v if isinstance(v, int) else v
    raster += data.draw(st.sampled_from([b"", b"\n"] + _SEPARATORS))
    count = data.draw(st.integers(1, len(samples) + 2))
    assert (_at_blocks(_P2_BLOCKS,
                       lambda: _outcome(imaging._p2_samples, raster, count))
            == [_outcome(_p2_samples_loop, raster, count)] * len(_P2_BLOCKS))


@pytest.mark.parametrize("raster, error", [
    (b"0 1 2", "expected 4 samples, got 3"),
    (b"0 zz 1 2", "non-numeric sample in P2 raster"),
    (b"0 300 1 2", "P2 sample outside [0, 255]"),
    (b"0 0300 1 2", "P2 sample outside [0, 255]"),
    (b"0 1000 1 2", "P2 sample outside [0, 255]"),
    pytest.param(b"0 1" + _GAP + b"zz", "expected 4 samples, got 3",
                 id="a short count beats a bad sample in a later block"),
    pytest.param(b"300 1" + _GAP + b"zz 2", "non-numeric sample in P2 raster",
                 id="a non-numeric byte beats an earlier sample out of range"),
])
def test_p2_reader_errors_match_its_loop(raster, error):
    expected = _outcome(_p2_samples_loop, raster, 4)
    assert expected == (TruncatedData, error)
    assert (_at_blocks(_P2_BLOCKS,
                       lambda: _outcome(imaging._p2_samples, raster, 4))
            == [expected] * len(_P2_BLOCKS))


@pytest.mark.parametrize("raster", [b"0 1 2 3 zz 999 -5", b"0 1 2 3\t0300x",
                                    b"0 1 2" + _GAP + b"3 zz"])
def test_p2_reader_ignores_what_follows_the_last_sample(raster):
    # junk past the count-th sample, in its block or in a later one
    assert (_at_blocks(_P2_BLOCKS,
                       lambda: _outcome(imaging._p2_samples, raster, 4))
            == [_outcome(_p2_samples_loop, raster, 4)] * len(_P2_BLOCKS)
            == [[0, 1, 2, 3]] * len(_P2_BLOCKS))


@pytest.mark.parametrize("sample", [b"+5", b"-0", b"1_0", b"-5"])
def test_p2_samples_are_digits_only(sample):
    # int() would take the first three; PGM samples are ASCII decimal
    with pytest.raises(TruncatedData, match="non-numeric"):
        imaging._p2_samples(b"1 " + sample, 2)
    assert np.array_equal(imaging._p2_samples(b"0255\t007\r\n", 2), [255, 7])
