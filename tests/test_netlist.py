"""Netlist grammar: numbers, titles, cards, errors, round-trips."""

import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from dtlsim.devices import (CapacitorParams, MemristorParams, MosfetParams,
                            ResistorParams, SourceWaveform, ZenerParams)
from dtlsim.errors import (ArityError, DomainError, DuplicateName,
                           MalformedNumber, NetlistError, UnknownElementKind,
                           UnknownModel)
from dtlsim.netlist import (AnalysisDirective, Circuit, Element, _keyvals,
                            _parse_waveform, _split_fields,
                            parse_netlist, parse_number, serialize_netlist)


# --- numbers ---------------------------------------------------------------

def test_si_suffixes_exact():
    # suffix expansion happens at the string level, so "1.1k" is the
    # float closest to 1100, not 1.1 * 1000
    assert parse_number("1.1k") == float("1.1e3")
    assert parse_number("2.2u") == float("2.2e-6")
    assert parse_number("5meg") == 5e6
    assert parse_number("10m") == 10e-3
    assert parse_number("3t") == 3e12
    assert parse_number("4g") == 4e9
    assert parse_number("7n") == 7e-9
    assert parse_number("8p") == 8e-12
    assert parse_number("9f") == 9e-15
    assert parse_number("4.7K") == float("4.7e3")
    assert parse_number("-2.5n") == float("-2.5e-9")
    assert parse_number("1e3") == 1000.0
    assert parse_number(".5") == 0.5
    assert parse_number("+.25") == 0.25
    assert parse_number("1.5e2k") == float("1.5e5")
    assert parse_number("2E-2m") == float("2e-5")


@pytest.mark.parametrize("bad", ["", "k", "1.2.3", "1x", "--5", "1e",
                                 "0x10", "1ee3", "meg", "1.1kk", "nan",
                                 "1e999", "-2e308", "1e306meg",
                                 "1e" + "9" * 5000, "-1e+" + "9" * 5000])
def test_malformed_numbers(bad):
    with pytest.raises(MalformedNumber) as info:
        parse_number(bad)
    assert len(str(info.value)) < 80   # a long token is cut, not quoted whole


def test_long_exponents_saturate():
    # exponents past Python's 4300-digit int() limit: a negative one
    # underflows like 1e-99999, leading zeros do not count as digits
    assert parse_number("1e-" + "9" * 5000) == 0.0
    assert parse_number("1e-99999") == 0.0
    assert parse_number("5e" + "0" * 5000 + "3k") == 5e6
    with pytest.raises(MalformedNumber) as info:
        parse_netlist("t\nr_1 a 0 1e" + "9" * 5000 + "\n")
    assert info.value.line == 2


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_repr_floats_parse_exactly(x):
    assert parse_number(repr(x)) == x


_MANTISSA = st.from_regex(r"\A[0-9]{1,6}(\.[0-9]{1,6})?\Z")
_SUFFIXES = [("t", "e12"), ("g", "e9"), ("meg", "e6"), ("k", "e3"),
             ("m", "e-3"), ("u", "e-6"), ("n", "e-9"), ("p", "e-12"),
             ("f", "e-15")]


@given(_MANTISSA, st.sampled_from(_SUFFIXES))
def test_suffix_equals_exponent_form(mantissa, sfx):
    suffix, exp = sfx
    assert parse_number(mantissa + suffix) == parse_number(mantissa + exp)


# --- titles and structure ---------------------------------------------------

def test_first_noncard_line_is_title():
    c = parse_netlist("my divider\nv_1 a 0 5\nr_1 a 0 1k\n.end\n")
    assert c.title == "my divider"
    assert [e.name for e in c.elements] == ["v_1", "r_1"]


def test_title_looking_like_an_element_stays_title():
    # leads with R but is not a well-formed card, so it titles the file
    c = parse_netlist("R load test bench\nr_1 a 0 1k\nv_1 a 0 1\n")
    assert c.title == "R load test bench"
    assert len(c.elements) == 2
    # a card whose device parameters are out of their domain titles too
    c = parse_netlist("v_1 a 0 pwl(1 0 0 1)\nr_1 a 0 1k\nv_2 a 0 1\n")
    assert c.title == "v_1 a 0 pwl(1 0 0 1)"


def _card_shape_ok(tokens: list[str]) -> bool:
    """Reference for the title rule, written out per card kind apart from
    the grammar tables: does this line look like a well-formed element
    card? Model references are not resolved."""
    try:
        name = tokens[0]
        kind = "xmr" if name.startswith("xmr") else name[0]
        if kind not in ("r", "c", "v", "d", "m", "xmr"):
            return False
        if kind in ("r", "c"):
            if len(tokens) != 4:
                return False
            parse_number(tokens[3])
            return True
        if kind == "v":
            _parse_waveform(tokens[3:])
            return True
        if kind == "d":
            return len(tokens) == 4
        if kind == "m":
            if len(tokens) < 6:
                return False
            _keyvals(tokens[6:], {"wl": "w_over_l"}, "mosfet instance")
            return True
        if len(tokens) < 4:
            return False
        _keyvals(tokens[4:], {"w0": "w0"}, "memristor instance")
        return True
    except (NetlistError, DomainError):
        return False


_CARD_NUMBER = st.one_of(
    st.sampled_from(["1k", "-1", "0", "2.5", ".5", "1meg", "3", "1e999",
                     "5q", "nan", "k"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
_KEYVAL = st.builds(lambda key, val: f"{key}={val}",
                    st.sampled_from(["wl", "w0", "p", "type", "foo", ""]),
                    st.one_of(_CARD_NUMBER, st.just("n")))
_CARD_TOKEN = st.one_of(
    st.sampled_from(["0", "a", "zen", "nmod", "mem", "dc", "(", ")", "w0"]),
    _CARD_NUMBER, _KEYVAL,
    st.builds(lambda kind, vals: f"{kind}({' '.join(vals)})",
              st.sampled_from(["pulse", "pwl"]),
              st.lists(_CARD_NUMBER, max_size=8)))


@st.composite
def _first_lines(draw):
    """Element-card-like lines, mostly within one token of a real card."""
    prefix, n_nodes = draw(st.sampled_from([
        ("r", 2), ("c", 2), ("v", 2), ("d", 2), ("m", 4), ("xmr", 2),
        ("M", 4), ("XMR", 2), ("x", 2), ("Xm", 2), ("q", 2)]))
    name = prefix + draw(st.sampled_from(["", "_1", "1"]))
    nodes = ["n1"] * (n_nodes + draw(st.sampled_from([0, 0, 0, -1, 1])))
    head = draw(st.one_of(st.sampled_from(["zen", "nmod", "mem", "1k", "-1"]),
                          _CARD_TOKEN))
    tail = draw(st.lists(st.sampled_from([
        "wl=2", "w0=0.5", "w0=2", "p=2", "foo=1", "wl=bad", "w0", "1k", "zen"]),
        max_size=2))
    return " ".join([name, *nodes, head, *tail])


@settings(max_examples=400)
@given(_first_lines())
def test_first_line_is_title_exactly_when_reference_says(line):
    try:
        expected = not _card_shape_ok(_split_fields(line.lower()))
    except NetlistError:
        expected = True
    try:
        title = parse_netlist(line + "\nr_zz a 0 1k\nv_zz a 0 1\n").title
    except NetlistError:   # only a card can fail: the rest is well formed
        title = ""
    assert (title == line) == expected


def test_comment_first_means_no_title():
    c = parse_netlist("* just a comment\nr_1 a 0 1k\nv_1 a 0 1\n")
    assert c.title == ""
    assert len(c.elements) == 2


def test_title_preserves_case_while_cards_normalize():
    c = parse_netlist("My Title\nR_Big A 0 1k\nV_SRC A 0 5\n")
    assert c.title == "My Title"
    assert c.elements[0].name == "r_big"
    assert c.elements[0].nodes == ("a", "0")


def test_continuation_lines_join():
    split = parse_netlist("t\nv_1 a 0 pwl(0 0\n+ 1 5)\nr_1 a 0 1k\n")
    whole = parse_netlist("t\nv_1 a 0 pwl(0 0 1 5)\nr_1 a 0 1k\n")
    assert split == whole


def test_end_stops_parsing():
    c = parse_netlist("t\nr_1 a 0 1k\nv_1 a 0 1\n.end\ngarbage beyond end\n")
    assert len(c.elements) == 2


# --- element cards ----------------------------------------------------------

def test_element_kinds_and_models():
    text = """cells
v_dd vdd 0 5.0
r_load vdd d 10k
c_tank d 0 1u
d_clamp 0 d zen
m_sw q g 0 0 nmod wl=2.0
xmr_x q d mem w0=0.25
.model zen zener
.model nmod mosfet type=n
.model mem memristor
"""
    _, r, cap, d, m, x = parse_netlist(text).elements
    assert r.name == "r_load" and r.params.resistance == 10e3
    assert cap.name == "c_tank" and cap.params.capacitance == 1e-6
    assert d.name == "d_clamp" and d.model == "zen"
    assert m.name == "m_sw" and m.nodes == ("q", "g", "0", "0")
    assert m.overrides == {"w_over_l": 2.0}
    assert x.name == "xmr_x" and x.overrides == {"w0": 0.25}


def test_waveform_cards():
    text = ("t\n"
            "v_a a 0 5\n"
            "v_b b 0 dc 3\n"
            "v_c c 0 pulse(0 5 1m 1u 1u 4m 10m)\n"
            "v_d d 0 pwl(0 0 1m 5 2m 0)\n"
            "r_1 a 0 1k\nr_2 b 0 1k\nr_3 c 0 1k\nr_4 d 0 1k\n")
    pa, pb, pc, pd = (e.params for e in parse_netlist(text).elements[:4])
    assert pa.kind == "dc"
    assert pa.value() == 5.0
    assert pb.value() == 3.0
    assert pc.kind == "pulse"
    assert pc.value(0.0) == 0.0
    assert pc.value(1.1e-3) == 5.0
    assert pd.value(0.5e-3) == pytest.approx(2.5)
    assert pd.value(9.0) == 0.0


def test_model_declaration_order_is_free():
    # model cards may come after the elements that reference them
    c = parse_netlist("t\nd_1 a 0 zen\nv_1 a 0 1\n.model zen zener\n")
    assert c.elements[0].model == "zen"


# --- errors -----------------------------------------------------------------

def test_duplicate_name():
    with pytest.raises(DuplicateName):
        parse_netlist("t\nr_1 a 0 1k\nr_1 a b 2k\n")


def test_unknown_element_kind():
    with pytest.raises(UnknownElementKind):
        parse_netlist("t\nr_1 a 0 1k\nq1 a 0 2k\n")
    with pytest.raises(UnknownElementKind):
        # x names must begin with xmr
        parse_netlist("t\nr_1 a 0 1k\nx1 a 0 mem\n.model mem memristor\n")


def test_arity_error():
    with pytest.raises(ArityError):
        parse_netlist("t\nr_1 a 1k\nv_1 a 0 1\n")
    with pytest.raises(ArityError):
        parse_netlist("t\nm_1 d g s nmod\nv_1 d 0 1\n.model nmod mosfet\n")


def test_unknown_model():
    with pytest.raises(UnknownModel):
        parse_netlist("t\nd_1 a 0 ghost\nv_1 a 0 1\n")


def test_malformed_value_in_card():
    with pytest.raises(MalformedNumber):
        parse_netlist("t\nr_1 a 0 5q\nv_1 a 0 1\n")


def test_error_carries_line_number():
    with pytest.raises(NetlistError) as ei:
        parse_netlist("t\nr_1 a 0 1k\nr_1 a b 2k\n")
    assert str(ei.value).startswith("line 3:")


def test_directive_validation():
    with pytest.raises(NetlistError):
        parse_netlist("t\nr_1 a 0 1k\n.dc v_1 6 0 1\n")  # stop < start
    with pytest.raises(NetlistError):
        parse_netlist("t\nr_1 a 0 1k\n.tran 1m 2m\n")    # dt > tstop
    with pytest.raises(NetlistError):
        parse_netlist("t\nr_1 a 0 1k\n.noise v_1\n")     # unsupported
    with pytest.raises(NetlistError):
        parse_netlist("t\nr_1 a 0 1k\n.model m resistor\n")
    # a directive built by hand is checked too
    with pytest.raises(NetlistError, match=r"^\.dc needs a source name$"):
        AnalysisDirective("dc", "")
    with pytest.raises(NetlistError, match="^unknown analysis kind 'ac'$"):
        AnalysisDirective("ac")


_CARD = "t\nr_1 a 0 1k\n"   # the card under test is on line 3


@pytest.mark.parametrize("text, error, message", [
    (_CARD + ".dc v_1 0 1 0\n", NetlistError, "line 3: .dc needs step > 0, got 0.0"),
    (_CARD + ".dc v_1 0 1 -1\n", NetlistError,
     "line 3: .dc needs step > 0, got -1.0"),
    (_CARD + ".tran 0 1m\n", NetlistError,
     "line 3: .tran needs tstop > 0 and dt > 0"),
    (_CARD + ".tran 1m 0\n", NetlistError,
     "line 3: .tran needs tstop > 0 and dt > 0"),
    (_CARD + ".tran 1m -1u\n", NetlistError,
     "line 3: .tran needs tstop > 0 and dt > 0"),
    (_CARD + "v_1 a 0 pwl(0 0 1 1\n", NetlistError, "line 3: unbalanced '('"),
    (_CARD + ".model m\n", ArityError, "line 3: .model needs a name and a kind"),
    (_CARD + ".model m mosfet type=x\n", NetlistError,
     "line 3: mosfet type must be n or p, got 'x'"),
    (_CARD + "v_1 a 0 pwl(0 0 1 1) 5\n", NetlistError,
     "line 3: unexpected tokens after pwl(...)"),
    (_CARD + "v_1 a 0 dc\n", ArityError, "line 3: dc source needs a level"),
    (_CARD + ".tran 1m\n", ArityError, "line 3: expected '.tran <tstop> <dt>'"),
    (_CARD + ".op 1\n", ArityError, "line 3: expected '.op'"),
    # a number a directive cannot read keeps the directive's line
    (_CARD + ".tran 1q 1u\n", MalformedNumber, "line 3: malformed number '1q'"),
    (_CARD + ".model z zener\n.model z zener\n", DuplicateName,
     "line 4: duplicate model name 'z'"),
    # a device parameter out of its domain names its card's line
    ("t\nv_1 a 0 1\nr_1 a 0 0\n", NetlistError,
     "line 3: resistance must be positive, got 0.0"),
    ("t\nv_1 a 0 1\nr_1 a 0 -1k\n", NetlistError,
     "line 3: resistance must be positive, got -1000.0"),
    (_CARD + "c_1 a 0 0\n", NetlistError,
     "line 3: capacitance must be positive, got 0.0"),
    ("t\n.op\n", NetlistError, "circuit has no elements"),
    # a second analysis directive of a kind names both lines, also with
    # another kind between the two
    (_CARD + ".op\n.op\n", DuplicateName,
     "line 4: duplicate .op directive, first on line 3"),
    (_CARD + ".dc v_1 0 1 0.1\n.op\n.dc v_1 0 2 0.1\n", DuplicateName,
     "line 5: duplicate .dc directive, first on line 3"),
    (_CARD + ".tran 1m 1u\n.tran 2m 1u\n", DuplicateName,
     "line 4: duplicate .tran directive, first on line 3"),
    # one case for each other raise site a card reaches
    (_CARD + "v_1 a 0 pwl(0 0 1 1))\n", NetlistError, "line 3: unbalanced ')'"),
    (_CARD + "m_1 d g s b nmod wl\n.model nmod mosfet\n", NetlistError,
     "line 3: expected key=value, got 'wl' in mosfet instance"),
    (_CARD + "m_1 d g s b nmod w0=1\n.model nmod mosfet\n", NetlistError,
     "line 3: unknown mosfet instance key 'w0'"),
    (_CARD + ".model z zener foo=1\n", NetlistError,
     "line 3: unknown zener model key 'foo'"),
    (_CARD + ".model m resistor\n", UnknownModel,
     "line 3: unknown model kind 'resistor'"),
    (_CARD + "v_1 a 0 1 2\n", ArityError,
     "line 3: too many tokens for a dc source"),
    (_CARD + "q1 a 0 2k\n", UnknownElementKind,
     "line 3: unknown element kind for 'q1'"),
    (_CARD + "x1 a 0 mem\n", UnknownElementKind,
     "line 3: unknown element kind for 'x1' (only xmr... is supported)"),
    (_CARD + "r_2 a 1k\n", ArityError,
     "line 3: r_2: expected 2 nodes and a value"),
    (_CARD + "r_2 a 0 1k 5\n", ArityError,
     "line 3: r_2: unexpected tokens after a value"),
    (_CARD + "d_1 a 0 ghost\n", UnknownModel,
     "line 3: d_1: no zener model named 'ghost'"),
    (_CARD + ".noise v_1\n", NetlistError, "line 3: unsupported directive '.noise'"),
    (_CARD + ".dc v1 1 0 0.1\n", NetlistError,
     "line 3: .dc needs stop > start, got 1.0 .. 0.0"),
    (_CARD + ".tran 1m 2m\n", NetlistError, "line 3: .tran needs dt <= tstop"),
    (_CARD + "d_1 a 0 z\n.model z zener n=-1\n", NetlistError,
     "line 4: zener parameters must all be positive"),
    (_CARD + "v_1 a 0 pulse(0 1 0 1u 1u 1m 2m 5)\n", NetlistError,
     "line 3: pulse takes (v1 v2 delay rise fall width period)"),
    (_CARD + ".model mem memristor p=2.5\n", NetlistError,
     "line 3: p_window must be a positive integer"),
    (_CARD + "r_2 a 0 5q\n", MalformedNumber, "line 3: malformed number '5q'"),
    (_CARD + "r_2 a 0 1e999\n", MalformedNumber,
     "line 3: number '1e999' is out of range"),
    (_CARD + "r_1 a b 2k\n", DuplicateName,
     "line 3: duplicate element name 'r_1'"),
    # a card continued with + is named by its first line
    (_CARD + "v_1 a 0 pwl(0 0\n+ 1 1\n+ 2))\n", NetlistError,
     "line 3: unbalanced ')'"),
    (_CARD + "r_2 a 0\n+ -1k\n", NetlistError,
     "line 3: resistance must be positive, got -1000.0"),
])
def test_card_errors_name_their_line(text, error, message):
    with pytest.raises(NetlistError) as ei:
        parse_netlist(text)
    assert type(ei.value) is error
    assert str(ei.value) == message
    named = re.match(r"line (\d+): ", message)
    assert ei.value.line == (int(named[1]) if named else None)


def test_validate_checks_hand_built_circuits():
    r = ResistorParams(1.0)
    for elements, error, message in (
            ([Element("r_1", "r", ("a", "0"), r),
              Element("r_1", "r", ("a", "b"), r)],
             DuplicateName, "duplicate element name 'r_1'"),
            ([Element("q_1", "q", ("a", "0"), r)],
             UnknownElementKind, "unknown element kind 'q'"),
            ([Element("r_1", "r", ("a",), r)],
             ArityError, "r_1: expected 2 nodes, got 1")):
        with pytest.raises(error) as ei:
            Circuit("t", elements).validate()
        assert str(ei.value) == message


def test_element_names_are_case_insensitive():
    c = parse_netlist(_CARD.upper())
    assert [e.name for e in c.elements] == ["r_1"]


def test_model_param_validation_is_a_netlist_error():
    with pytest.raises(NetlistError):
        parse_netlist("t\nr_1 a 0 1k\n.model mem memristor ron=-5\n")
    with pytest.raises(NetlistError, match="^line 3:"):
        parse_netlist("t\nv_1 a 0 1\nm_1 a a 0 0 nmod wl=-1\n"
                      ".model nmod mosfet\n")
    # a fractional window exponent is rejected, not truncated
    with pytest.raises(NetlistError, match="^line 3:"):
        parse_netlist("t\nr_1 a 0 1k\n.model mem memristor p=2.5\n")
    c = parse_netlist("t\nr_1 a 0 1k\n.model mem memristor p=2\n")
    assert c.models["mem"][1].p_window == 2
    assert type(c.models["mem"][1].p_window) is int


# --- round-trips ------------------------------------------------------------

def _rt(circuit: Circuit) -> Circuit:
    return parse_netlist(serialize_netlist(circuit))


def test_round_trip_handwritten():
    text = """bench
v_in in 0 pulse(0 5 0 1u 1u 1m 2m)
r_s in mid 1.1k
c_l mid 0 100p
d_z 0 mid zen
m_p out mid vdd vdd pmod wl=2.83
v_dd vdd 0 6
xmr_m out 0 mem w0=0.75
.model zen zener is=1e-12
.model pmod mosfet type=p
.model mem memristor ron=500 roff=50k
.dc v_in 0 6 0.05
.tran 1m 5u
"""
    c = parse_netlist(text)
    assert _rt(c) == c


def test_round_trip_preserves_exact_values():
    c = parse_netlist("t\nr_1 a 0 1.1k\nv_1 a 0 0.1\n")
    r, v = _rt(c).elements
    assert r.params.resistance == float("1.1e3")
    assert v.params.value() == 0.1


_NAMES = st.lists(st.from_regex(r"\A[a-z][a-z0-9_]{0,5}\Z"),
                  min_size=1, max_size=6, unique=True)
_NODE = st.sampled_from(["0", "a", "b", "c", "n1", "n2"])
_VALUE = st.floats(min_value=1e-9, max_value=1e9,
                   allow_nan=False, allow_infinity=False)


_POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
_NON_NEGATIVE = st.floats(min_value=0.0, max_value=10.0)
_UNIT = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _model_params(draw, kind):
    if kind == "mosfet":
        return MosfetParams(
            polarity=draw(st.sampled_from(["n", "p"])),
            vth0=draw(st.floats(min_value=-2.0, max_value=2.0)),
            kprime=draw(_POSITIVE), w_over_l=draw(_POSITIVE),
            lam=draw(_NON_NEGATIVE), gamma=draw(_NON_NEGATIVE),
            phi2=draw(_POSITIVE))
    if kind == "zener":
        return ZenerParams(*(draw(_POSITIVE) for _ in range(5)))
    r_on = draw(_POSITIVE)
    return MemristorParams(
        r_on=r_on, r_off=draw(st.floats(min_value=r_on, max_value=1e9)),
        w0=draw(_UNIT), k_drift=draw(_POSITIVE),
        p_window=draw(st.integers(min_value=1, max_value=8)))


_DEVICE_OF = {"d": ("zener", 2, st.just({})),
              "m": ("mosfet", 4, st.one_of(st.just({}), st.fixed_dictionaries(
                  {"w_over_l": _POSITIVE}))),
              "xmr": ("memristor", 2, st.one_of(st.just({}), st.fixed_dictionaries(
                  {"w0": _UNIT})))}


@given(_NAMES, st.booleans(), st.data())
def test_round_trip_generated_circuits(suffixes, with_devices, data):
    # two families: r/c/v only, and every model kind with d/m/xmr cards
    # that name them, with and without instance overrides
    models = {}
    if with_devices:
        model_kinds = ["mosfet", "zener", "memristor"]
        model_kinds += data.draw(st.lists(st.sampled_from(model_kinds), max_size=3))
        for i, kind in enumerate(model_kinds):
            models[f"mod{i}"] = (kind, data.draw(_model_params(kind)))
    kinds = ["r", "c", "v"] + (list(_DEVICE_OF) if with_devices else [])
    elements = []
    for i, suffix in enumerate(suffixes):
        kind = data.draw(st.sampled_from(kinds))
        name = f"{kind}_{suffix}"
        if kind in _DEVICE_OF:
            model_kind, n_nodes, overrides = _DEVICE_OF[kind]
            model = data.draw(st.sampled_from(
                [m for m, (k, _) in models.items() if k == model_kind]))
            overrides = data.draw(overrides)
            params = dataclasses.replace(models[model][1], **overrides)
            nodes = tuple(data.draw(_NODE) for _ in range(n_nodes))
            elements.append(Element(name=name, kind=kind, nodes=nodes,
                                    params=params, model=model,
                                    overrides=overrides))
            continue
        n1 = data.draw(_NODE)
        n2 = data.draw(_NODE.filter(lambda n: n != n1))
        value = data.draw(_VALUE)
        if kind == "r":
            params = ResistorParams(value)
        elif kind == "c":
            params = CapacitorParams(value)
        else:
            params = SourceWaveform("dc", (value,))
        elements.append(Element(name=name, kind=kind, nodes=(n1, n2),
                                params=params))
    c = Circuit(title="generated", elements=elements,
                analyses=[AnalysisDirective(kind="op")], models=models)
    assert _rt(c) == c


def test_round_trip_all_builders():
    from dtlsim import cells
    for c in (cells.build_saturation_cell(),
              cells.build_spike_cell(w0=0.3),
              cells.build_xor_circuit(),
              cells.build_intensity_detector(cells.DETECTOR_CONFIG_2)):
        assert _rt(c) == c
