"""SPICE-flavoured netlist grammar: parsing and serialization.

Grammar subset:

* A first line that does not parse as a card, directive or comment is the
  title. Comment lines start with ``*``; a line starting with ``+``
  continues the previous line. Parsing stops at ``.end``.
* Element cards are selected by the first letter of the name:
  ``R``/``C``: ``<name> n+ n- <value>``; ``V``: ``<name> n+ n- <level>`` or
  ``dc <level>`` or ``pulse(v1 v2 delay rise fall width period)`` or
  ``pwl(t0 v0 t1 v1 ...)``; ``D``: ``<name> n+ n- <model>``;
  ``M``: ``<name> nd ng ns nb <model> [wl=<value>]``; memristors are
  ``XMR<name> n+ n- <model> [w0=<value>]``. Any other leading letter is an
  unknown element kind.
* Directives: ``.op``, ``.dc <vsource> <start> <stop> <step>``,
  ``.tran <tstop> <dt>``, ``.model <name> <kind> key=value ...`` with kinds
  mosfet (keys vth0 kp wl lambda gamma phi2 type), zener (is n vt vz ibv)
  and memristor (ron roff w0 k p).
* Numbers take scientific notation plus the SI suffixes t g meg k m u n p f.
  Suffixes are recombined with any written exponent at the string level, so
  ``1.1k`` parses bit-identically to ``1.1e3``.
* Names and node labels are case-insensitive and normalized to lower case;
  the title keeps its case.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field

from . import devices
from .errors import (
    ArityError,
    DomainError,
    DuplicateName,
    MalformedNumber,
    NetlistError,
    UnknownElementKind,
    UnknownModel,
)

ELEMENT_KINDS = ("r", "c", "v", "d", "m", "xmr")

_NUM_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+))(?:[eE]([+-]?\d+))?(meg|[tgkmunpf])?$")

_SUFFIX_EXP = {"t": 12, "g": 9, "meg": 6, "k": 3,
               "m": -3, "u": -6, "n": -9, "p": -12, "f": -15}


def parse_number(token: str, line: int | None = None) -> float:
    """Parse a number with optional SI suffix; exact w.r.t. e-notation."""
    m = _NUM_RE.match(token.strip().lower())
    if not m:
        raise MalformedNumber(f"malformed number {token!r}", line)
    mantissa, exp, suffix = m.groups()
    e = int(exp) if exp else 0
    if suffix:
        e += _SUFFIX_EXP[suffix]
    value = float(f"{mantissa}e{e}")
    if not math.isfinite(value):
        raise MalformedNumber(f"number {token!r} is out of range", line)
    return value


@dataclass(frozen=True)
class AnalysisDirective:
    kind: str                 # "op" | "dc" | "tran"
    source: str = ""
    start: float = 0.0
    stop: float = 0.0
    step: float = 0.0
    tstop: float = 0.0
    dt: float = 0.0

    def __post_init__(self):
        if self.kind == "dc":
            if not self.source:
                raise NetlistError(".dc needs a source name")
            if not self.stop > self.start:
                raise NetlistError(f".dc needs stop > start, got {self.start} .. {self.stop}")
            if not self.step > 0.0:
                raise NetlistError(f".dc needs step > 0, got {self.step}")
        elif self.kind == "tran":
            if not self.tstop > 0.0 or not self.dt > 0.0:
                raise NetlistError(".tran needs tstop > 0 and dt > 0")
            if self.dt > self.tstop:
                raise NetlistError(".tran needs dt <= tstop")
        elif self.kind != "op":
            raise NetlistError(f"unknown analysis kind {self.kind!r}")


@dataclass
class Element:
    name: str
    kind: str
    nodes: tuple[str, ...]
    params: object
    model: str | None = None
    overrides: dict = field(default_factory=dict)


@dataclass
class Circuit:
    title: str = ""
    elements: list[Element] = field(default_factory=list)
    analyses: list[AnalysisDirective] = field(default_factory=list)
    models: dict[str, tuple[str, object]] = field(default_factory=dict)

    @property
    def nodes(self) -> list[str]:
        seen = set()
        for e in self.elements:
            seen.update(e.nodes)
        return sorted(seen)

    def element(self, name: str) -> Element:
        for e in self.elements:
            if e.name == name.lower():
                return e
        raise KeyError(name)

    def validate(self) -> "Circuit":
        if not self.elements:
            raise NetlistError("circuit has no elements")
        names = set()
        for e in self.elements:
            if e.name in names:
                raise DuplicateName(f"duplicate element name {e.name!r}")
            names.add(e.name)
            if e.kind not in ELEMENT_KINDS:
                raise UnknownElementKind(f"unknown element kind {e.kind!r}")
            want = 4 if e.kind == "m" else 2
            if len(e.nodes) != want:
                raise ArityError(f"{e.name}: expected {want} nodes, got {len(e.nodes)}")
        return self


# ---------------------------------------------------------------------------
# parsing

_MODEL_KINDS = ("mosfet", "zener", "memristor")

_MOSFET_KEYS = {"vth0": "vth0", "kp": "kprime", "wl": "w_over_l",
                "lambda": "lam", "gamma": "gamma", "phi2": "phi2"}
_ZENER_KEYS = {"is": "i_sat", "n": "n", "vt": "v_thermal", "vz": "vz", "ibv": "i_bv"}
_MEMRISTOR_KEYS = {"ron": "r_on", "roff": "r_off", "w0": "w0", "k": "k_drift", "p": "p_window"}


def _join_continuations(text: str) -> list[tuple[int, str]]:
    out: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        stripped = line.strip()
        if stripped.startswith("+") and out:
            prev_no, prev = out[-1]
            out[-1] = (prev_no, prev + " " + stripped[1:].strip())
        else:
            out.append((lineno, line))
    return out


def _split_fields(line: str, lineno: int) -> list[str]:
    """Whitespace tokenization that keeps pulse(...)/pwl(...) groups whole."""
    tokens: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in line:
        if ch == "(":
            depth += 1
            cur.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise NetlistError("unbalanced ')'", lineno)
            cur.append(ch)
        elif ch.isspace() and depth == 0:
            if cur:
                tokens.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise NetlistError("unbalanced '('", lineno)
    if cur:
        tokens.append("".join(cur))
    return tokens


def _keyvals(tokens: list[str], allowed: dict[str, str], lineno: int,
             what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for tok in tokens:
        if "=" not in tok:
            raise NetlistError(f"expected key=value, got {tok!r} in {what}", lineno)
        key, _, val = tok.partition("=")
        key = key.strip()
        if key not in allowed:
            raise NetlistError(f"unknown {what} key {key!r}", lineno)
        out[allowed[key]] = parse_number(val, lineno)
    return out


def _parse_model_card(tokens: list[str], lineno: int):
    if len(tokens) < 3:
        raise ArityError(".model needs a name and a kind", lineno)
    name, kind = tokens[1], tokens[2]
    if kind == "mosfet":
        fields = dict(_MOSFET_KEYS)
        kv_tokens = []
        polarity = "n"
        for tok in tokens[3:]:
            if tok.startswith("type="):
                polarity = tok.partition("=")[2]
                if polarity not in ("n", "p"):
                    raise NetlistError(f"mosfet type must be n or p, got {polarity!r}", lineno)
            else:
                kv_tokens.append(tok)
        kv = _keyvals(kv_tokens, fields, lineno, "mosfet model")
        params = dataclasses.replace(devices.mosfet_defaults(polarity), **kv)
        return name, ("mosfet", params)
    if kind == "zener":
        kv = _keyvals(tokens[3:], _ZENER_KEYS, lineno, "zener model")
        params = dataclasses.replace(devices.ZenerParams(), **kv)
        return name, ("zener", params)
    if kind == "memristor":
        kv = _keyvals(tokens[3:], _MEMRISTOR_KEYS, lineno, "memristor model")
        if "p_window" in kv:
            kv["p_window"] = int(kv["p_window"])
        params = dataclasses.replace(devices.MemristorParams(), **kv)
        return name, ("memristor", params)
    raise UnknownModel(f"unknown model kind {kind!r}", lineno)


def _parse_waveform(tokens: list[str], lineno: int) -> devices.SourceWaveform:
    if not tokens:
        raise ArityError("voltage source needs a level or waveform", lineno)
    head = tokens[0]
    if head.startswith("pulse(") or head.startswith("pwl("):
        if len(tokens) != 1:
            raise NetlistError(f"unexpected tokens after {head.split('(')[0]}(...)", lineno)
        kind, _, inside = head.partition("(")
        inside = inside[:-1]  # trailing ')'
        vals = tuple(parse_number(t, lineno)
                     for t in inside.replace(",", " ").split())
        return devices.SourceWaveform(kind, vals)
    if head == "dc":
        tokens = tokens[1:]
        if not tokens:
            raise ArityError("dc source needs a level", lineno)
    if len(tokens) != 1:
        raise ArityError("too many tokens for a dc source", lineno)
    return devices.SourceWaveform("dc", (parse_number(tokens[0], lineno),))


def _element_kind(name: str, lineno: int) -> str:
    first = name[0]
    if first == "x":
        if name.startswith("xmr"):
            return "xmr"
        raise UnknownElementKind(
            f"unknown element kind for {name!r} (only xmr... is supported)", lineno)
    if first in ("r", "c", "v", "d", "m"):
        return first
    raise UnknownElementKind(f"unknown element kind for {name!r}", lineno)


def _parse_element(tokens: list[str], lineno: int,
                   models: dict[str, tuple[str, object]]) -> Element:
    name = tokens[0]
    kind = _element_kind(name, lineno)
    if kind in ("r", "c"):
        if len(tokens) != 4:
            raise ArityError(f"{name}: expected '<name> n+ n- value'", lineno)
        value = parse_number(tokens[3], lineno)
        params = (devices.ResistorParams(value) if kind == "r"
                  else devices.CapacitorParams(value))
        return Element(name, kind, (tokens[1], tokens[2]), params)
    if kind == "v":
        if len(tokens) < 4:
            raise ArityError(f"{name}: expected '<name> n+ n- <level|waveform>'", lineno)
        wf = _parse_waveform(tokens[3:], lineno)
        return Element(name, kind, (tokens[1], tokens[2]), wf)
    if kind == "d":
        if len(tokens) != 4:
            raise ArityError(f"{name}: expected '<name> n+ n- <model>'", lineno)
        mname = tokens[3]
        if mname not in models or models[mname][0] != "zener":
            raise UnknownModel(f"{name}: no zener model named {mname!r}", lineno)
        return Element(name, kind, (tokens[1], tokens[2]), models[mname][1], model=mname)
    if kind == "m":
        if len(tokens) < 6:
            raise ArityError(f"{name}: expected '<name> nd ng ns nb <model> [wl=..]'", lineno)
        mname = tokens[5]
        if mname not in models or models[mname][0] != "mosfet":
            raise UnknownModel(f"{name}: no mosfet model named {mname!r}", lineno)
        overrides = _keyvals(tokens[6:], {"wl": "w_over_l"}, lineno, "mosfet instance")
        params = dataclasses.replace(models[mname][1], **overrides)
        return Element(name, kind, tuple(tokens[1:5]), params, model=mname,
                       overrides=overrides)
    # memristor
    if len(tokens) < 4:
        raise ArityError(f"{name}: expected '<name> n+ n- <model> [w0=..]'", lineno)
    mname = tokens[3]
    if mname not in models or models[mname][0] != "memristor":
        raise UnknownModel(f"{name}: no memristor model named {mname!r}", lineno)
    overrides = _keyvals(tokens[4:], {"w0": "w0"}, lineno, "memristor instance")
    params = dataclasses.replace(models[mname][1], **overrides)
    return Element(name, kind, (tokens[1], tokens[2]), params, model=mname,
                   overrides=overrides)


def _parse_directive(tokens: list[str], lineno: int) -> AnalysisDirective:
    head = tokens[0]
    try:
        if head == ".op":
            if len(tokens) != 1:
                raise ArityError(".op takes no arguments", lineno)
            return AnalysisDirective("op")
        if head == ".dc":
            if len(tokens) != 5:
                raise ArityError(".dc needs '<vsource> <start> <stop> <step>'", lineno)
            return AnalysisDirective(
                "dc", source=tokens[1],
                start=parse_number(tokens[2], lineno),
                stop=parse_number(tokens[3], lineno),
                step=parse_number(tokens[4], lineno))
        if head == ".tran":
            if len(tokens) != 3:
                raise ArityError(".tran needs '<tstop> <dt>'", lineno)
            return AnalysisDirective("tran",
                                     tstop=parse_number(tokens[1], lineno),
                                     dt=parse_number(tokens[2], lineno))
    except NetlistError as exc:
        if exc.line is None:
            raise type(exc)(str(exc), lineno) from exc
        raise
    raise NetlistError(f"unsupported directive {head!r}", lineno)


def _card_shape_ok(tokens: list[str]) -> bool:
    """Syntactic check only: does this look like a well-formed element card?

    Model references are not resolved here; this exists so the title-line
    heuristic never depends on declaration order.
    """
    try:
        kind = _element_kind(tokens[0], None)
        if kind in ("r", "c"):
            if len(tokens) != 4:
                return False
            parse_number(tokens[3])
            return True
        if kind == "v":
            _parse_waveform(tokens[3:], None)
            return True
        if kind == "d":
            return len(tokens) == 4
        if kind == "m":
            if len(tokens) < 6:
                return False
            _keyvals(tokens[6:], {"wl": "w_over_l"}, None, "mosfet instance")
            return True
        if len(tokens) < 4:
            return False
        _keyvals(tokens[4:], {"w0": "w0"}, None, "memristor instance")
        return True
    except (NetlistError, DomainError):
        return False


def parse_netlist(text: str) -> Circuit:
    """Parse netlist text into a validated Circuit."""
    lines = _join_continuations(text)
    content: list[tuple[int, list[str], str]] = []  # (lineno, tokens, kind)
    title = ""
    title_candidate = True
    for lineno, line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("*"):
            continue
        low = stripped.lower()
        if low == ".end":
            break
        if title_candidate:
            title_candidate = False
            if not low.startswith("."):
                try:
                    shape_ok = _card_shape_ok(_split_fields(low, lineno))
                except NetlistError:
                    shape_ok = False
                if not shape_ok:
                    title = stripped
                    continue
        tokens = _split_fields(low, lineno)
        if low.startswith("."):
            content.append((lineno, tokens, "directive"))
        else:
            content.append((lineno, tokens, "element"))

    # models may be referenced before their card appears, so collect first
    models: dict[str, tuple[str, object]] = {}
    circuit = Circuit(title=title, models=models)
    seen: set[str] = set()
    try:   # a device parameter out of its domain is an error of its card
        for lineno, tokens, kind in content:
            if kind == "directive" and tokens[0] == ".model":
                name, spec = _parse_model_card(tokens, lineno)
                if name in models:
                    raise DuplicateName(f"duplicate model name {name!r}", lineno)
                models[name] = spec
        for lineno, tokens, kind in content:
            if kind == "directive":
                if tokens[0] == ".model":
                    continue
                circuit.analyses.append(_parse_directive(tokens, lineno))
            else:
                elem = _parse_element(tokens, lineno, models)
                if elem.name in seen:
                    raise DuplicateName(f"duplicate element name {elem.name!r}", lineno)
                seen.add(elem.name)
                circuit.elements.append(elem)
    except DomainError as exc:
        raise NetlistError(str(exc), lineno) from exc
    return circuit.validate()


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return repr(float(x))


def _model_card(name: str, kind: str, params) -> str:
    if kind == "mosfet":
        return (f".model {name} mosfet type={params.polarity} "
                f"vth0={_fmt(params.vth0)} kp={_fmt(params.kprime)} "
                f"wl={_fmt(params.w_over_l)} lambda={_fmt(params.lam)} "
                f"gamma={_fmt(params.gamma)} phi2={_fmt(params.phi2)}")
    if kind == "zener":
        return (f".model {name} zener is={_fmt(params.i_sat)} n={_fmt(params.n)} "
                f"vt={_fmt(params.v_thermal)} vz={_fmt(params.vz)} "
                f"ibv={_fmt(params.i_bv)}")
    return (f".model {name} memristor ron={_fmt(params.r_on)} "
            f"roff={_fmt(params.r_off)} w0={_fmt(params.w0)} "
            f"k={_fmt(params.k_drift)} p={_fmt(float(params.p_window))}")


_OVERRIDE_KEYS = {"w_over_l": "wl", "w0": "w0"}


def _element_card(e: Element) -> str:
    nodes = " ".join(e.nodes)
    if e.kind in ("r", "c"):
        value = e.params.resistance if e.kind == "r" else e.params.capacitance
        return f"{e.name} {nodes} {_fmt(value)}"
    if e.kind == "v":
        wf = e.params
        if wf.kind == "dc":
            return f"{e.name} {nodes} {_fmt(wf.params[0])}"
        inner = " ".join(_fmt(p) for p in wf.params)
        return f"{e.name} {nodes} {wf.kind}({inner})"
    tail = ""
    if e.overrides:
        tail = " " + " ".join(f"{_OVERRIDE_KEYS[k]}={_fmt(v)}"
                              for k, v in sorted(e.overrides.items()))
    return f"{e.name} {nodes} {e.model}{tail}"


def _directive_card(a: AnalysisDirective) -> str:
    if a.kind == "op":
        return ".op"
    if a.kind == "dc":
        return f".dc {a.source} {_fmt(a.start)} {_fmt(a.stop)} {_fmt(a.step)}"
    return f".tran {_fmt(a.tstop)} {_fmt(a.dt)}"


def serialize_netlist(circuit: Circuit) -> str:
    """Render a Circuit back to netlist text; parse(serialize(c)) == c."""
    circuit.validate()
    out: list[str] = []
    if circuit.title:
        out.append(circuit.title)
    for name, (kind, params) in circuit.models.items():
        out.append(_model_card(name, kind, params))
    for e in circuit.elements:
        out.append(_element_card(e))
    for a in circuit.analyses:
        out.append(_directive_card(a))
    out.append(".end")
    return "\n".join(out) + "\n"
