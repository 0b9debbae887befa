"""SPICE-flavoured netlist grammar: parsing and serialization.

Grammar subset:

* The first line is the title unless it parses as an element card
  (its model is not looked up), starts with ``.`` or is a comment. Comment
  lines start with ``*``; a line starting with ``+`` continues the
  previous line. Parsing stops at ``.end``.
* Element cards are selected by the first letter of the name (``xmr`` for
  memristors): ``<name> <nodes> <value|waveform|model> [key=value ...]``.
  ``R``/``C`` take a value; ``V`` a level, ``dc <level>``,
  ``pulse(v1 v2 delay rise fall width period)`` or ``pwl(t0 v0 t1 v1 ...)``;
  ``D``, ``M`` (nodes ``nd ng ns nb``) and ``XMR`` name a model and may
  override some of its parameters. Any other leading letter is an unknown
  element kind.
* Directives: ``.op``, ``.dc <vsource> <start> <stop> <step>``,
  ``.tran <tstop> <dt>`` and ``.model <name> <kind> key=value ...``; a
  mosfet model also takes ``type=n|p``. Each analysis directive may appear
  once; a second one is a ``DuplicateName`` naming both lines.
* Numbers take scientific notation plus the SI suffixes t g meg k m u n p f.
  Suffixes are recombined with any written exponent at the string level, so
  ``1.1k`` parses bit-identically to ``1.1e3``.
* Names and node labels are case-insensitive and normalized to lower case;
  the title keeps its case.
* An error of a card names the card's (first) line: the helpers raise
  without a line and ``parse_netlist`` attaches it, raising a device
  parameter's ``DomainError`` as a ``NetlistError``.

The tables ``_MODELS``, ``_ELEMENTS`` and ``_DIRECTIVES`` are the single
statement of the grammar: node counts, model references, card keys and
directive fields are read from them by the parser, ``Circuit.validate``
and the serializer alike.
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

_NUM_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+))(?:[eE]([+-]?\d+))?(meg|[tgkmunpf])?$")

_SUFFIX_EXP = {"t": 12, "g": 9, "meg": 6, "k": 3,
               "m": -3, "u": -6, "n": -9, "p": -12, "f": -15}


def _shown(token: str) -> str:
    """The token quoted for a message, cut to its first 40 characters."""
    return repr(token) if len(token) <= 40 else repr(token[:40]) + "..."


def parse_number(token: str) -> float:
    """Parse a number with optional SI suffix; exact w.r.t. e-notation."""
    m = _NUM_RE.match(token.strip().lower())
    if not m:
        raise MalformedNumber(f"malformed number {_shown(token)}")
    mantissa, exp, suffix = m.groups()
    digits = (exp or "").lstrip("+-").lstrip("0")
    # past 5 digits the power of ten over- or underflows a double anyway;
    # clamping keeps int() inside Python's integer-string digit limit
    e = 99999 if len(digits) > 5 else int(digits or 0)
    if exp and exp[0] == "-":
        e = -e
    if suffix:
        e += _SUFFIX_EXP[suffix]
    value = float(f"{mantissa}e{e}")
    if not math.isfinite(value):
        raise MalformedNumber(f"number {_shown(token)} is out of range")
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

    def validate(self) -> "Circuit":
        if not self.elements:
            raise NetlistError("circuit has no elements")
        names = set()
        for e in self.elements:
            if e.name in names:
                raise DuplicateName(f"duplicate element name {e.name!r}")
            names.add(e.name)
            if e.kind not in _ELEMENTS:
                raise UnknownElementKind(f"unknown element kind {e.kind!r}")
            want = _ELEMENTS[e.kind][0]
            if len(e.nodes) != want:
                raise ArityError(f"{e.name}: expected {want} nodes, got {len(e.nodes)}")
        return self


# ---------------------------------------------------------------------------
# parsing

# model kind -> (params class, {card key: params field}); a mosfet card
# also takes type=n|p, which picks devices.mosfet_defaults
_MODELS = {
    "mosfet": (devices.MosfetParams, {
        "vth0": "vth0", "kp": "kprime", "wl": "w_over_l", "lambda": "lam",
        "gamma": "gamma", "phi2": "phi2"}),
    "zener": (devices.ZenerParams, {
        "is": "i_sat", "n": "n", "vt": "v_thermal", "vz": "vz", "ibv": "i_bv"}),
    "memristor": (devices.MemristorParams, {
        "ron": "r_on", "roff": "r_off", "w0": "w0", "k": "k_drift", "p": "p_window"}),
}

# element kind -> (node count, model kind it names or None,
#                  {instance key: params field it overrides})
_ELEMENTS = {
    "r": (2, None, {}),
    "c": (2, None, {}),
    "v": (2, None, {}),
    "d": (2, "zener", {}),
    "m": (4, "mosfet", {"wl": "w_over_l"}),
    "xmr": (2, "memristor", {"w0": "w0"}),
}

# directive -> AnalysisDirective fields, in card order
_DIRECTIVES = {
    ".op": (),
    ".dc": ("source", "start", "stop", "step"),
    ".tran": ("tstop", "dt"),
}


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


def _split_fields(line: str) -> list[str]:
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
                raise NetlistError("unbalanced ')'")
            cur.append(ch)
        elif ch.isspace() and depth == 0:
            if cur:
                tokens.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise NetlistError("unbalanced '('")
    if cur:
        tokens.append("".join(cur))
    return tokens


def _keyvals(tokens: list[str], allowed: dict[str, str],
             what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for tok in tokens:
        if "=" not in tok:
            raise NetlistError(f"expected key=value, got {tok!r} in {what}")
        key, _, val = tok.partition("=")
        key = key.strip()
        if key not in allowed:
            raise NetlistError(f"unknown {what} key {key!r}")
        out[allowed[key]] = parse_number(val)
    return out


def _parse_model_card(tokens: list[str]):
    if len(tokens) < 3:
        raise ArityError(".model needs a name and a kind")
    name, kind, rest = tokens[1], tokens[2], tokens[3:]
    if kind not in _MODELS:
        raise UnknownModel(f"unknown model kind {kind!r}")
    cls, keys = _MODELS[kind]
    base = cls()
    if kind == "mosfet":
        polarity, kv_tokens = "n", []
        for tok in rest:
            if tok.startswith("type="):
                polarity = tok.partition("=")[2]
                if polarity not in ("n", "p"):
                    raise NetlistError(f"mosfet type must be n or p, got {polarity!r}")
            else:
                kv_tokens.append(tok)
        base, rest = devices.mosfet_defaults(polarity), kv_tokens
    kv = _keyvals(rest, keys, f"{kind} model")
    # an integer field (the memristor window exponent) takes a whole number
    # as an int; a fractional one is left for the params check to reject
    kv = {f: int(v) if isinstance(getattr(base, f), int) and v.is_integer() else v
          for f, v in kv.items()}
    return name, (kind, dataclasses.replace(base, **kv))


def _parse_waveform(tokens: list[str]) -> devices.SourceWaveform:
    head = tokens[0]
    if head.startswith("pulse(") or head.startswith("pwl("):
        if len(tokens) != 1:
            raise NetlistError(f"unexpected tokens after {head.split('(')[0]}(...)")
        kind, _, inside = head.partition("(")
        inside = inside[:-1]  # trailing ')'
        vals = tuple(parse_number(t) for t in inside.replace(",", " ").split())
        return devices.SourceWaveform(kind, vals)
    if head == "dc":
        tokens = tokens[1:]
        if not tokens:
            raise ArityError("dc source needs a level")
    if len(tokens) != 1:
        raise ArityError("too many tokens for a dc source")
    return devices.SourceWaveform("dc", (parse_number(tokens[0]),))


def _element_kind(name: str) -> str:
    kind = "xmr" if name.startswith("xmr") else name[0]
    if kind not in _ELEMENTS:
        hint = " (only xmr... is supported)" if kind == "x" else ""
        raise UnknownElementKind(f"unknown element kind for {name!r}{hint}")
    return kind


def _parse_card(tokens: list[str]) -> Element:
    """Read one element card without looking up its model.

    Checks the arity, the numbers and the instance keys and builds a
    source's waveform. An R/C card's ``params`` holds its number until
    :func:`_resolve` builds the params.
    """
    name = tokens[0]
    kind = _element_kind(name)
    n_nodes, model_kind, instance_keys = _ELEMENTS[kind]
    what = "a model" if model_kind else "a value"
    if len(tokens) < n_nodes + 2:
        raise ArityError(f"{name}: expected {n_nodes} nodes and {what}")
    nodes = tuple(tokens[1:n_nodes + 1])
    head, rest = tokens[n_nodes + 1], tokens[n_nodes + 2:]
    if kind == "v":
        return Element(name, kind, nodes, _parse_waveform([head, *rest]))
    if rest and not instance_keys:
        raise ArityError(f"{name}: unexpected tokens after {what}")
    if model_kind is None:
        return Element(name, kind, nodes, parse_number(head))
    overrides = _keyvals(rest, instance_keys, f"{model_kind} instance")
    return Element(name, kind, nodes, None, model=head, overrides=overrides)


def _resolve(card: Element, models: dict[str, tuple[str, object]]) -> Element:
    """Build a parsed card's params: R/C from its number, the model-based
    kinds from their model with the instance overrides applied."""
    model_kind = _ELEMENTS[card.kind][1]
    if card.kind == "r":
        card.params = devices.ResistorParams(card.params)
    elif card.kind == "c":
        card.params = devices.CapacitorParams(card.params)
    elif model_kind:
        kind, base = models.get(card.model, (None, None))
        if kind != model_kind:
            raise UnknownModel(
                f"{card.name}: no {model_kind} model named {card.model!r}")
        card.params = dataclasses.replace(base, **card.overrides)
    return card


def _parse_directive(tokens: list[str]) -> AnalysisDirective:
    head, args = tokens[0], tokens[1:]
    if head not in _DIRECTIVES:
        raise NetlistError(f"unsupported directive {head!r}")
    fields = _DIRECTIVES[head]
    if len(args) != len(fields):
        usage = " ".join([head, *(f"<{f}>" for f in fields)])
        raise ArityError(f"expected '{usage}'")
    # the source is a name, every other field a number
    return AnalysisDirective(head[1:], **{
        f: tok if f == "source" else parse_number(tok)
        for f, tok in zip(fields, args)})


def parse_netlist(text: str) -> Circuit:
    """Parse netlist text into a validated Circuit."""
    content: list[tuple[int, list[str]]] = []
    title = ""
    title_candidate = True
    try:   # an error of a card names the card's line
        for lineno, line in _join_continuations(text):
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
                        _parse_card(_split_fields(low))
                    except (NetlistError, DomainError):
                        title = stripped
                        continue
            content.append((lineno, _split_fields(low)))

        # models may be referenced before their card appears, so collect first
        models: dict[str, tuple[str, object]] = {}
        circuit = Circuit(title=title, models=models)
        seen: set[str] = set()
        directives: dict[str, int] = {}   # directive -> the line it is on
        for lineno, tokens in content:
            if tokens[0] == ".model":
                name, spec = _parse_model_card(tokens)
                if name in models:
                    raise DuplicateName(f"duplicate model name {name!r}")
                models[name] = spec
        for lineno, tokens in content:
            if tokens[0] == ".model":
                continue
            if tokens[0].startswith("."):
                circuit.analyses.append(_parse_directive(tokens))
                if tokens[0] in directives:
                    raise DuplicateName(
                        f"duplicate {tokens[0]} directive, first on line "
                        f"{directives[tokens[0]]}")
                directives[tokens[0]] = lineno
            else:
                elem = _resolve(_parse_card(tokens), models)
                if elem.name in seen:
                    raise DuplicateName(f"duplicate element name {elem.name!r}")
                seen.add(elem.name)
                circuit.elements.append(elem)
    except (NetlistError, DomainError) as exc:
        error = type(exc) if isinstance(exc, NetlistError) else NetlistError
        raise error(str(exc), lineno) from exc
    return circuit.validate()


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return repr(float(x))


def _model_card(name: str, kind: str, params) -> str:
    polarity = f"type={params.polarity} " if kind == "mosfet" else ""
    kv = " ".join(f"{key}={_fmt(getattr(params, f))}"
                  for key, f in _MODELS[kind][1].items())
    return f".model {name} {kind} {polarity}{kv}"


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
    key_of = {f: key for key, f in _ELEMENTS[e.kind][2].items()}
    tail = "".join(f" {key_of[f]}={_fmt(v)}" for f, v in sorted(e.overrides.items()))
    return f"{e.name} {nodes} {e.model}{tail}"


def _directive_card(a: AnalysisDirective) -> str:
    head = "." + a.kind
    return " ".join([head, *(a.source if f == "source" else _fmt(getattr(a, f))
                             for f in _DIRECTIVES[head])])


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
