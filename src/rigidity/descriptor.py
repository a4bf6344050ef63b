"""Descriptor files: the input grammar, read by ``parse`` and printed by
``emit_descriptor``.

Descriptor grammar (line oriented, ``#`` starts a comment)::

    [group]
    type = 1A          # 1A 2A B C 1D 2D 1E6 2E6 E7 E8 F4 G2 (bare A/D/E6 mean inner)
    rank = 2           # optional for E7 E8 F4 G2

    [field]
    degree = 1
    complex_places = 0
    locally_determined = true   # defaults to true up to degree 6
    galois = true               # defaults: true for degree 1, else false
    hbar_fiber = trivial        # trivial | nontrivial | unknown

    [aut]
    g1 = (v5a v5b)(w1 w2)       # cycle notation over declared place labels

    [places]
    v5a = class=c5 kind=split omega=2/5   # kind defaults to split; omega to 0
    # fractions a/m scale into the local group; Klein values are written (b1,b2)

    [real]
    w1 = form=SL_R(3)            # omega= required for forms that do not pin their class
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ._util import _memo
from .brauer import OmegaVector
from .classifier import GroupDescriptor
from .errors import ContractError, DescriptorParseError, OutOfScopeError, RigidityError, ValidationError
from .field_model import FieldDescriptor, HbarFiber, PlaceLabel, PlacePerm, PlaceSymmetry
from .invariants import FIXED_RANKS, Family, FormKind, GroupType, LocalClass, PlaceKind, Shape, h2_local, zero
from .real_forms import GENERIC, RealFormTag, real_class

_TYPE_CODES = {
    "A": (Family.A, FormKind.INNER), "1A": (Family.A, FormKind.INNER), "2A": (Family.A, FormKind.OUTER),
    "B": (Family.B, FormKind.INNER), "C": (Family.C, FormKind.INNER),
    "D": (Family.D, FormKind.INNER), "1D": (Family.D, FormKind.INNER), "2D": (Family.D, FormKind.OUTER),
    "E6": (Family.E6, FormKind.INNER), "1E6": (Family.E6, FormKind.INNER), "2E6": (Family.E6, FormKind.OUTER),
    "E7": (Family.E7, FormKind.INNER), "E8": (Family.E8, FormKind.INNER),
    "F4": (Family.F4, FormKind.INNER), "G2": (Family.G2, FormKind.INNER),
}

# the last code listed for a type in _TYPE_CODES is the one emitted
_TYPE_OUT = {v: k for k, v in _TYPE_CODES.items()}

_SECTIONS = ("group", "field", "aut", "places", "real")


class _Key(NamedTuple):
    """A [group] or [field] key: the reader of its text, which raises
    ValueError to refuse it, the message refusing it (formatted with the
    text), the attribute its value becomes (None for the type code, which
    is printed from the whole group type), and the printer of that value."""

    read: Callable[[str], Any]
    message: str
    attr: Optional[str]
    show: Callable[[Any], str]
    # its fault is reported after the section's other faults
    late: bool = False


def _type_code(text: str) -> Tuple[Family, FormKind]:
    if text not in _TYPE_CODES:
        raise ValueError(text)
    return _TYPE_CODES[text]


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def _show_flag(flag: bool) -> str:
    return "true" if flag else "false"


# the keys print in table order; a bad type code is refused with the type's
# other checks, after the section's other faults
_GROUP_KEYS = {
    "type": _Key(_type_code, "unknown type code {!r}", None,
                 lambda t: _TYPE_OUT[t.family, t.form_kind], late=True),
    "rank": _Key(int, "rank must be an integer, got {!r}", "rank", str),
}

_FIELD_KEYS = {
    "degree": _Key(int, "degree must be an integer", "degree", str),
    "complex_places": _Key(int, "complex_places must be an integer", "complex_place_count", str),
    "locally_determined": _Key(_flag, "locally_determined must be true or false",
                               "locally_determined", _show_flag),
    "galois": _Key(_flag, "galois must be true or false", "galois_over_q", _show_flag),
    "hbar_fiber": _Key(HbarFiber, "hbar_fiber must be trivial, nontrivial, or unknown",
                       "hbar_fiber", lambda h: h.value),
}


def read_cycles(text: str):
    """The cycles of a permutation in cycle notation, each as its list of words.

    Raises ValueError on a bracket fault; the words are the caller's to check.
    """
    rest = text
    while rest:
        close = rest.find(")")
        if not rest.startswith("(") or close < 0:
            raise ValueError(f"bad cycle notation {text!r}")
        yield rest[1:close].split()
        rest = rest[close + 1:].strip()


def _parse_opts(value: str, allowed):
    """The options of an entry value, with ``kind`` split or nonsplit if
    given, or the message refusing them."""
    opts: Dict[str, str] = {}
    for token in value.split():
        k, eq, v = token.partition("=")
        if not eq:
            return f"expected key=value, got {token!r}"
        if k not in allowed:
            return f"unknown option {k!r}"
        if k in opts:
            return f"option {k!r} given twice"
        opts[k] = v
    if opts.get("kind", "split") not in ("split", "nonsplit"):
        return "kind must be split or nonsplit"
    return opts


def _parse_value(text: str, shape: Shape):
    """The class an ``omega=`` value names in ``shape``, or the message refusing it."""
    if shape.kind == "klein":
        if not (text.startswith("(") and text.endswith(")")):
            return f"expected a bit pair (b1,b2), got {text!r}"
        parts = text[1:-1].split(",")
        if len(parts) != 2:
            return f"expected two components in {text!r}"
        try:
            return LocalClass(shape, (int(parts[0]), int(parts[1])))
        except ValueError:
            return f"bad bit pair {text!r}"
    if "/" in text:
        num, den = text.split("/", 1)
        try:
            a, m = int(num), int(den)
        except ValueError:
            return f"bad fraction {text!r}"
        if m <= 0:
            return f"bad fraction {text!r}"
        if shape.kind == "trivial":
            return zero(shape) if a % m == 0 else f"value {text} does not lie in the trivial group"
        if shape.modulus % m != 0:
            return f"denominator {m} does not divide the local order {shape.modulus}"
        return LocalClass(shape, a * (shape.modulus // m))
    try:
        v = int(text)
    except ValueError:
        return f"bad value {text!r}"
    if shape.kind == "trivial":
        return zero(shape) if v == 0 else "only 0 lies in the trivial group"
    return LocalClass(shape, v)


def _parse_form(text: str, gtype: GroupType, explicit_kind: Optional[str]):
    """The real form a ``form=`` value names, or the message refusing it."""
    name, params = text, ()
    if "(" in text:
        if not text.endswith(")"):
            return f"unbalanced parentheses in form {text!r}"
        name, inner = text[:-1].split("(", 1)
        try:
            params = tuple(int(p) for p in inner.split(","))
        except ValueError:
            return f"bad form parameters in {text!r}"
    try:
        if name in GENERIC:
            outer = name == "AnisotropicOther" and explicit_kind == "nonsplit"
            return RealFormTag(name, family=gtype.family, rank=gtype.rank, outer=outer)
        return RealFormTag(name, params)
    except ValueError as e:
        return str(e)


# A [places] or [real] entry value is read by a pure function of its text and
# the group type, memoized across descriptors: a class of k places with one
# value is k entries of one text.
@_memo
def _read_place(value: str, gtype: GroupType):
    """(kind, adelic class, class) of a [places] entry value, or the message refusing it."""
    opts = _parse_opts(value, {"class", "kind", "omega"})
    if isinstance(opts, str):
        return opts
    kind = PlaceKind.FINITE_OUTER if opts.get("kind") == "nonsplit" else PlaceKind.FINITE_INNER
    try:
        shape = h2_local(gtype, kind)
    except ContractError as e:
        return str(e)
    cls = _parse_value(opts["omega"], shape) if "omega" in opts else zero(shape)
    return cls if isinstance(cls, str) else (kind, opts.get("class"), cls)


@_memo
def _read_real(value: str, gtype: GroupType):
    """(kind, form, class) of a [real] entry value, or the message refusing
    it; None when it names no form, which the caller refuses by the place's name."""
    opts = _parse_opts(value, {"form", "kind", "omega"})
    if isinstance(opts, str):
        return opts
    if "form" not in opts:
        return None
    tag = _parse_form(opts["form"], gtype, opts.get("kind"))
    if isinstance(tag, str):
        return tag
    outer = opts["kind"] == "nonsplit" if "kind" in opts else tag.signature()[2]
    kind = PlaceKind.REAL_OUTER if outer else PlaceKind.REAL_INNER
    try:
        shape = h2_local(gtype, kind)
    except ContractError:
        shape = None  # real_class below names the form's first misfit
    supplied = _parse_value(opts["omega"], shape) if "omega" in opts and shape is not None else None
    if isinstance(supplied, str):
        return supplied
    try:
        return kind, tag, real_class(tag, gtype, kind, supplied)
    except RigidityError as e:
        return str(e)


# the memo keeps the labels it hands out alive, so a label that recurs from
# file to file is not pooled afresh each time
_place_label = _memo(PlaceLabel)

# an entry whose label and value together run longer is read afresh, so each
# memo holds at most MEMO_SIZE texts of this length, whatever a caller parses
_MEMO_TEXT = 128


class _Parser:
    def __init__(self, text: str):
        self.errors: List[Tuple[int, int, str]] = []
        self.lines = text.splitlines()

    def err(self, line: int, col: int, msg: str):
        self.errors.append((line, col, msg))

    def parse(self) -> GroupDescriptor:
        # each section's entries as key -> (line, value), in file order; a key
        # given twice in one section is refused here, at its second line
        sections: Dict[str, Dict[str, Tuple[int, str]]] = {s: {} for s in _SECTIONS}
        current: Optional[str] = None
        for no, raw in enumerate(self.lines, start=1):
            line = raw.partition("#")[0].strip()
            if not line:
                continue
            if line[0] == "[" and line[-1] == "]":
                name = line[1:-1].strip()
                if name not in _SECTIONS:
                    self.err(no, 1, f"unknown section [{name}]")
                    current = None
                else:
                    current = name
                continue
            if current is None:
                self.err(no, 1, "entry outside any section")
                continue
            key, eq, value = line.partition("=")
            if not eq:
                self.err(no, 1, "expected 'key = value'")
                continue
            # the line is stripped, so only the key's end and the value's start hold spaces
            key = key.rstrip()
            if not key:
                self.err(no, 1, "empty key")
                continue
            entries = sections[current]
            if key in entries:
                self.err(no, 1, f"key {key!r} given twice in [{current}]")
                continue
            entries[key] = (no, value.lstrip())
        if not sections["group"]:
            self.err(1, 1, "missing [group] section")
            raise DescriptorParseError(self.errors)

        gtype = self._parse_group(sections["group"])
        fieldinfo = self._parse_field(sections["field"])
        if gtype is None or fieldinfo is None or self.errors:
            raise DescriptorParseError(self.errors or [(1, 1, "unusable descriptor")])

        fin_omega, real_omega, tags = [], [], []
        for label, (no, value) in sections["places"].items():
            memo = len(label) + len(value) <= _MEMO_TEXT
            read = (_read_place if memo else _read_place.__wrapped__)(value, gtype)
            if isinstance(read, str):
                self.err(no, 1, read)
            else:
                kind, adelic_class, cls = read
                fin_omega.append(((_place_label if memo else PlaceLabel)(label, kind, adelic_class), cls))
        for label, (no, value) in sections["real"].items():
            memo = len(label) + len(value) <= _MEMO_TEXT
            read = (_read_real if memo else _read_real.__wrapped__)(value, gtype)
            if read is None or isinstance(read, str):
                self.err(no, 1, read or f"real place {label} needs a form")
            else:
                kind, tag, cls = read
                real_omega.append(((_place_label if memo else PlaceLabel)(label, kind, None), cls))
                tags.append((label, tag))
        perms = self._parse_aut(sections["aut"], {lab.id for lab, _ in fin_omega + real_omega})
        if self.errors:
            raise DescriptorParseError(self.errors)

        # every class was read in h2_local(gtype, kind) of its place's kind,
        # so the vector takes them all
        fdesc = FieldDescriptor(real_places=tuple(lab for lab, _ in real_omega),
                                finite_places=tuple(lab for lab, _ in fin_omega), **fieldinfo)
        return GroupDescriptor(
            group_type=gtype,
            field=fdesc,
            symmetry=PlaceSymmetry(tuple(perms)),
            omega=OmegaVector(gtype, tuple(fin_omega), tuple(real_omega)),
            real_forms=tuple(tags),
        )

    def _read_keys(self, section: str, entries, keys: Dict[str, _Key]) -> Dict[str, Any]:
        """The value of each [group] or [field] entry, read by its key's row,
        by the row's attribute or else the key; a fault is reported at its line."""
        values, late = {}, []
        for key, (no, text) in entries.items():
            row = keys.get(key)
            if row is None:
                self.err(no, 1, f"unknown key {key!r} in [{section}]")
                continue
            try:
                values[row.attr or key] = row.read(text)
            except ValueError:
                (late if row.late else self.errors).append((no, 1, row.message.format(text)))
        self.errors += late
        return values

    def _parse_group(self, entries) -> Optional[GroupType]:
        values = self._read_keys("group", entries, _GROUP_KEYS)
        if "type" not in values:
            if "type" not in entries:
                self.err(1, 1, "missing type in [group]")
            return None
        code_line, code = entries["type"]
        family, kind = values["type"]
        rank = values.get("rank")
        if rank is None:
            if family not in FIXED_RANKS:
                self.err(code_line, 1, f"type {code} needs an explicit rank")
                return None
            rank = FIXED_RANKS[family]
        try:
            return GroupType(family, rank, kind)
        except (ValueError, OutOfScopeError) as e:
            self.err(code_line, 1, str(e))
            return None

    def _parse_field(self, entries) -> Optional[Dict[str, Any]]:
        """The ``FieldDescriptor`` arguments of the [field] section, places aside."""
        values = self._read_keys("field", entries, _FIELD_KEYS)
        if "degree" not in values:
            if "degree" not in entries:
                self.err(1, 1, "missing degree in [field]")
            return None
        degree = values["degree"]
        galois = values.setdefault("galois_over_q", degree == 1)
        if "locally_determined" not in values:
            if degree > 6:
                self.err(1, 1, "degree above 6: declare locally_determined explicitly")
                return None
            values["locally_determined"] = True  # fields of degree up to six are locally determined
        values.setdefault("hbar_fiber", HbarFiber.TRIVIAL if galois else HbarFiber.UNKNOWN)
        return values

    def _parse_aut(self, entries, declared) -> List[PlacePerm]:
        perms = []
        for name, (no, value) in entries.items():
            if not value:
                self.err(no, 1, f"generator {name} is empty")
                continue
            before = len(self.errors)
            try:
                cycles = []
                for cyc in read_cycles(value):
                    if len(cyc) < 2:
                        raise ValueError("cycles need at least two labels")
                    for pid in cyc:
                        if pid not in declared:
                            self.err(no, 1, f"generator {name}: undeclared place {pid}")
                    cycles.append(tuple(cyc))
                if len(self.errors) == before:
                    perms.append(PlacePerm.from_cycles(cycles))
            except (ValueError, ValidationError) as e:
                self.err(no, 1, f"generator {name}: {e}")
        return perms


def parse(text_or_path) -> GroupDescriptor:
    """Parse a descriptor from text or a file path."""
    if isinstance(text_or_path, Path) or (
        isinstance(text_or_path, str) and "\n" not in text_or_path and text_or_path.endswith(".grp")
    ):
        text = Path(text_or_path).read_text(encoding="utf-8")
    else:
        text = text_or_path
    return _Parser(text).parse()


def _format_form(tag: RealFormTag) -> str:
    # the generic tags carry no parameters
    return f"{tag.name}({','.join(map(str, tag.params))})" if tag.params else tag.name


def _emit_keys(section: str, keys: Dict[str, _Key], obj) -> List[str]:
    """A [group] or [field] section that prints ``obj`` by its key table."""
    out = [f"[{section}]"]
    for key, row in keys.items():
        out.append(f"{key} = {row.show(obj if row.attr is None else getattr(obj, row.attr))}")
    return out


def emit_descriptor(g: GroupDescriptor) -> str:
    """Print a descriptor in the input grammar; parse(emit(g)) reproduces g."""
    out = _emit_keys("group", _GROUP_KEYS, g.group_type) + [""] + _emit_keys("field", _FIELD_KEYS, g.field)
    if g.symmetry.generators:
        out += ["", "[aut]"]
        for i, perm in enumerate(g.symmetry.generators, start=1):
            out.append(f"g{i} = {perm}")
    if g.field.finite_places:
        out += ["", "[places]"]
        for lab, cls in g.omega.finite:
            parts = [lab.id, "="]
            if lab.adelic_class is not None:
                parts.append(f"class={lab.adelic_class}")
            if g.group_type.is_outer:
                parts.append(f"kind={'split' if lab.kind == PlaceKind.FINITE_INNER else 'nonsplit'}")
            parts.append(f"omega={cls}")
            out.append(" ".join(parts))
    if g.field.real_places:
        out += ["", "[real]"]
        for (lab, cls), (_, tag) in zip(g.omega.real, g.real_forms):
            parts = [lab.id, "=", f"form={_format_form(tag)}"]
            if tag.name == "AnisotropicOther":
                parts.append(f"kind={'nonsplit' if lab.kind == PlaceKind.REAL_OUTER else 'split'}")
            parts.append(f"omega={cls}")
            out.append(" ".join(parts))
    return "\n".join(out) + "\n"
