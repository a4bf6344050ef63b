"""Descriptor files and the command line front end.

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

Subcommands: ``classify FILE-or-DIR [--json]``, ``orbit FILE``,
``realforms TYPE RANK``, ``equiv CATALOG``, ``selftest``.
Exit codes: 0 rigid or success, 1 not rigid, 2 undetermined, 3 error,
4 out of scope.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ._util import _memo, natural_key
from .arith_equiv import PermGroup, perm_from_cycles, verify_prop_almost_conjugate
from .brauer import OmegaVector, plain_orbits, possible_vectors, weak_uniformity
from .classifier import (
    TAG_SCOPE,
    GroupDescriptor,
    Outcome,
    Verdict,
    classify,
    validate_descriptor,
)
from .errors import (
    CapacityError,
    ContractError,
    DescriptorParseError,
    OutOfScopeError,
    RigidityError,
    ValidationError,
)
from .field_model import (
    FieldDescriptor,
    HbarFiber,
    PlaceLabel,
    PlacePerm,
    PlaceSymmetry,
    coords_key,
)
from .invariants import (
    D4_OUT_OF_SCOPE,
    FIXED_RANKS,
    Family,
    FormKind,
    GroupType,
    LocalClass,
    PlaceKind,
    Shape,
    h2_local,
    zero,
)
from .real_forms import GENERIC, RealFormTag, real_class

EXIT_BY_OUTCOME = {
    Outcome.RIGID: 0,
    Outcome.NOT_RIGID: 1,
    Outcome.UNDETERMINED: 2,
    Outcome.OUT_OF_SCOPE: 4,
}

VERDICT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["outcome", "reasons", "witness", "symbolic_witness", "missing"],
    "additionalProperties": False,
    "properties": {
        "outcome": {"enum": ["Rigid", "NotRigid", "Undetermined", "OutOfScope"]},
        "reasons": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tag", "detail"],
                "additionalProperties": False,
                "properties": {"tag": {"type": "string"}, "detail": {"type": "string"}},
            },
        },
        "witness": {"type": ["string", "null"]},
        "symbolic_witness": {"type": ["string", "null"]},
        "missing": {"type": ["string", "null"]},
    },
}


# ---------------------------------------------------------------------------
# parsing

_TYPE_CODES = {
    "A": (Family.A, FormKind.INNER), "1A": (Family.A, FormKind.INNER), "2A": (Family.A, FormKind.OUTER),
    "B": (Family.B, FormKind.INNER), "C": (Family.C, FormKind.INNER),
    "D": (Family.D, FormKind.INNER), "1D": (Family.D, FormKind.INNER), "2D": (Family.D, FormKind.OUTER),
    "E6": (Family.E6, FormKind.INNER), "1E6": (Family.E6, FormKind.INNER), "2E6": (Family.E6, FormKind.OUTER),
    "E7": (Family.E7, FormKind.INNER), "E8": (Family.E8, FormKind.INNER),
    "F4": (Family.F4, FormKind.INNER), "G2": (Family.G2, FormKind.INNER),
}

_SECTIONS = ("group", "field", "aut", "places", "real")


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


# each [field] key with the reader of its value and the message when that fails
_FIELD_KEYS = {
    "degree": (int, "degree must be an integer"),
    "complex_places": (int, "complex_places must be an integer"),
    "locally_determined": (_flag, "locally_determined must be true or false"),
    "galois": (_flag, "galois must be true or false"),
    "hbar_fiber": (HbarFiber, "hbar_fiber must be trivial, nontrivial, or unknown"),
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

        degree, complexes, loc_det, galois, hbar = fieldinfo
        fdesc = FieldDescriptor(
            degree=degree,
            real_places=tuple(lab for lab, _ in real_omega),
            complex_place_count=complexes,
            finite_places=tuple(lab for lab, _ in fin_omega),
            locally_determined=loc_det,
            galois_over_q=galois,
            hbar_fiber=hbar,
        )
        try:
            omega = OmegaVector(gtype, tuple(fin_omega), tuple(real_omega))
            desc = GroupDescriptor(
                group_type=gtype,
                field=fdesc,
                symmetry=PlaceSymmetry(tuple(perms)),
                omega=omega,
                real_forms=tuple(tags),
            )
        except RigidityError as e:
            self.err(1, 1, str(e))
            raise DescriptorParseError(self.errors)
        return desc

    def _parse_group(self, entries) -> Optional[GroupType]:
        code = rank = None
        code_line = 1
        for key, (no, value) in entries.items():
            if key == "type":
                code, code_line = value, no
            elif key == "rank":
                try:
                    rank = int(value)
                except ValueError:
                    self.err(no, 1, f"rank must be an integer, got {value!r}")
            else:
                self.err(no, 1, f"unknown key {key!r} in [group]")
        if code is None:
            self.err(1, 1, "missing type in [group]")
            return None
        if code not in _TYPE_CODES:
            self.err(code_line, 1, f"unknown type code {code!r}")
            return None
        family, kind = _TYPE_CODES[code]
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

    def _parse_field(self, entries):
        values = {"complex_places": 0}
        for key, (no, value) in entries.items():
            if key not in _FIELD_KEYS:
                self.err(no, 1, f"unknown key {key!r} in [field]")
                continue
            read, message = _FIELD_KEYS[key]
            try:
                values[key] = read(value)
            except ValueError:
                self.err(no, 1, message)
        if "degree" not in values:
            if "degree" not in entries:
                self.err(1, 1, "missing degree in [field]")
            return None
        degree = values["degree"]
        galois = values.get("galois", degree == 1)
        loc_det = values.get("locally_determined")
        if loc_det is None:
            if degree > 6:
                self.err(1, 1, "degree above 6: declare locally_determined explicitly")
                return None
            loc_det = True  # fields of degree up to six are locally determined
        hbar = values.get("hbar_fiber", HbarFiber.TRIVIAL if galois else HbarFiber.UNKNOWN)
        return degree, values["complex_places"], loc_det, galois, hbar

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


# ---------------------------------------------------------------------------
# emitting

def _format_form(tag: RealFormTag) -> str:
    # the generic tags carry no parameters
    return f"{tag.name}({','.join(map(str, tag.params))})" if tag.params else tag.name


# the last code listed for a type in _TYPE_CODES is the one emitted
_TYPE_OUT = {v: k for k, v in _TYPE_CODES.items()}


def emit_descriptor(g: GroupDescriptor) -> str:
    """Print a descriptor in the input grammar; parse(emit(g)) reproduces g."""
    out = ["[group]", f"type = {_TYPE_OUT[(g.group_type.family, g.group_type.form_kind)]}",
           f"rank = {g.group_type.rank}", "", "[field]", f"degree = {g.field.degree}",
           f"complex_places = {g.field.complex_place_count}",
           f"locally_determined = {'true' if g.field.locally_determined else 'false'}",
           f"galois = {'true' if g.field.galois_over_q else 'false'}",
           f"hbar_fiber = {g.field.hbar_fiber.value}"]
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


def verdict_to_json(v: Verdict) -> dict:
    return {
        "outcome": v.outcome.value,
        "reasons": [{"tag": t, "detail": d} for t, d in v.reasons],
        "witness": emit_descriptor(v.witness) if v.witness is not None else None,
        "symbolic_witness": v.symbolic_witness,
        "missing": v.missing,
    }


def render_verdict(v: Verdict) -> str:
    lines = [f"verdict: {v.outcome.value}"]
    for tag, detail in v.reasons:
        lines.append(f"  reason [{tag}] {detail}")
    if v.missing:
        lines.append(f"  missing: {v.missing}")
    if v.symbolic_witness:
        lines.append(f"  witness (symbolic): {v.symbolic_witness}")
    if v.witness is not None:
        lines.append("witness descriptor:")
        lines.extend("  " + l for l in emit_descriptor(v.witness).splitlines())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands

def _classify_file(path: Path, as_json: bool, out) -> int:
    try:
        desc = parse(path)
        verdict = classify(desc)
    except DescriptorParseError as e:
        # OutOfScope only when triality is the file's one fault; any other fault fails it
        if [msg for _, _, msg in e.errors] != [D4_OUT_OF_SCOPE]:
            for ln, col, msg in e.errors:
                print(f"{path}:{ln}:{col}: {msg}", file=sys.stderr)
            return 3
        verdict = Verdict(Outcome.OUT_OF_SCOPE, [(TAG_SCOPE, str(e))])
    except (RigidityError, OSError, UnicodeDecodeError) as e:
        print(f"{path}: {e}", file=sys.stderr)
        return 3
    print(json.dumps(verdict_to_json(verdict), indent=2) if as_json
          else render_verdict(verdict), file=out)
    return EXIT_BY_OUTCOME[verdict.outcome]


def cmd_classify(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    target = Path(args.file)
    if target.is_dir():
        codes = []
        for path in sorted(target.glob("*.grp"), key=lambda p: natural_key(p.name)):
            print(f"== {path.name}", file=out)
            codes.append(_classify_file(path, args.json, out))
        # a file that failed (3) outranks every verdict, OutOfScope (4) included
        return 3 if 3 in codes else max(codes, default=0)
    return _classify_file(target, args.json, out)


# Most possible vectors ``rigidity orbit`` lists; classification counts them instead.
ORBIT_LISTING_LIMIT = 10000


def cmd_orbit(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        desc = parse(Path(args.file))
        validate_descriptor(desc)
        report = weak_uniformity(desc.omega, desc.field, desc.symmetry)
        if report.possible > ORBIT_LISTING_LIMIT:
            raise CapacityError(
                f"{report.possible} possible vectors exceed the listing limit {ORBIT_LISTING_LIMIT}"
            )
        possible = possible_vectors(desc.omega)
        glob, adel = plain_orbits(desc.omega, desc.symmetry)
    except (RigidityError, OSError, UnicodeDecodeError) as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return 3

    def show(name, vectors):
        print(f"{name} ({len(vectors)}):", file=out)
        for vec in vectors:
            print("  " + "  ".join(f"{lab.id}:{cls}" for lab, cls in vec), file=out)

    realized = (tuple(zip(desc.field.finite_places, values)) for values in report.lhs)
    show("realized (two-sided, automorphisms)", sorted(realized, key=coords_key))
    show("possible (flips x adelic)", possible)
    print(f"weak uniformity: {'holds' if report.holds else 'fails'}", file=out)
    show("automorphism orbit", glob)
    show("adelic orbit", adel)
    return 0


def cmd_realforms(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    from .real_forms import trivial_image_forms

    code = args.type
    if code not in _TYPE_CODES:
        print(f"unknown type code {code!r}", file=sys.stderr)
        return 3
    family, kind = _TYPE_CODES[code]
    try:
        t = GroupType(family, args.rank, kind)
        forms = trivial_image_forms(t)
    except OutOfScopeError as e:
        print(str(e), file=sys.stderr)
        return 4
    except (ValueError, RigidityError) as e:
        print(str(e), file=sys.stderr)
        return 3
    for tag in forms:
        print(str(tag), file=out)
    return 0


# Every element of a catalog group is a tuple of DEGREE points, so with the
# group order cap of 10080 a degree of 1000 already means 10^7 stored points.
CATALOG_DEGREE_LIMIT = 1000


def parse_catalog(text: str) -> List[PermGroup]:
    """Catalog grammar: one group per line, ``NAME DEGREE (cycles)(...)``, 1-based points.

    Generators are separated by ``;``.  Every fault is reported as a
    positioned ``DescriptorParseError`` entry.
    """
    groups = []
    errors = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            errors.append((no, 1, "expected NAME DEGREE CYCLES"))
            continue
        name, deg_txt, gen_txt = parts
        try:
            degree = int(deg_txt)
        except ValueError:
            errors.append((no, 1, f"bad degree {deg_txt!r}"))
            continue
        if not 1 <= degree <= CATALOG_DEGREE_LIMIT:
            errors.append((no, 1, f"degree {degree} outside 1..{CATALOG_DEGREE_LIMIT}"))
            continue
        gens = []
        for chunk in gen_txt.split(";"):
            try:
                gens.append(_catalog_generator(chunk.strip(), degree))
            except ValueError as e:
                errors.append((no, 1, str(e)))
        groups.append(PermGroup(degree, gens, name=name))
    if errors:
        raise DescriptorParseError(errors)
    return groups


def _catalog_generator(chunk: str, degree: int) -> Tuple[int, ...]:
    """One generator in 1-based cycle notation; ValueError says what is wrong."""
    cycles = []
    for words in read_cycles(chunk):
        cycle = []
        for word in words:
            try:
                point = int(word)
            except ValueError:
                raise ValueError(f"bad point {word!r} in {chunk!r}") from None
            if not 1 <= point <= degree:
                raise ValueError(f"point {point} outside degree {degree} in {chunk!r}")
            cycle.append(point - 1)
        cycles.append(cycle)
    try:
        return perm_from_cycles(degree, cycles)
    except ContractError as e:
        raise ValueError(f"{e} in {chunk!r}") from None


def cmd_equiv(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        groups = parse_catalog(Path(args.catalog).read_text(encoding="utf-8"))
    except DescriptorParseError as e:
        print(str(e), file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as e:
        print(f"{args.catalog}: {e}", file=sys.stderr)
        return 3
    failures = 0
    for i, G in enumerate(groups):
        groups[i] = None  # a group and its tables are freed once its line is out
        try:
            ok, pair = verify_prop_almost_conjugate(G)
        except CapacityError as e:
            print(f"{G.name}: {e}", file=out)
            failures += 1
            continue
        print(f"{G.name} (order {G.order()}): {'ok' if ok else 'COUNTEREXAMPLE'}", file=out)
        if not ok:
            failures += 1
    return 0 if failures == 0 else 3


def cmd_selftest(args, out=None) -> int:
    from .selftest import run_selftest

    return run_selftest(out if out is not None else sys.stdout)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="rigidity", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a descriptor file (or every *.grp in a directory)")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("orbit", help="print the uniformity orbit sets of a descriptor")
    p.add_argument("file")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("realforms", help="list the real forms compatible with rigidity")
    p.add_argument("type")
    p.add_argument("rank", type=int)
    p.set_defaults(func=cmd_realforms)

    p = sub.add_parser("equiv", help="run the almost-conjugacy suite over a catalog file")
    p.add_argument("catalog")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("selftest", help="run the bundled fixture battery")
    p.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
