"""The command line front end.

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
from typing import List, Optional

from ._util import count_text, natural_key
from .arith_equiv import verify_prop_almost_conjugate
from .brauer import plain_orbits, possible_vectors, weak_uniformity
from .catalog import parse_catalog
from .classifier import TAG_SCOPE, Outcome, Verdict, classify, validate_descriptor
from .descriptor import __doc__ as _GRAMMAR
from .descriptor import _GROUP_KEYS, emit_descriptor, parse
from .errors import CapacityError, DescriptorParseError, OutOfScopeError, RigidityError
from .field_model import coords_key
from .invariants import D4_OUT_OF_SCOPE, GroupType
from .real_forms import trivial_image_forms

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
            raise CapacityError(f"{count_text(report.possible)} possible vectors exceed "
                                f"the listing limit {ORBIT_LISTING_LIMIT}")
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
    row = _GROUP_KEYS["type"]
    try:
        family, kind = row.read(args.type)
    except ValueError:
        print(row.message.format(args.type), file=sys.stderr)
        return 3
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
    # imported here: selftest reads every bundled fixture when it is imported
    from .selftest import run_selftest

    return run_selftest(out if out is not None else sys.stdout)


def main(argv: Optional[List[str]] = None) -> int:
    # the help ends with the grammar; python -OO strips both docstrings
    parser = argparse.ArgumentParser(prog="rigidity", description=__doc__ and f"{__doc__}\n{_GRAMMAR}",
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
