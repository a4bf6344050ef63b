"""Byte-for-byte pins of the command line output and of generated verdicts.

The expected files under ``tests/golden/`` hold:

* ``classify.txt`` and ``classify.json.txt``: ``rigidity classify fixtures/``
  without and with ``--json``;
* ``orbit.txt``: ``rigidity orbit`` on every bundled fixture, each under an
  ``== NAME`` header;
* ``selftest.txt``: ``rigidity selftest``;
* ``equiv.txt``: ``rigidity equiv fixtures/groups.cat``, which exits 0;
* ``genfix.txt``: one ``GENERATOR SEED SHA256`` line per verdict JSON of the
  one-argument ``genfix.rand_*`` generators at seeds 0..149;
* ``forms.txt``: one line per named real form tag and parameter tuple with
  entries 0..8 that ``RealFormTag`` accepts, giving its ``str``, its
  ``signature()``, its ``real_stats`` orders and, for each type of its
  family and rank and each real place kind, the class ``real_class`` pins
  with no class supplied or the error it raises; then
  ``rigidity realforms CODE RANK`` for every type code at ranks 1..8;
* ``api.txt``: ``rigidity.__all__``, one name per line;
* ``verdict_digest.txt``: what ``tests/verdict_digest.py`` prints, the
  count, exit code and output digests of ``rigidity classify --json`` on the
  benchmark's generated classify inputs, so any change of verdict, reason or
  witness there shows as a diff.

A change that means to alter any of these outputs rewrites the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import genfix
import rigidity
from rigidity.classifier import classify
from rigidity.cli import main, verdict_to_json
from rigidity.descriptor import _TYPE_CODES
from rigidity.invariants import FormKind, GroupType, PlaceKind
from rigidity.real_forms import NAMED, RealFormTag, real_class, real_stats

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GENERATORS = [
    genfix.rand_q,
    genfix.rand_quasisplit_galois,
    genfix.rand_outer_two_twins,
    genfix.rand_bound_violator,
    genfix.rand_two_real_quadratic,
    genfix.rand_three_reals,
]
SEEDS = range(150)


def _run(*argv):
    """Exit code and standard output of ``rigidity ARGV``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def classify_text(*flags) -> str:
    code, text = _run("classify", str(FIXTURES), *flags)
    assert code == 1
    return text


def orbit_text() -> str:
    parts = []
    for path in sorted(FIXTURES.glob("*.grp")):
        code, text = _run("orbit", str(path))
        assert code == 0, path.name
        parts.append(f"== {path.name}\n{text}")
    return "".join(parts)


def selftest_text() -> str:
    code, text = _run("selftest")
    assert code == 0
    return text


def equiv_text() -> str:
    code, text = _run("equiv", str(FIXTURES / "groups.cat"))
    assert code == 0
    return text


def genfix_text() -> str:
    lines = []
    for make in GENERATORS:
        for seed in SEEDS:
            payload = json.dumps(verdict_to_json(classify(make(random.Random(seed)))), indent=2)
            digest = hashlib.sha256(payload.encode()).hexdigest()
            lines.append(f"{make.__name__} {seed} {digest}\n")
    return "".join(lines)


def _outcome(make):
    """``make()``, or the name and message of what it raises."""
    try:
        return make()
    except Exception as e:  # the error is the pinned outcome
        return f"{type(e).__name__}: {e}"


def _form_line(name, params) -> str:
    tag = RealFormTag(name, params)
    fam, rank, outer = tag.signature()
    st = real_stats(tag)
    parts = [f"{name} {params}: {tag}",
             f"signature {fam.value} {rank} {'outer' if outer else 'inner'}",
             f"stats {st.h1_size} {st.z_h1_size} {st.pi0_size} {st.kernel_size}"]
    for form_kind in FormKind:
        t = _outcome(lambda: GroupType(fam, rank, form_kind))
        if isinstance(t, str):
            parts.append(f"{form_kind.value} {t}")
            continue
        for kind in (PlaceKind.REAL_INNER, PlaceKind.REAL_OUTER):
            parts.append(f"{t.symbol()} {kind.value} {_outcome(lambda: real_class(tag, t, kind))}")
    return "; ".join(parts) + "\n"


def forms_text() -> str:
    lines = []
    for name in NAMED:
        # a wrong parameter count is refused like any other bad tuple
        for n_params in range(3):
            for params in itertools.product(range(9), repeat=n_params):
                if not isinstance(_outcome(lambda: RealFormTag(name, params)), str):
                    lines.append(_form_line(name, params))
    for code in _TYPE_CODES:
        for rank in range(1, 9):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                exit_code = main(["realforms", code, str(rank)])
            lines.append(f"== realforms {code} {rank}: exit {exit_code}\n{out.getvalue()}")
            lines.extend(f"stderr: {line}\n" for line in err.getvalue().splitlines())
    return "".join(lines)


def verdict_digest_text() -> str:
    # its own interpreter: the script puts bench/ on sys.path and changes directory
    run = subprocess.run([sys.executable, str(TESTS / "verdict_digest.py")],
                         capture_output=True, text=True, check=True)
    return run.stdout


OUTPUTS = {
    "classify.txt": classify_text,
    "classify.json.txt": lambda: classify_text("--json"),
    "orbit.txt": orbit_text,
    "selftest.txt": selftest_text,
    "equiv.txt": equiv_text,
    "genfix.txt": genfix_text,
    "forms.txt": forms_text,
    "api.txt": lambda: "".join(f"{name}\n" for name in rigidity.__all__),
    "verdict_digest.txt": verdict_digest_text,
}


def _check(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert OUTPUTS[name]() == expected


def test_classify_fixtures_text():
    _check("classify.txt")


def test_classify_fixtures_json():
    _check("classify.json.txt")


def test_orbit_on_every_fixture():
    _check("orbit.txt")


def test_selftest():
    _check("selftest.txt")


def test_equiv_on_the_bundled_catalog():
    _check("equiv.txt")


def test_generated_verdicts():
    _check("genfix.txt")


def test_named_real_forms():
    _check("forms.txt")


def test_public_names():
    _check("api.txt")


def test_verdicts_on_the_benchmark_inputs():
    _check("verdict_digest.txt")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make_output in OUTPUTS.items():
        (GOLDEN / name).write_text(make_output(), encoding="utf-8")
