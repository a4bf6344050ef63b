"""Byte-for-byte pins of the command line output and of generated verdicts.

The expected files under ``tests/golden/`` hold:

* ``classify.txt`` and ``classify.json.txt``: ``rigidity classify fixtures/``
  without and with ``--json``;
* ``orbit.txt``: ``rigidity orbit`` on every bundled fixture, each under an
  ``== NAME`` header;
* ``selftest.txt``: ``rigidity selftest``;
* ``equiv.txt``: ``rigidity equiv fixtures/groups.cat``, which exits 0;
* ``genfix.txt``: one ``GENERATOR SEED SHA256`` line per verdict JSON of the
  one-argument ``genfix.rand_*`` generators at seeds 0..149.

A change that means to alter any of these outputs rewrites the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import genfix
from rigidity.classifier import classify
from rigidity.cli import main, verdict_to_json

GOLDEN = Path(__file__).resolve().parent / "golden"
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


OUTPUTS = {
    "classify.txt": classify_text,
    "classify.json.txt": lambda: classify_text("--json"),
    "orbit.txt": orbit_text,
    "selftest.txt": selftest_text,
    "equiv.txt": equiv_text,
    "genfix.txt": genfix_text,
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make_output in OUTPUTS.items():
        (GOLDEN / name).write_text(make_output(), encoding="utf-8")
