"""The public API holds still: every name in `globalcert.__all__` and its
call signature match the list in tests/data/api_signatures.tsv, one
`name<TAB>signature` line per name, `-` where inspect.signature has none
(modules, constants, exceptions)."""

import inspect
from pathlib import Path

import globalcert

SIGNATURES = Path(__file__).parent / "data" / "api_signatures.tsv"


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "-"


def test_every_public_name_keeps_its_signature():
    expected = dict(line.split("\t") for line in SIGNATURES.read_text(encoding="utf-8").splitlines())
    actual = {name: signature_of(getattr(globalcert, name)) for name in globalcert.__all__}
    assert sorted(actual) == sorted(expected)
    assert {n: s for n, s in actual.items() if s != expected[n]} == {}
    assert (len(expected), sum(s != "-" for s in expected.values())) == (81, 61)
