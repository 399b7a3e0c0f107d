"""Byte-identity gate for the functor and homology verifiers.

`data/verifier_digests.json` holds sha256 digests, recorded before cone
morphisms were stored as their term vectors, of:

- `verify_functor(max_len=6)` on the shipped tables;
- the defects of `verify_functor(t, max_len=4)` for each of the
  `table_mutations()`;
- the dims and failures of `verify_quasi_iso(10)`, for the shipped
  tables and for each mutation.

A defect is written as its sorted `slot:monomial` strings, as `verify
functor` prints it.  `tests/test_relation_oracle.py` calls the same
`diff_C` and `compose_C` as the verifier, so it cannot notice a change
in them; this gate can.

Regenerate (only when an output is meant to change) with
`PYTHONPATH=src python3 tests/test_verifier_gate.py`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from khtangle import acat, functor

FIXTURE = Path(__file__).parent / "data" / "verifier_digests.json"
SHIPPED = "(shipped tables)"


def _sha(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _functor_report(tables, max_len, mu):
    bad, checked = functor.verify_functor(tables, max_len, mu)
    return [[[" ".join(seq), sorted(f"{slot}:{t}" for slot, t in defect)]
             for seq, defect in bad], checked]


def _quasi_iso_report(tables):
    rep = functor.verify_quasi_iso(10, tables)
    dims = [[f"{s}{d}", sorted(v.items())]
            for (s, d), v in sorted(rep["dims"].items())]
    return [dims, rep["failures"]]


def digests():
    mu = acat.load_tables()
    shipped = functor.default_tables()
    out = {SHIPPED: {"functor": _sha(_functor_report(shipped, 6, mu)),
                     "quasi_iso": _sha(_quasi_iso_report(shipped))}}
    for name, tables in functor.table_mutations():
        out[name] = {"functor": _sha(_functor_report(tables, 4, mu)),
                     "quasi_iso": _sha(_quasi_iso_report(tables))}
    return out


@pytest.fixture(scope="module")
def computed():
    return digests()


def test_fixture_covers_the_mutations(computed):
    names = [name for name, _ in functor.table_mutations()]
    assert len(names) == 28
    assert list(json.loads(FIXTURE.read_text())) == [SHIPPED] + names
    assert list(computed) == [SHIPPED] + names


def test_verifier_outputs_are_byte_identical(computed):
    fixture = json.loads(FIXTURE.read_text())
    for name, value in computed.items():
        assert value == fixture[name], name


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(digests(), indent=1) + "\n")
