"""Byte-identity gate for the tangle pipeline.

`data/serialize_digests.json` holds sha256 digests, recorded before the
algebra labels were packed into integers, of three outputs per word:
the serialized reduced complex, the serialized two-layer image, and the
`compare` verdict with its witness.  Digests of the unreduced box
tensors of the reduced complex with `Y` (after the quotient map), `I`
and `Q` were recorded before `box_ad` moved onto the concrete actions
of `bimod`.  Serialization sorts the arrows, but chain-map witnesses
depend on the order in which the reduced complex holds them, so the
"order" digest, recorded before `reduce` moved onto integer generator
ids, covers `list(m.arrows)` of the reduced complex.  Any change to
generator names, arrow labels, label order, arrow order or witnesses
shows up here.

Regenerate (only when an output is meant to change) with
`PYTHONPATH=src python3 tests/test_serialize_gate.py`.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from khtangle import algebra, bimod, dstruct, tangles

FIXTURE = Path(__file__).parent / "data" / "serialize_digests.json"


def gate_words():
    rng = random.Random(0)
    randoms = [str(tangles.random_word(rng, 8)) for _ in range(30)]
    ladder = [" ".join(["x1"] * n) for n in (5, 6, 7)]
    # dict.fromkeys drops repeats (random words include the empty word)
    return list(dict.fromkeys(list(tangles.CORPUS) + ladder + randoms))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digests(text):
    word = tangles.parse_tangle(text)
    m = tangles.tangle_complex(word)
    mq = m.map_labels(algebra.q_map, algebra.FLAVOR_BT)
    return {
        "complex": _sha(dstruct.serialize(m)),
        "lt": _sha(dstruct.serialize(tangles.compute_lt_image(word))),
        "compare": _sha(json.dumps(tangles.compare(word), sort_keys=True,
                                   default=str)),
        "box_y": _sha(dstruct.serialize(
            dstruct.box_ad(mq, bimod.bimodule_Y()))),
        "box_i": _sha(dstruct.serialize(
            dstruct.box_ad(m, bimod.bimodule_I()))),
        "box_q": _sha(dstruct.serialize(
            dstruct.box_ad(m, bimod.bimodule_Q()))),
        "order": _sha(json.dumps(list(m.arrows))),
    }


def test_fixture_covers_the_gate_words():
    assert list(json.loads(FIXTURE.read_text())) == gate_words()


@pytest.mark.parametrize("text", gate_words())
def test_outputs_are_byte_identical(text):
    assert digests(text) == json.loads(FIXTURE.read_text())[text]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({w: digests(w) for w in gate_words()},
                                  indent=1) + "\n")
