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
shows up here.  Four of the words are also run in fresh interpreters
under two hash seeds, so that no output may depend on the iteration
order of a set or dict of strings.

The fixture's last entry, under `BIMOD`, holds digests of the concrete
action sets of the bimodule calculus, recorded before it moved onto
packed monomials: the box tensor of `Q` and `Y`, the instantiated
actions of `I`, `Q`, `Y` and `QY`, the differentials of `f` and `g`,
their two composites, and the differential of `f` without its
`m->w*u` component (whose factorization terms no longer cancel), all
at weight bound 16.  Each item is written
`src->dst (in,... | out)` and the lines are sorted.

Regenerate (only when an output is meant to change) with
`PYTHONPATH=src python3 tests/test_serialize_gate.py`.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import khtangle
from khtangle import algebra, bimod, dstruct, tangles

FIXTURE = Path(__file__).parent / "data" / "serialize_digests.json"
BIMOD = "(bimodule calculus)"


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


def bimod_digests():
    def sha_items(items):
        return _sha("\n".join(sorted(
            f"{s}->{d} ({','.join(map(str, ins)) or '-'} | {out})"
            for s, d, ins, out in items)))

    f, g = bimod.morphism_f(), bimod.morphism_g()
    out = {"box_qy": sha_items(bimod.box_bimods(bimod.bimodule_Q(),
                                                bimod.bimodule_Y(), 16))}
    for name, bim in (("I", bimod.bimodule_I()), ("Q", bimod.bimodule_Q()),
                      ("Y", bimod.bimodule_Y()),
                      ("QY", bimod.bimodule_QY_expected())):
        out[f"actions_{name}"] = sha_items(bimod.instantiate_actions(bim, 16))
    out["diff_f"] = sha_items(bimod.diff_ad_morphism(f, 16))
    out["diff_g"] = sha_items(bimod.diff_ad_morphism(g, 16))
    out["g_after_f"] = sha_items(bimod.compose_ad_morphisms(g, f, 16))
    out["f_after_g"] = sha_items(bimod.compose_ad_morphisms(f, g, 16))
    broken = bimod.ADMorphism("f'", f.source, f.target, tuple(
        c for c in f.components if (c.src, c.dst) != ("m", "w*u")))
    out["diff_f_broken"] = sha_items(bimod.diff_ad_morphism(broken, 16))
    return out


def test_fixture_covers_the_gate_words():
    assert list(json.loads(FIXTURE.read_text())) == gate_words() + [BIMOD]


@pytest.mark.parametrize("text", gate_words())
def test_outputs_are_byte_identical(text):
    assert digests(text) == json.loads(FIXTURE.read_text())[text]


# a corpus word, the largest ladder word and the two random gate words
# of most generators; both isomorphism paths win among them, and the
# deloop's shape keys and name ranks hash Vertex and str values
HASH_SEED_WORDS = (
    "x1 x1 x1 u1 x2 x2 x2 n3",
    "x1 x1 x1 x1 x1 x1 x1",
    "y1 u2 u5 n1 y1 y2 x3 x1 x2 x3 x2 u5 n3 n1",
    "x1 y1 u1 x3 n1 u2 y2 u3 x5 n1 y3 y2 y1 n1",
)


@pytest.mark.parametrize("seed", ["1", "2"])
def test_outputs_do_not_depend_on_the_hash_seed(seed):
    # str and bytes hashes, and so the iteration order of sets and dicts
    # built from them, change with PYTHONHASHSEED
    paths = [str(Path(khtangle.__file__).parents[1]), str(FIXTURE.parents[1])]
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(paths))
    code = ("import json, sys\n"
            "from test_serialize_gate import digests\n"
            "print(json.dumps({w: digests(w) for w in sys.argv[1:]}))")
    proc = subprocess.run([sys.executable, "-c", code, *HASH_SEED_WORDS],
                          env=env, capture_output=True, text=True, check=True)
    fixture = json.loads(FIXTURE.read_text())
    assert all(w in fixture for w in HASH_SEED_WORDS)
    assert json.loads(proc.stdout) == {w: fixture[w] for w in HASH_SEED_WORDS}


def test_bimodule_calculus_is_byte_identical():
    assert bimod_digests() == json.loads(FIXTURE.read_text())[BIMOD]


if __name__ == "__main__":
    fixture = {w: digests(w) for w in gate_words()}
    fixture[BIMOD] = bimod_digests()
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n")
