"""The term-scattering verifiers against a per-sequence evaluation.

The oracle sums each relation on every composable sequence by looking
its terms up, with no assumption on the lengths of the table keys.
"""

import pytest

from khtangle import acat, cones, f2, functor


def ainfty_oracle(mu, max_len, generators=acat.GENERATORS):
    bad = []
    for n in range(3, max_len + 1):
        for seq in acat.composable_sequences(n, generators):
            acc = f2.ZERO
            for ln in (2, 3):
                for i in range(n - ln + 1):
                    for g in mu.get(seq[i:i + ln], ()):
                        acc ^= mu.get(seq[:i] + (g,) + seq[i + ln:], f2.ZERO)
            if acc:
                bad.append(seq)
    return bad


def functor_oracle(tables, mu, max_len):
    F = {seq: functor.apply_F(tables, seq) for seq in tables}
    vec = {seq: f.terms for seq, f in F.items()}
    bad = []
    for n in range(1, max_len + 1):
        for seq in acat.composable_sequences(n):
            acc = f2.ZERO
            if seq in F:
                acc = cones.diff_C(F[seq]).terms
            for i in range(1, n):
                if seq[:i] in F and seq[i:] in F:
                    acc ^= cones.compose_C(F[seq[i:]], F[seq[:i]]).terms
            for ln in (2, 3):
                for i in range(n - ln + 1):
                    for g in mu.get(seq[i:i + ln], ()):
                        acc ^= vec.get(seq[:i] + (g,) + seq[i + ln:], f2.ZERO)
            if acc:
                bad.append((seq, acc))
    return bad, sum(len(acat.composable_sequences(n))
                    for n in range(1, max_len + 1))


@pytest.fixture(scope="module")
def mu():
    return acat.load_tables()


def test_packaged_tables_match_the_oracle(mu):
    assert acat.verify_ainfty(mu, 5) == ainfty_oracle(mu, 5) == []
    assert functor.verify_functor(max_len=6, mu_tables=mu) == \
        functor_oracle(functor.F_TABLE, mu, 6)


def test_mu_deletions_match_the_oracle(mu):
    for key in mu:
        cut = {k: v for k, v in mu.items() if k != key}
        assert acat.verify_ainfty(cut, 5) == ainfty_oracle(cut, 5), key
        sub = ainfty_oracle(cut, 5, acat.SUB_GENERATORS)
        assert [b[1:] for b in acat.verify_subalgebra(cut)
                if b[0] == "ainfty"] == sub, key
        assert functor.verify_functor(max_len=4, mu_tables=cut) == \
            functor_oracle(functor.F_TABLE, cut, 4), key


def test_functor_mutations_match_the_oracle(mu):
    mutations = functor.table_mutations()
    assert len(mutations) == 28
    for name, mutated in mutations:
        assert functor.verify_functor(mutated, max_len=4, mu_tables=mu) == \
            functor_oracle(mutated, mu, 4), name
