import itertools

from hypothesis import given, strategies as st

from khtangle import f2

keys = st.integers(min_value=0, max_value=30)
vecs = st.frozensets(keys, max_size=12)


def test_rank_examples():
    ident = [frozenset([i]) for i in range(3)]
    assert f2.rank(ident) == 3
    assert f2.rank([frozenset(), frozenset()]) == 0
    assert f2.rank([frozenset("ab"), frozenset("ab")]) == 1


def _brute_kernel_dim(rows, ncols):
    dim = 0
    for combo in itertools.product([0, 1], repeat=ncols):
        acc = frozenset()
        for i, c in enumerate(combo):
            if c:
                acc = acc ^ rows[i]
        if not acc:
            dim += 1
    # kernel size is 2^dim_ker
    import math
    return int(math.log2(dim))


@given(st.lists(st.frozensets(st.integers(0, 7), max_size=5),
                min_size=1, max_size=8))
def test_rank_nullity(rows):
    ncols = len(rows)
    assert f2.rank(rows) + _brute_kernel_dim(rows, ncols) == ncols


@given(st.lists(vecs, min_size=1, max_size=8))
def test_nullspace_members_vanish(rows):
    for combo in f2.nullspace(rows):
        acc = frozenset()
        for i in combo:
            acc = acc ^ rows[i]
        assert acc == frozenset()
        assert combo
