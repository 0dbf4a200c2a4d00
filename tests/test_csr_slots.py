"""Per-element entries written straight into CSR at the slots of the slot map."""

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdwg.assembly import _slot_map, _summed_csr

from conftest import assert_csr_bitwise_equal, owned_size

#: Values whose sums cancel, round differently in another order, or are
#: zeros of either sign.
VALUES = (0.0, -0.0, 1.0, -1.0, 0.1, 0.2, -0.3, 1e16, -1e16, 5e-324, -5e-324)


@st.composite
def element_entries(draw):
    """A random element map, local pairs and per-element values.

    Returns ``(ids, pairs, values, n_rows)``: element ``e`` reads the
    distinct DOFs ``ids[e]``, and ``values[e, i]`` belongs at
    ``(ids[e, a[i]], ids[e, b[i]])`` for ``(a, b) = pairs``.  Few DOFs
    serve many elements, so rows gather many entries and entries gather
    several contributions; DOFs no element reads and extra trailing
    rows leave rows empty.
    """
    nloc = draw(st.integers(1, 6))
    n = draw(st.integers(nloc, 2 * nloc + 2))
    nt = draw(st.integers(1, 16))
    ids = np.array([draw(st.permutations(range(n)))[:nloc] for _ in range(nt)])
    mask = draw(st.lists(st.booleans(), min_size=nloc * nloc, max_size=nloc * nloc))
    pairs = np.nonzero(np.reshape(mask, (nloc, nloc)))
    size = nt * pairs[0].size
    values = draw(st.lists(st.sampled_from(VALUES), min_size=size, max_size=size))
    n_rows = n + draw(st.integers(0, 2))
    return ids, pairs, np.reshape(values, (nt, -1)), n_rows


def _example():
    """12 elements of 3 DOFs out of 4, every local pair, 6 rows."""
    ids = np.array([np.roll(np.arange(4), s)[:3] for s in range(12)])
    pairs = np.nonzero(np.ones((3, 3), dtype=bool))
    values = np.resize(VALUES, (12, 9))
    return ids, pairs, values, 6


def coo_csr(ids, pairs, values, n_rows):
    a, b = pairs
    coo = sp.coo_matrix((values.ravel(), (ids[:, a].ravel(), ids[:, b].ravel())),
                        shape=(n_rows, n_rows))
    return coo.tocsr()


def test_example_has_every_hard_case():
    # The explicit example of the property test holds rows of more than
    # 16 raw entries (where std::sort stops using insertion sort alone),
    # entries with 3 or more contributions, empty rows, signed zeros and
    # sums that depend on their order.
    ids, pairs, values, n_rows = _example()
    a, b = pairs
    rows, cols = ids[:, a].ravel(), ids[:, b].ravel()
    assert np.bincount(rows).max() > 16
    assert np.unique(rows * n_rows + cols, return_counts=True)[1].min() >= 3
    assert np.bincount(rows, minlength=n_rows).min() == 0
    assert np.any(np.signbit(values) & (values == 0.0))
    entry = rows * n_rows + cols
    summed = {}
    for sign in (1, -1):  # each entry summed in COO order, then reversed
        for key, v in list(zip(entry, values.ravel()))[::sign]:
            summed[key, sign] = summed.get((key, sign), 0.0) + v
    assert any(summed[key, 1] != summed[key, -1] for key in set(entry))
    assert any(summed[key, 1] == 0.0 for key in set(entry))


@settings(max_examples=300, deadline=None, database=None)
@given(element_entries())
@example(_example())
def test_slot_map_reproduces_coo_to_csr(case):
    # Entries written at the slots of _slot_map and summed in place hold
    # the bits of scipy's COO-to-CSR conversion without its exact zeros,
    # in arrays of exactly nnz entries.
    ids, pairs, values, n_rows = case
    a, b = pairs
    indptr, base, within = _slot_map(ids, pairs, n_rows)
    want = coo_csr(*case)
    want.eliminate_zeros()
    slots = base[:, a] + within
    data = np.empty(values.size)
    indices = np.empty(values.size, dtype=indptr.dtype)
    data[slots] = values
    indices[slots] = ids[:, b]
    got = _summed_csr(data, indices, indptr, (n_rows, n_rows))
    assert_csr_bitwise_equal(got, want)
    assert owned_size(got.data) == owned_size(got.indices) == got.nnz

