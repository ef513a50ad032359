"""The private scipy kernels that ``graphs.Operator.dot`` calls, against scipy's public products,
and the BLAS ``daxpy`` wrapper that ``solver`` calls.

``scipy.sparse._sparsetools`` is not public API; if a scipy release moves
or changes ``csr_matvec`` or ``dia_matvec``, this is the test that names it.
``scipy.linalg.blas.daxpy`` is, but the solver relies on more than its
result: an update in place, no copy, and bits that do not depend on an
entry's place in the vector.
"""

import numpy as np
import pytest
import scipy.sparse as sp

DENSE = np.array([[2.0, -1.0, 0.0, 0.0],
                  [0.0, 3.0, 0.5, 0.0],
                  [-0.25, 0.0, 1.0, 4.0],
                  [0.0, 1.5, 0.0, -2.0]])
VECTOR = np.array([1.0, -2.0, 0.5, -0.0])


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_private_kernels_match_public_products(index_dtype):
    from scipy.sparse._sparsetools import csr_matvec, dia_matvec

    n = len(DENSE)
    csr = sp.csr_matrix(DENSE)
    out = np.zeros(n)
    csr_matvec(n, n, csr.indptr.astype(index_dtype), csr.indices.astype(index_dtype),
               csr.data, VECTOR, out)
    assert out.tobytes() == (csr @ VECTOR).tobytes()

    dia = sp.dia_matrix(DENSE)
    out = np.zeros(n)
    dia_matvec(n, n, len(dia.offsets), dia.data.shape[1], dia.offsets.astype(index_dtype),
               dia.data, VECTOR, out)
    assert out.tobytes() == (dia @ VECTOR).tobytes()


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_dia_kernel_on_a_strict_band_of_lane_stride_offsets(side):
    # the layout of L_r (diagonals -d N) and of L_r' (+d N) without the main
    # diagonal: 2 lanes of 3 stations x 4 instants, rows that store nothing,
    # and exact zeros of both signs in the vector
    from scipy.sparse._sparsetools import dia_matvec

    stations, n = 3, 2 * 3 * 4
    offsets = stations * np.arange(1, 3) * (-1 if side == "lower" else 1)
    offsets = np.sort(offsets).astype(np.int32)
    rng = np.random.default_rng(0)
    data = rng.uniform(-1.0, 1.0, (len(offsets), n))
    for k, o in enumerate(offsets):  # padding where a diagonal leaves the matrix
        data[k, : max(o, 0)] = 0.0
        data[k, n + min(o, 0):] = 0.0
    v = rng.standard_normal(n)
    v[::5], v[2::7] = -0.0, 0.0
    out = np.zeros(n)
    dia_matvec(n, n, len(offsets), n, offsets, data, v, out)
    dia = sp.dia_matrix((data, offsets), shape=(n, n))
    assert out.tobytes() == (dia @ v).tobytes()
    assert out.tobytes() == (dia.tocsr() @ v).tobytes()
    assert not out[: stations if side == "lower" else 0].any()


class TestDaxpy:
    """``scipy.linalg.blas.daxpy``, y <- a x + y, which ``solver`` runs for its vector updates."""

    def test_updates_y_in_place_and_returns_it(self):
        from scipy.linalg.blas import daxpy

        x, y = VECTOR.copy(), np.array([0.5, 0.25, -1.0, 2.0])
        want = [0.5 + 0.3 * 1.0, 0.25 + 0.3 * -2.0, -1.0 + 0.3 * 0.5, 2.0 + 0.3 * -0.0]
        got = daxpy(x, y, a=0.3)
        assert got is y
        np.testing.assert_allclose(y, want, rtol=1e-15)
        assert x.tobytes() == VECTOR.tobytes()

    def test_allocates_nothing_on_a_flat_view_of_a_stack(self):
        # the polynomial build's v and step: contiguous (C, k, k) stacks
        import tracemalloc

        from scipy.linalg.blas import daxpy

        rng = np.random.default_rng(0)
        step, v = rng.standard_normal((2, 64, 18, 18))
        daxpy(step.reshape(-1), v.reshape(-1), a=-0.25)  # warm-up
        want = v.copy()
        daxpy(step.reshape(-1), want.reshape(-1), a=-0.25)
        tracemalloc.start()
        try:
            out = daxpy(step.reshape(-1), v.reshape(-1), a=-0.25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(out, v)
        assert v.tobytes() == want.tobytes()
        assert peak < 1024  # at most the wrapper's views, no copy of 165 kB

    def test_an_entry_has_the_same_bits_at_any_offset(self):
        # a lane's entries keep their bits when the lane sits inside a stack
        from scipy.linalg.blas import daxpy

        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, 97))
        alone = daxpy(x, y.copy(), a=0.7)
        for before, after in [(1, 0), (3, 5), (8, 13), (64, 7)]:
            xs = np.concatenate([rng.standard_normal(before), x, rng.standard_normal(after)])
            ys = np.concatenate([rng.standard_normal(before), y, rng.standard_normal(after)])
            daxpy(xs, ys, a=0.7)
            assert ys[before : before + len(x)].tobytes() == alone.tobytes()

    def test_a_zero_multiple_leaves_y_unchanged(self):
        # even where x is not finite, where numpy's 0 * inf makes NaN
        from scipy.linalg.blas import daxpy

        x = np.array([np.inf, -np.inf, np.nan, 1.0])
        y = np.array([1.0, -2.0, 3.0, -0.0])
        want = y.tobytes()
        daxpy(x, y, a=0.0)
        assert y.tobytes() == want
