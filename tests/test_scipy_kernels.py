"""The private scipy kernels that ``graphs.Operator.dot`` calls, against scipy's public products.

``scipy.sparse._sparsetools`` is not public API; if a scipy release moves
or changes ``csr_matvec`` or ``dia_matvec``, this is the test that names it.
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
