"""The private scipy kernels that ``solver.Fold.dot`` calls, against scipy's public products.

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
