import numpy as np
import pytest

from paulitomo import PowerIterationError, operator_norm, top_eigen


def matvec_of(mat):
    return lambda w: mat @ w


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def test_diagonal_operator():
    mat = np.diag([3.0, 1.0, 0.0]).astype(complex)
    values, vectors = top_eigen(matvec_of(mat), 3, 1, seed=1)
    assert values[0] == pytest.approx(3.0, abs=1e-8)
    assert abs(vectors[:, 0][0]) == pytest.approx(1.0, abs=1e-6)


def test_rank_one_operator(rng):
    w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    mat = np.outer(w, w.conj())
    values, vectors = top_eigen(matvec_of(mat), 6, 1, seed=2)
    assert values[0] == pytest.approx(np.linalg.norm(w) ** 2, rel=1e-8)
    overlap = abs(np.vdot(vectors[:, 0], w / np.linalg.norm(w)))
    assert overlap == pytest.approx(1.0, abs=1e-7)


def test_matches_dense_eigensolver(rng):
    mat = random_hermitian(rng, 8)
    values, vectors = top_eigen(matvec_of(mat), 8, 3, tol=1e-10, seed=3)
    dense_vals, dense_vecs = np.linalg.eigh(mat)
    for j in range(3):
        assert values[j] == pytest.approx(dense_vals[-1 - j], abs=1e-6)
        overlap = abs(np.vdot(vectors[:, j], dense_vecs[:, -1 - j]))
        assert overlap == pytest.approx(1.0, abs=1e-5)


def test_negative_dominant_spectrum(rng):
    # Algebraically largest eigenvalue must win even when a negative one
    # dominates in magnitude.
    mat = np.diag([-5.0, 2.0, 1.0]).astype(complex)
    values, vectors = top_eigen(matvec_of(mat), 3, 2, seed=4)
    assert values[0] == pytest.approx(2.0, abs=1e-7)
    assert values[1] == pytest.approx(1.0, abs=1e-7)


def test_zero_operator():
    values, vectors = top_eigen(matvec_of(np.zeros((4, 4))), 4, 2, seed=0)
    assert np.all(values == 0)
    assert np.allclose(vectors.conj().T @ vectors, np.eye(2))


def test_residual_contract(rng):
    mat = random_hermitian(rng, 10)
    tol = 1e-9
    values, vectors = top_eigen(matvec_of(mat), 10, 2, tol=tol, seed=5)
    radius = np.abs(np.linalg.eigvalsh(mat)).max()
    for j in range(2):
        residual = np.linalg.norm(mat @ vectors[:, j] - values[j] * vectors[:, j])
        assert residual <= tol * max(abs(values[j]), 1e-6 * radius) * 1.01


def test_nonconvergence_raises(rng):
    # Rounding alone leaves residuals far above 1e-20 of the eigenvalue.
    mat = random_hermitian(rng, 6)
    with pytest.raises(PowerIterationError) as err:
        top_eigen(matvec_of(mat), 6, 1, tol=1e-20, seed=6)
    assert err.value.residual > 0


def test_operator_norm_matches_dense(rng):
    mat = random_hermitian(rng, 9)
    dense = np.abs(np.linalg.eigvalsh(mat)).max()
    assert operator_norm(matvec_of(mat), 9, tol=1e-12, seed=7) == pytest.approx(dense, rel=1e-6)


def test_operator_norm_zero():
    assert operator_norm(matvec_of(np.zeros((3, 3))), 3) == 0.0


def test_bad_arguments():
    with pytest.raises(ValueError):
        top_eigen(matvec_of(np.eye(2)), 2, 0)
    with pytest.raises(ValueError):
        top_eigen(matvec_of(np.eye(2)), 2, 3)


# -- block Krylov properties against np.linalg.eigh ---------------------------

def counting(mat, columns):
    """Matvec of mat that records how many columns each call applies."""

    def matvec(w):
        columns.append(w.shape[1])
        return mat @ w

    return matvec


def rotated(rng, spectrum):
    """Hermitian matrix with the given spectrum in a random unitary basis."""
    d = len(spectrum)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return (q * np.asarray(spectrum, dtype=float)) @ q.conj().T


def assert_top_pairs(mat, values, vectors, tol):
    """Descending values equal to eigh's, the residual contract, orthonormal vectors."""
    dense = np.linalg.eigvalsh(mat)[::-1]
    radius = np.abs(dense).max()
    k = len(values)
    assert np.all(np.diff(values) <= 0)
    assert np.allclose(values, dense[:k], rtol=0, atol=1e-9 * max(radius, 1e-300))
    assert np.allclose(vectors.conj().T @ vectors, np.eye(k), atol=1e-10)
    floor = min(tol, max(tol * 1e-6, mat.shape[0] * np.finfo(float).eps))
    for j in range(k):
        residual = np.linalg.norm(mat @ vectors[:, j] - values[j] * vectors[:, j])
        assert residual <= max(tol * abs(values[j]), floor * radius) * 1.01


def test_random_hermitian_top_k_matches_eigh(rng):
    for dim in range(1, 49):
        mat = random_hermitian(rng, dim)
        dense_vals, dense_vecs = np.linalg.eigh(mat)
        for k in range(1, min(3, dim) + 1):
            values, vectors = top_eigen(matvec_of(mat), dim, k, tol=1e-10, seed=dim)
            assert_top_pairs(mat, values, vectors, 1e-10)
            for j in range(k):
                others = np.delete(dense_vals, -1 - j)
                if dim == 1 or np.abs(others - dense_vals[-1 - j]).min() > 1e-3:
                    overlap = abs(np.vdot(vectors[:, j], dense_vecs[:, -1 - j]))
                    assert overlap == pytest.approx(1.0, abs=1e-6), (dim, k, j)


@pytest.mark.parametrize("dim,k", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3)])
def test_block_wider_than_dimension(rng, dim, k):
    # dim < k + 2: the starting block is the whole space, so one step is exact.
    mat = random_hermitian(rng, dim)
    columns = []
    values, vectors = top_eigen(counting(mat, columns), dim, k, tol=1e-12, seed=1)
    assert columns == [dim]
    assert_top_pairs(mat, values, vectors, 1e-12)


def test_negative_dominant_random_spectrum(rng):
    spectrum = np.concatenate([[-50.0, -49.0], rng.uniform(-1.0, 3.0, 28)])
    mat = rotated(rng, spectrum)
    values, vectors = top_eigen(matvec_of(mat), 30, 3, tol=1e-10, seed=2)
    assert_top_pairs(mat, values, vectors, 1e-10)
    assert values[0] == pytest.approx(np.sort(spectrum)[-1], abs=1e-8)


@pytest.mark.parametrize("multiplicity", [2, 3])
def test_repeated_top_eigenvalue(rng, multiplicity):
    # The top eigenvectors are not unique: check values, residuals and
    # orthonormality only.
    spectrum = np.concatenate([[4.0] * multiplicity, rng.uniform(-3.0, 2.0, 40 - multiplicity)])
    mat = rotated(rng, spectrum)
    values, vectors = top_eigen(matvec_of(mat), 40, multiplicity, tol=1e-10, seed=3)
    assert np.allclose(values, 4.0, atol=1e-9)
    assert_top_pairs(mat, values, vectors, 1e-10)


@pytest.mark.parametrize(
    "k,tol", [(1, 1e-8), (2, 1e-8), (3, 1e-8), (3, 1e-10)], ids=["1", "2", "3", "3-tol1e-10"]
)
def test_rank_two_operator_stops_on_invariant_subspace(rng, k, tol):
    # The first image block spans range(M), so the basis is invariant after
    # b + 2 columns, far short of dim.  For k = 3 the third pair has
    # eigenvalue 0 and meets the absolute floor, max(tol 1e-6, dim eps) ||M||;
    # at tol 1e-10, tol 1e-6 ||M|| alone would lie below rounding.
    dim = 40
    w = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    mat = w @ np.diag([3.0, 1.0]) @ w.conj().T
    columns = []
    values, vectors = top_eigen(counting(mat, columns), dim, k, tol=tol, seed=4)
    assert sum(columns) <= min(dim, k + 2) + 2
    assert_top_pairs(mat, values, vectors, tol)


def test_invariant_subspace_breakdown_raises(rng):
    # An unreachable tolerance on a rank-2 operator: the basis stops growing
    # at the invariant subspace, well before dim, and the miss is reported.
    dim = 40
    w = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    columns = []
    with pytest.raises(PowerIterationError) as err:
        top_eigen(counting(w @ w.conj().T, columns), dim, 1, tol=1e-20, seed=5)
    assert err.value.residual > 0
    assert sum(columns) < dim


def test_operator_norm_matches_dense_max_abs(rng):
    for dim in (1, 2, 5, 17, 48):
        mat = random_hermitian(rng, dim)
        dense = np.abs(np.linalg.eigvalsh(mat)).max()
        norm = operator_norm(matvec_of(mat), dim, tol=1e-10, seed=dim)
        assert norm == pytest.approx(dense, rel=1e-9)
    mat = rotated(rng, np.concatenate([[-7.0], rng.uniform(-1.0, 6.0, 23)]))
    assert operator_norm(matvec_of(mat), 24, tol=1e-10, seed=8) == pytest.approx(7.0, rel=1e-9)


def test_non_finite_operator_raises():
    # Non-finite data raises; no NaN pair is returned.
    mat = np.eye(5)
    mat[0, 0] = np.nan
    for solve in (lambda mv: top_eigen(mv, 5, 1), lambda mv: operator_norm(mv, 5)):
        with pytest.raises((PowerIterationError, np.linalg.LinAlgError)):
            solve(matvec_of(mat))


def test_graded_spectrum_tight_tolerance(rng):
    # Magnitudes from 1 down to 1e-14: Krylov directions along the small
    # eigenvalues come out weak, and the basis must stay orthonormal to
    # full precision for the top pairs to reach 1e-12.
    for dim in (12, 16, 20, 24) * 5:
        signs = np.concatenate([[1.0, 1.0, 1.0], rng.choice([-1.0, 1.0], dim - 3)])
        spectrum = np.geomspace(1.0, 1e-14, dim) * signs
        mat = rotated(rng, spectrum)
        values, vectors = top_eigen(matvec_of(mat), dim, 3, tol=1e-12, seed=dim)
        assert_top_pairs(mat, values, vectors, 1e-12)
