import numpy as np
import pytest

from paulitomo import (
    PowerIterationError,
    SensingMap,
    SyntheticProblem,
    generate_synthetic,
    observe,
    operator_norm,
    spectral_init,
    top_eigen,
)
from paulitomo.cli import build_state, monomial_count
from paulitomo.measurements import sample_codes
from paulitomo.seeding import substream


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


@pytest.mark.parametrize("solver", ["top_eigen", "operator_norm"])
@pytest.mark.parametrize(
    "dim,tol,message",
    [(4, np.nan, "got nan"), (4, np.inf, "got inf"), (4, 0.0, "got 0.0"), (4, -1e-9, "got -1e-09"),
     (0, 1e-9, "dimension.* 0")],
    ids=["tol-nan", "tol-inf", "tol-0", "tol-negative", "dim-0"],
)
def test_bad_tolerance_or_dimension_names_the_value(solver, dim, tol, message):
    # A NaN or infinite tol would accept any pair; a tol <= 0 none.
    solve = {"top_eigen": lambda mv: top_eigen(mv, dim, 1, tol=tol),
             "operator_norm": lambda mv: operator_norm(mv, dim, tol=tol)}[solver]
    with pytest.raises(ValueError, match=message):
        solve(matvec_of(np.eye(4)))


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
    # Small dimensions: a block of width dim (dim == k) is the whole space,
    # so one step is exact; otherwise the basis never passes dim columns.
    mat = random_hermitian(rng, dim)
    columns = []
    values, vectors = top_eigen(counting(mat, columns), dim, k, tol=1e-12, seed=1)
    if dim == k:
        assert columns == [dim]
    else:
        assert sum(columns) <= dim
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


# -- the library's own operators -----------------------------------------------

def pauli_operators(n, seed):
    """Dense A^dagger(y) of exact data and A^dagger of the auto step's residual."""
    state = build_state("random", n, 20, seed)
    smap = SensingMap(n, sample_codes(n, monomial_count(30, n), substream(seed, "monomials")))
    y = observe(state, smap, seed=seed).values
    residual = smap.forward_factored(spectral_init(smap, y, 1, seed=seed)) - y
    eye = np.eye(smap.d)
    return smap.adjoint_operator(y)(eye), smap.adjoint_operator(residual)(eye), 1


def gaussian_operators(seed):
    smap, y, _ = generate_synthetic(SyntheticProblem(d=16, r=2, c=3, seed=seed))
    residual = smap.forward_factored(spectral_init(smap, y, 2, seed=seed)) - y
    eye = np.eye(16)
    return smap.adjoint_operator(y)(eye), smap.adjoint_operator(residual)(eye), 2


@pytest.mark.parametrize("case", [3, 4, 5, 6, 7, "gaussian-16"])
def test_library_operators_match_eigh(case):
    # Spectral init's top_eigen (tol 1e-9) and the auto step's operator_norm
    # (tol 1e-8) on the operators they meet, against dense eigh.
    for seed in (0, 1):
        init, step, r = gaussian_operators(seed) if case == "gaussian-16" else pauli_operators(case, seed)
        dim = init.shape[0]
        values, vectors = top_eigen(matvec_of(init), dim, r, tol=1e-9, seed=seed)
        assert_top_pairs(init, values, vectors, 1e-9)
        assert np.allclose(values, np.linalg.eigvalsh(init)[::-1][:r], rtol=1e-12, atol=0)
        norm = operator_norm(matvec_of(step), dim, tol=1e-8)
        assert norm == pytest.approx(np.abs(np.linalg.eigvalsh(step)).max(), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectral_init_operator_uses_few_single_columns(seed):
    # One pair applies one column per call; the n=7 spectral-init operator
    # of the pauli-exact-n7 setting needs about 14 of them at tol 1e-9.
    init, _, _ = pauli_operators(7, seed)
    columns = []
    values, vectors = top_eigen(counting(init, columns), 128, 1, tol=1e-9, seed=seed)
    assert set(columns) == {1}
    assert sum(columns) <= 20
    assert_top_pairs(init, values, vectors, 1e-9)


@pytest.mark.parametrize("k", [2, 3])
def test_block_of_width_k_small_gap(rng, k):
    # lambda_k - lambda_{k+1} = 1e-3: each call applies a block of k columns
    # (the last one capped at dim), and the k-th pair is still the k-th.
    dim = 60
    top = np.linspace(2.0, 1.5, k)
    spectrum = np.concatenate([top, [top[-1] - 1e-3], rng.uniform(-1.0, 1.0, dim - k - 1)])
    mat = rotated(rng, spectrum)
    columns = []
    values, vectors = top_eigen(counting(mat, columns), dim, k, tol=1e-10, seed=k)
    assert set(columns[:-1]) == {k} and sum(columns) <= dim
    assert_top_pairs(mat, values, vectors, 1e-10)
    dense_vals, dense_vecs = np.linalg.eigh(mat)
    for j in range(k):
        assert abs(np.vdot(vectors[:, j], dense_vecs[:, -1 - j])) == pytest.approx(1.0, abs=1e-6)
