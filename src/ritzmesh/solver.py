"""SPD sparse solves, deliberately outside the differentiation path.

Because the Ritz energy is stationary in the coefficients at the
discrete solution, callers treat the returned coefficients as
constants; nothing here is ever differentiated.

A system of band width kd > 1 (a 2D tensor mesh's) is factored by
LAPACK's banded Cholesky on its lower band and one BLAS thread, from a
band plan (scatter and O(nnz) symmetry check) kept with an assembled
system's pattern; a band of more than MAX_BAND_BYTES raises SolverError
before it is allocated.  Tridiagonal (1D) systems keep splu: parametric
arctan runs amplify a last-bit change of c into their recorded final
errors, and its COLAMD order permutes even a tridiagonal matrix.  G 1D
systems on one pattern (a single system is G = 1) take one splu of their
block diagonal, bitwise one splu each, on matrices copied from templates
cached per pattern; a row that the block cannot take gets its own splu.
A zero load is solved like any other.  Each solve's normwise backward
error ||B c - ell|| / (||B||_F ||c|| + ||ell||), ||B||_F over the stored
entries, must be at most RESIDUAL_TOL (Rigal & Gaches 1967; Higham,
Accuracy and Stability of Numerical Algorithms, ch. 7), checked once per
system by _reports on every path.  These factorizations are backward
stable on SPD systems, so nothing is refined; ||B c - ell|| <=
RESIDUAL_TOL ||ell||, which even the rounded exact solution misses on
graded meshes, is not asked.
"""

import copy
import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

RESIDUAL_TOL = 1e-10
SYMMETRY_TOL = 1e-13
# the largest band, (kd+1)*n doubles, that a solve allocates
MAX_BAND_BYTES = 2**30


@dataclass(frozen=True)
class SolveReport:
    c: np.ndarray
    residual_norm: float
    iterations: int
    method: str
    Bc: np.ndarray    # B c as the backward-error check formed it


def _plan(indptr, indices):
    """Of a canonical CSR pattern: kd; the stored lower entries and their
    flat positions in the lower band ab[i - j, j] = B[i, j], (kd+1, n) in
    Fortran order for LAPACK to factor in place; the stored entry at
    (j, i) of each at (i, j), or -1.  Read-only."""
    n, cols = indptr.size - 1, indices.astype(np.int64)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    kd = int(np.max(cols - rows, initial=0))
    lower = np.flatnonzero(cols <= rows)
    pos = rows[lower] - cols[lower] + (kd + 1) * cols[lower]
    # canonical CSR stores its entries in increasing row-major key order
    keys, mirror_keys = rows * n + cols, cols * n + rows
    perm = np.minimum(np.searchsorted(keys, mirror_keys), max(keys.size - 1, 0))
    perm = np.where(keys[perm] == mirror_keys, perm, -1)
    for a in (lower, pos, perm):
        a.flags.writeable = False
    return kd, lower, pos, perm


def solve_spd(system) -> SolveReport:
    """Solve B c = ell for an SPD system to normwise backward error 1e-10.

    Banded Cholesky when B's band width kd exceeds 1, else
    solve_splu_batch with B as a block of one (B is symmetric, so its CSR
    arrays are its CSC arrays); the report names the path
    ('banded-cholesky' or 'splu') and counts no iterations.  Raises
    SolverError, a zero ell included, if the band exceeds MAX_BAND_BYTES,
    B is not symmetric or not positive definite, or c misses the contract.
    """
    B, ell = system.B, system.ell
    n = ell.size
    _check_load(ell)
    B = B.tocsr()
    if not B.has_canonical_format:
        B = B.copy()
        B.sum_duplicates()
    pattern = getattr(system, "pattern", None)
    if (pattern is not None and B.indptr is pattern.template.indptr
            and B.indices is pattern.template.indices):
        pattern.plan = pattern.plan or _plan(B.indptr, B.indices)
        kd, lower, pos, perm = pattern.plan
    else:
        kd, lower, pos, perm = _plan(B.indptr, B.indices)
    band_bytes = (kd + 1) * n * 8
    if band_bytes > MAX_BAND_BYTES:
        raise SolverError(f"band of {band_bytes} bytes exceeds MAX_BAND_BYTES = {MAX_BAND_BYTES}")
    # the band reads only the lower triangle, so this check guards it
    mirror = np.where(perm < 0, 0.0, B.data[perm])
    if np.abs(B.data - mirror).max(initial=0.0) > SYMMETRY_TOL * max(
            1.0, np.abs(B.data).max(initial=0.0)):
        raise SolverError("stiffness matrix is not symmetric")

    if kd <= 1:
        [result] = solve_splu_batch(B.indptr, B.indices, B.data[None], ell[None])
    else:
        ab = np.zeros((kd + 1) * n)
        ab[pos] = B.data[lower]
        ab = ab.reshape((kd + 1, n), order="F")
        pbtrf, pbtrs = _banded_cholesky()
        with _one_blas_thread():
            factor, info = pbtrf(ab, lower=1, overwrite_ab=1)
            if info != 0:
                raise SolverError(f"banded Cholesky failed: minor {info} is not positive definite")
            # a wrong solve from dpbtrs misses the backward-error check
            c = pbtrs(factor, ell, lower=1)[0]
            [result] = _reports(B.data[None], c[None], (B @ c)[None], ell[None], "banded-cholesky")
    if isinstance(result, SolverError):
        raise result
    return result


@lru_cache(maxsize=1)
def _banded_cholesky():
    """LAPACK's dpbtrf and dpbtrs."""
    return sla.get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)


def solve_splu_batch(indptr, indices, data, ells):
    """Solve A_g c = ells[g] for the G matrices A_g on one symmetric
    canonical int32 CSC pattern (indptr, indices) with values data[g]
    and the rows of (G, n) loads ells, bitwise one ``splu`` each, from
    one ``splu`` of their block diagonal.  Returns per matrix its
    SolveReport or SolverError.  A matrix with a non-finite load, and all
    of them if the block factor fails or pivots off the diagonal, goes
    through _solve_one."""
    ells = np.asarray(ells, dtype=float)
    single, *block = _block_pattern(np.asarray(indptr, dtype=np.int32).tobytes(),
                                    np.asarray(indices, dtype=np.int32).tobytes(), len(data))
    finite = np.isfinite(ells).all(axis=1)
    rhs = np.where(finite[:, None], ells, 0.0)
    solved = _block_solve(block, data, rhs) if finite.any() else None
    return [solved[g] if solved and finite[g] else _solve_one(with_values(single, value), ell)
            for g, (value, ell) in enumerate(zip(data, ells))]


def _solve_one(A, ell):
    """A c = ell for one canonical CSC matrix A known to be symmetric, from
    a fresh ``splu``: its SolveReport, or its SolverError."""
    try:
        _check_load(ell)
        c = spla.splu(A).solve(ell)
    except RuntimeError as exc:
        return SolverError(f"direct factorization failed: {exc}")
    except SolverError as exc:
        return exc
    return _reports(A.data[None], c[None], (A @ c)[None], ell[None], "splu")[0]


def _block_solve(pattern, data, ells):
    """_reports of the rows of (G, n) loads ells, from one natural-order
    ``splu`` of the blocks on _block_pattern's block part; None if it
    fails or pivots off the diagonal (single factors may differ)."""
    block, permuted, take, gather, scatter = pattern
    values = data.ravel()
    try:
        # splu's other defaults stay: they shape the supernodes, and so the arithmetic
        lu = spla.splu(with_values(permuted, values[take]), permc_spec="NATURAL")
    except RuntimeError:
        return None
    natural = np.arange(gather.size)
    if not (np.array_equal(lu.perm_r, natural) and np.array_equal(lu.perm_c, natural)):
        return None
    c = lu.solve(ells.ravel()[gather])[scatter]
    c, Bc = c.reshape(ells.shape), (with_values(block, values) @ c).reshape(ells.shape)
    return _reports(values.reshape(len(c), -1), c, Bc, ells, "splu")


def template(kind, indptr, indices):
    """A canonical sparse matrix of kind (sp.csr_matrix or sp.csc_matrix)
    on (indptr, indices) made read-only int32 (contiguous int32 arrays are
    kept as given), whose values are read-only zeros of stride 0, which
    hold no memory; with_values gives it values."""
    indptr, indices = (np.ascontiguousarray(a, dtype=np.int32) for a in (indptr, indices))
    A = kind((np.broadcast_to(0.0, indices.size), indices, indptr), shape=(indptr.size - 1,) * 2)
    A.indptr, A.indices = indptr, indices    # not the constructor's views
    A.has_canonical_format = True
    for a in (indptr, indices):
        a.flags.writeable = False
    return A


def with_values(template, data):
    """template's matrix with values data: a shallow copy, which leaves
    the template as it was and skips scipy's format check."""
    A = copy.copy(template)
    A.data = data
    return A


@lru_cache(maxsize=16)
def _block_pattern(indptr_bytes, indices_bytes, G):
    """For G matrices on one symmetric int32 CSC pattern: the CSC template
    of the pattern, of its block diagonal and of the blocks permuted into
    the column order p that ``splu`` picks for the pattern (block g holds
    A_g[q][:, q], q = argsort(p)); the order take of the raveled (G, nnz)
    values in the last; gather and scatter, which move a vector into and
    out of that order.  COLAMD and the etree postorder read only the
    pattern, so any SPD matrix on it finds p.
    """
    indptr, indices = (np.frombuffer(b, dtype=np.int32) for b in (indptr_bytes, indices_bytes))
    single = template(sp.csc_matrix, indptr, indices)
    n, nnz = indptr.size - 1, indices.size
    cols = np.repeat(np.arange(n), np.diff(indptr))
    # diagonally dominant: each column's entry count on the diagonal, -1 off it
    dominant = np.where(indices == cols, np.diff(indptr)[cols], -1.0)
    p = spla.splu(with_values(single, dominant)).perm_c
    rows, cols = p[indices], p[cols]
    take = np.lexsort((rows, cols))
    shift = np.arange(G)[:, None]

    def blocks(indptr, indices):
        indptr = np.append((indptr[:-1] + nnz * shift).ravel(), G * nnz)
        return template(sp.csc_matrix, indptr, (indices + n * shift).ravel())

    orders = [(a + k * shift).ravel().astype(np.int32)
              for a, k in ((take, nnz), (np.argsort(p), n), (p, n))]
    for a in orders:
        a.flags.writeable = False
    return (single, blocks(indptr, indices),
            blocks(np.append(0, np.cumsum(np.bincount(cols, minlength=n))), rows[take]), *orders)


def _reports(values, c, Bc, ells, method):
    """Per row g of (G, .) arrays, the report of c[g] for B_g c = ells[g],
    B_g of stored values values[g] and B_g c[g] = Bc[g], if c[g] meets
    the backward-error contract, else its SolverError."""
    residual, B_norm, c_norm, ell_norm = (_norm(a) for a in (Bc - ells, values, c, ells))
    out = []
    for g in range(len(c)):
        try:
            _check_residual(float(residual[g]), B_norm[g], c_norm[g], ell_norm[g])
            out.append(SolveReport(c=c[g], residual_norm=float(residual[g]), iterations=0,
                                   method=method, Bc=Bc[g]))
        except SolverError as exc:
            out.append(exc)
    return out


def _thread_setter(libs):
    """openblas_set_num_threads_local (it returns the calling thread's
    previous count) of the libscipy_openblas library in directory libs,
    or None if the library or the symbol is missing."""
    try:
        setter = ctypes.CDLL(str(next(Path(libs).glob("libscipy_openblas*.so"))))
        setter = setter.openblas_set_num_threads_local
    except (StopIteration, OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


@lru_cache(maxsize=1)
def _scipy_blas_threads():
    return _thread_setter(Path(scipy.__file__).parent.parent / "scipy.libs")


@contextmanager
def _one_blas_thread():
    """scipy's BLAS on one thread for the calling thread, then its count again."""
    setter = _scipy_blas_threads()
    previous = setter(1) if setter else None
    try:
        yield
    finally:
        if previous is not None:
            setter(previous)


def _check_load(ell):
    if not np.isfinite(ell).all():
        raise SolverError("load vector contains non-finite entries")


def _norm(a):
    """||a||_2 of a vector, or of each row of a (G, n) array, bitwise as
    np.linalg.norm takes a vector: one contiguous ddot each, which is what
    matmul's row-by-column product runs."""
    a = np.ascontiguousarray(a)
    return np.sqrt((a[..., None, :] @ a[..., :, None])[..., 0, 0])


def _check_residual(residual, B_norm, c_norm, ell_norm):
    """The backward-error contract; a non-finite bound (c overflowed) misses it."""
    bound = RESIDUAL_TOL * (B_norm * c_norm + ell_norm)
    if not (np.isfinite(bound) and residual <= bound):
        raise SolverError(
            f"residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} * (|B| |c| + |ell|)",
            residual=residual,
        )
