"""SPD sparse solves, deliberately outside the differentiation path.

Because the Ritz energy is stationary in the coefficients at the
discrete solution, callers treat the returned coefficients as
constants; nothing here is ever differentiated.

Every system of band width kd > 1 (a 2D tensor mesh's, of band width
Nx+1 in free order) is factored by LAPACK's banded Cholesky in lower
band storage on one BLAS thread: 0.63-0.68 times the time of upper
storage, and about half that of two threads (lshape N=128, a 2-core x86
host).  Its band scatter and O(nnz) symmetry check are planned once per
pattern and kept with an assembled system's cached pattern.  A band of
more than MAX_BAND_BYTES raises SolverError before it is allocated.
Tridiagonal (1D) systems keep splu: parametric arctan runs amplify a
last-bit change of c into the final errors recorded against it, and its
COLAMD order permutes even a tridiagonal matrix.  A batch of 1D systems
on one pattern takes one splu of their block diagonal, bitwise one splu
each.  Each solve's normwise backward error ||B c - ell|| /
(||B||_F ||c|| + ||ell||), ||B||_F over the stored entries, must be at
most RESIDUAL_TOL (Rigal & Gaches 1967; Higham, Accuracy and Stability
of Numerical Algorithms, ch. 7).  These factorizations are backward
stable on SPD systems, so nothing is refined; ||B c - ell|| <=
RESIDUAL_TOL ||ell||, which even the rounded exact solution misses on
graded meshes, is not asked.
"""

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
    Bc: np.ndarray | None = None    # B c as a direct solve's check formed it


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

    Banded Cholesky when B's band width kd exceeds 1, else ``splu``; the
    report names the path ('banded-cholesky' or 'splu') and counts no
    iterations.  Raises SolverError if the band would exceed
    MAX_BAND_BYTES, B is not symmetric or not positive definite, or the
    solve misses the contract.
    """
    B, ell = system.B, system.ell
    n = ell.size
    _check_load(ell)
    B = B.tocsr()
    if not B.has_canonical_format:
        B = B.copy()
        B.sum_duplicates()
    pattern = getattr(system, "pattern", None)
    if pattern is not None and B.indptr is pattern.indptr and B.indices is pattern.indices:
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

    method = "banded-cholesky" if kd > 1 else "splu"
    ell_norm = np.linalg.norm(ell)
    if ell_norm == 0.0:
        return SolveReport(c=np.zeros(n), residual_norm=0.0, iterations=0, method=method)
    if method == "splu":
        return solve_splu(B.tocsc(), ell)

    ab = np.zeros((kd + 1) * n)
    ab[pos] = B.data[lower]
    ab = ab.reshape((kd + 1, n), order="F")
    pbtrf, pbtrs = _banded_cholesky()
    with _one_blas_thread():
        factor, info = pbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0:
            raise SolverError(f"banded Cholesky failed: minor {info} is not positive definite")
        # a wrong solve from dpbtrs misses the backward-error check
        return _single(lambda b: pbtrs(factor, b, lower=1)[0], B, ell, ell_norm, method)


@lru_cache(maxsize=1)
def _banded_cholesky():
    """LAPACK's dpbtrf and dpbtrs."""
    return sla.get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)


def solve_splu(A, ell) -> SolveReport:
    """solve_spd's 'splu' path for a canonical CSC matrix A known to be
    symmetric (an assembled 1D stiffness matrix), without its checks."""
    _check_load(ell)
    ell_norm = np.linalg.norm(ell)
    if ell_norm == 0.0:
        return SolveReport(c=np.zeros(ell.size), residual_norm=0.0, iterations=0,
                           method="splu")
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise SolverError(f"direct factorization failed: {exc}") from exc
    return _single(lu.solve, A, ell, ell_norm, "splu")


def solve_splu_batch(indptr, indices, data, ells):
    """solve_splu(A_g, ells[g]) for the G matrices A_g on one symmetric
    canonical int32 CSC pattern (indptr, indices) with values data[g],
    bitwise, from one ``splu`` of their block diagonal.

    Returns per matrix (SolveReport, A_g c), or (the SolverError that
    solve_splu raises, None).  Matrices with zero or non-finite loads,
    and all of them if the block factor fails or pivots off the
    diagonal, go through solve_splu one at a time.
    """
    n = len(indptr) - 1
    norms = np.array([np.linalg.norm(ell) for ell in ells])
    blocked = (norms > 0.0) & (norms < np.inf)
    factor = _block_factor(indptr, indices, data) if blocked.any() else None
    if factor is not None:
        solved = _checked(*factor, np.concatenate(
            [ell if ok else np.zeros(n) for ell, ok in zip(ells, blocked)]), norms, "splu")
    out = []
    for g, ell in enumerate(ells):
        if factor is not None and blocked[g]:
            out.append(solved[g])
            continue
        A = _csc(data[g], indices, indptr)
        try:
            report = solve_splu(A, ell)
            out.append((report, A @ report.c))
        except SolverError as exc:
            out.append((exc, None))
    return out


def _block_factor(indptr, indices, data):
    """(solve, B) for the block diagonal B of the matrices with values
    data[g]: solve runs one natural-order ``splu`` of the blocks, each
    permuted into the column order ``splu`` picks for the pattern.  None
    if that factor fails or pivots off the diagonal, where the single
    factors' arithmetic may differ."""
    b_indptr, b_indices, p_indptr, p_indices, take, gather, scatter = _block_pattern(
        np.asarray(indptr, dtype=np.int32).tobytes(),
        np.asarray(indices, dtype=np.int32).tobytes(), len(data))
    values = data.ravel()
    try:
        # splu's other defaults stay: they shape the supernodes, and so the arithmetic
        lu = spla.splu(_csc(values[take], p_indices, p_indptr), permc_spec="NATURAL")
    except RuntimeError:
        return None
    natural = np.arange(gather.size)
    if not (np.array_equal(lu.perm_r, natural) and np.array_equal(lu.perm_c, natural)):
        return None
    return (lambda b: lu.solve(b[gather])[scatter]), _csc(values, b_indices, b_indptr)


def _csc(data, indices, indptr):
    A = sp.csc_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2)
    A.has_canonical_format = True
    return A


@lru_cache(maxsize=16)
def _block_pattern(indptr_bytes, indices_bytes, G):
    """Index arrays for the block diagonal of G matrices on one symmetric
    int32 CSC pattern: its (indptr, indices); those of the blocks
    permuted into the column order p that ``splu`` picks for the pattern
    (block g holds A_g[q][:, q], q = argsort(p)) and the order take of
    the raveled (G, nnz) values in them; gather and scatter, which move a
    vector into and out of that order.  COLAMD and the etree postorder
    read only the pattern, so any SPD matrix on it finds p.
    """
    indptr = np.frombuffer(indptr_bytes, dtype=np.int32)
    indices = np.frombuffer(indices_bytes, dtype=np.int32)
    n, nnz = indptr.size - 1, indices.size
    cols = np.repeat(np.arange(n), np.diff(indptr))
    # diagonally dominant: each column's entry count on the diagonal, -1 off it
    p = spla.splu(_csc(np.where(indices == cols, np.diff(indptr)[cols], -1.0), indices,
                       indptr)).perm_c
    rows, cols = p[indices], p[cols]
    take = np.lexsort((rows, cols))
    shift = np.arange(G)[:, None]

    def blocks(indptr, indices):
        return (np.append((indptr[:-1] + nnz * shift).ravel(), G * nnz),
                (indices + n * shift).ravel())

    out = (*blocks(indptr, indices),
           *blocks(np.append(0, np.cumsum(np.bincount(cols, minlength=n))), rows[take]),
           (take + nnz * shift).ravel(), (np.argsort(p) + n * shift).ravel(),
           (p + n * shift).ravel())
    out = tuple(np.ascontiguousarray(a, dtype=np.int32) for a in out)
    for a in out:
        a.flags.writeable = False
    return out


def _single(solve, B, ell, ell_norm, method) -> SolveReport:
    ((report, _),) = _checked(solve, B, ell, [ell_norm], method)
    if isinstance(report, SolverError):
        raise report
    return report


def _checked(solve, B, ell, ell_norms, method):
    """c = solve(ell) with a factor of the block diagonal B of
    len(ell_norms) blocks on one pattern, each block's backward error
    checked once against the values of that block.  Returns per block
    (SolveReport, B c), or (SolverError, None) if it misses the contract."""
    G = len(ell_norms)
    n = ell.size // G
    c = solve(ell)
    Bc = B @ c
    r = Bc - ell
    out = []
    for g, (values, ell_norm) in enumerate(zip(B.data.reshape(G, -1), ell_norms)):
        b = slice(g * n, (g + 1) * n)
        # each block's norms on its own 1-D array, as a single solve takes them
        c_g, residual = c[b].copy(), float(np.linalg.norm(r[b].copy()))
        try:
            _check_residual(residual, np.linalg.norm(values), np.linalg.norm(c_g), ell_norm)
            report = SolveReport(c=c_g, residual_norm=residual, iterations=0,
                                 method=method, Bc=Bc[b].copy())
            out.append((report, report.Bc))
        except SolverError as exc:
            out.append((exc, None))
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


def _check_residual(residual, B_norm, c_norm, ell_norm):
    """The backward-error contract; a non-finite bound (c overflowed) misses it."""
    bound = RESIDUAL_TOL * (B_norm * c_norm + ell_norm)
    if not (np.isfinite(bound) and residual <= bound):
        raise SolverError(
            f"residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} * (|B| |c| + |ell|)",
            residual=residual,
        )
