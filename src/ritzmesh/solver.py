"""SPD sparse solves, deliberately outside the differentiation path.

Because the Ritz energy is stationary in the coefficients at the
discrete solution, callers treat the returned coefficients as
constants; nothing here is ever differentiated.

The direct method factors a banded matrix with LAPACK's banded
Cholesky (``cholesky_banded``) in lower band storage, which scipy's
OpenBLAS ``dpbtrf`` factors in 0.63-0.68 times the time of upper
storage (lshape N=128, kd = 128, one thread of a 2-core x86 host).
Tensor-product meshes give every 2D system a fixed band of width Nx+1
in free-index order, so this is the path of every 2D system; it runs
scipy's OpenBLAS on one thread, about twice as fast on these bands as
two.  Tridiagonal (1D) systems and matrices whose band would be far
larger than their nonzeros keep the general sparse LU (``splu``).  1D
stays on ``splu`` on purpose: the parametric arctan runs amplify
roundoff, and a banded 1D solve changes the coefficients in the last
bit and, through training, the final errors recorded against this LU
(whose COLAMD ordering permutes even a tridiagonal matrix, so no Thomas
sweep reproduces it).  A batch of 1D systems on one pattern takes one
``splu`` of their block diagonal, each block in the column order
``splu`` picks for the pattern, bitwise one ``splu`` each.  Conjugate
gradients run only on request or, in 'auto' mode, on systems above
DIRECT_DOF_LIMIT that are not tridiagonal: a tridiagonal factor is
cheap at any size.  Each solved system is checked once: its normwise
backward error ||B c - ell|| / (||B||_F ||c|| + ||ell||), ||B||_F over
the stored entries, is at most RESIDUAL_TOL (Rigal & Gaches 1967;
Higham, Accuracy and Stability of Numerical Algorithms, ch. 7).  Banded
Cholesky and LU pivoting on the diagonal are backward stable on these
SPD systems, so no refinement is needed; ||B c - ell|| <= RESIDUAL_TOL
||ell||, which even the rounded exact solution misses on fine or graded
meshes, is not asked.
"""

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

RESIDUAL_TOL = 1e-10
SYMMETRY_TOL = 1e-13
DIRECT_DOF_LIMIT = 20_000
# banded storage (kd+1)*n may exceed nnz by at most this factor; tensor
# meshes in the direct range stay below 19
BAND_FILL_LIMIT = 32


@dataclass(frozen=True)
class SolveReport:
    c: np.ndarray
    residual_norm: float
    iterations: int
    method: str


def _band_offsets(B):
    """Column - row offset of every stored entry of a canonical CSR matrix."""
    rows = np.repeat(np.arange(B.shape[0]), np.diff(B.indptr))
    return B.indices - rows


def _lower_band(B, offsets, kd):
    """LAPACK lower band storage ab[i - j, j] = B[i, j], Fortran order.

    Fortran order lets LAPACK factor the band in place.
    """
    lower = offsets <= 0
    ab = np.zeros((kd + 1, B.shape[0]), order="F")
    ab[-offsets[lower], B.indices[lower]] = B.data[lower]
    return ab


def solve_spd(system, method: str = "auto") -> SolveReport:
    """Solve B c = ell for an SPD system to normwise backward error 1e-10.

    method: 'direct-cholesky', 'cg', or 'auto' (direct, except conjugate
    gradients above 20k DOFs when the matrix is not tridiagonal, so 1D
    systems factor at every size).  The direct method runs banded
    Cholesky on the lower band when the bandwidth kd exceeds 1 and the
    band holds at most 32 * nnz entries; tridiagonal and wide-band
    matrices go to ``splu``; the report's iterations are 0 for a direct
    solve.  CG is Jacobi-preconditioned with a relative residual target
    of 1e-12 and at most 20 * n iterations, which the report counts.
    The report names the path that ran: 'banded-cholesky', 'splu' or 'cg'.
    """
    B, ell = system.B, system.ell
    n = ell.size
    if method not in ("auto", "direct-cholesky", "cg"):
        raise ValueError(f"unknown solve method {method!r}")
    _check_load(ell)
    # the band reads only the lower triangle, so this check guards it
    asym = abs(B - B.T)
    if asym.nnz and asym.max() > SYMMETRY_TOL * max(1.0, abs(B).max()):
        raise SolverError("stiffness matrix is not symmetric")

    B = B.tocsr()
    if not B.has_canonical_format:
        B = B.copy()
        B.sum_duplicates()
    if method != "cg":
        offsets = _band_offsets(B)
        kd = int(offsets.max(initial=0))
        if method == "auto" and n > DIRECT_DOF_LIMIT and kd > 1:
            method = "cg"
        else:
            banded = kd > 1 and (kd + 1) * n <= BAND_FILL_LIMIT * B.nnz
            method = "banded-cholesky" if banded else "splu"

    ell_norm = np.linalg.norm(ell)
    if ell_norm == 0.0:
        return SolveReport(c=np.zeros(n), residual_norm=0.0, iterations=0, method=method)

    if method == "banded-cholesky":
        with _one_blas_thread():
            try:
                factor = sla.cholesky_banded(_lower_band(B, offsets, kd), lower=True,
                                             overwrite_ab=True, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"banded Cholesky failed: {exc}") from exc
            return _single(partial(sla.cho_solve_banded, (factor, True), check_finite=False),
                           B, ell, ell_norm, method)
    if method == "splu":
        return solve_splu(B.tocsc(), ell)

    diag = B.diagonal()
    if np.any(diag <= 0):
        raise SolverError("nonpositive diagonal entry; system is not SPD")
    M = sp.diags(1.0 / diag)
    count = [0]

    def tick(_):
        count[0] += 1

    c, info = spla.cg(B, ell, rtol=1e-12, atol=0.0, maxiter=20 * n, M=M, callback=tick)
    residual = float(np.linalg.norm(B @ c - ell))
    if info != 0:
        raise SolverError(
            f"conjugate gradients did not converge (info={info})", residual=residual
        )
    _check_residual(residual, np.linalg.norm(B.data), np.linalg.norm(c), ell_norm)
    return SolveReport(c=c, residual_norm=residual, iterations=count[0], method=method)


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
            out.append((SolveReport(c=c_g, residual_norm=residual, iterations=0,
                                    method=method), Bc[b].copy()))
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
    if not np.all(np.isfinite(ell)):
        raise SolverError("load vector contains non-finite entries")


def _check_residual(residual, B_norm, c_norm, ell_norm):
    """The backward-error contract; a non-finite bound (c overflowed) misses it."""
    bound = RESIDUAL_TOL * (B_norm * c_norm + ell_norm)
    if not (np.isfinite(bound) and residual <= bound):
        raise SolverError(
            f"residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} * (|B| |c| + |ell|)",
            residual=residual,
        )
