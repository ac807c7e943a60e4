"""SPD sparse solves, deliberately outside the differentiation path.

Because the Ritz energy is stationary in the coefficients at the
discrete solution, callers treat the returned coefficients as
constants; nothing here is ever differentiated.

The direct method factors a banded matrix with LAPACK's banded
Cholesky (``cholesky_banded``).  Tensor-product meshes give every 2D
system a fixed band of width Nx+1 in free-index order, so this is the
path of every 2D system.  Tridiagonal (1D) systems and matrices whose
band would be far larger than their nonzeros keep the general sparse
LU (``splu``).  1D stays on ``splu`` on purpose: the parametric arctan
runs amplify roundoff, and a banded 1D solve changes the coefficients
in the last bit and, through training, the final errors recorded
against this LU (whose COLAMD ordering permutes even a tridiagonal
matrix, so no Thomas sweep reproduces it).  Conjugate gradients run
only on request or, in 'auto' mode, on systems above DIRECT_DOF_LIMIT
that are not tridiagonal: a tridiagonal factor is cheap at any size.
A direct solve that misses the residual contract is refined with its
factor at most twice (fixed-precision iterative refinement; Higham,
Accuracy and Stability of Numerical Algorithms, ch. 12); the contract
never loosens.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
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
MAX_REFINEMENTS = 2


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


def _upper_band(B, offsets, kd):
    """LAPACK upper band storage ab[kd + i - j, j] = B[i, j], Fortran order.

    Fortran order lets LAPACK factor the band in place.
    """
    upper = offsets >= 0
    ab = np.zeros((kd + 1, B.shape[0]), order="F")
    ab[kd - offsets[upper], B.indices[upper]] = B.data[upper]
    return ab


def solve_spd(system, method: str = "auto") -> SolveReport:
    """Solve B c = ell for an SPD system to relative residual 1e-10.

    method: 'direct-cholesky', 'cg', or 'auto' (direct, except conjugate
    gradients above 20k DOFs when the matrix is not tridiagonal, so 1D
    systems factor at every size).  The direct method runs banded
    Cholesky when the upper bandwidth kd exceeds 1 and the band holds
    at most 32 * nnz entries; tridiagonal and wide-band matrices go to
    ``splu``; the report's iterations count a direct solve's
    refinements.  CG is Jacobi-preconditioned with a relative residual
    target of 1e-12 and at most 20 * n iterations, which the report
    counts.  The report names the path that ran: 'banded-cholesky',
    'splu' or 'cg'.
    """
    B, ell = system.B, system.ell
    n = ell.size
    if method not in ("auto", "direct-cholesky", "cg"):
        raise ValueError(f"unknown solve method {method!r}")
    _check_load(ell)
    # the band reads only the upper triangle, so this check guards it
    asym = abs(B - B.T)
    if asym.nnz and asym.max() > SYMMETRY_TOL * max(1.0, abs(B).max()):
        raise SolverError("stiffness matrix is not symmetric")

    if method != "cg":
        B = B.tocsr()
        if not B.has_canonical_format:
            B = B.copy()
            B.sum_duplicates()
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
        try:
            factor = sla.cholesky_banded(_upper_band(B, offsets, kd), overwrite_ab=True,
                                         check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"banded Cholesky failed: {exc}") from exc
        return _refined(partial(sla.cho_solve_banded, (factor, False), check_finite=False),
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
    _check_residual(residual, ell_norm)
    return SolveReport(c=c, residual_norm=residual, iterations=count[0], method=method)


def solve_splu(A, ell) -> SolveReport:
    """solve_spd's 'splu' path for a canonical CSC matrix A known to be
    symmetric (an assembled 1D stiffness matrix), without its checks."""
    _check_load(ell)
    ell_norm = np.linalg.norm(ell)
    if ell_norm == 0.0:
        return SolveReport(c=np.zeros(ell.size), residual_norm=0.0, iterations=0,
                           method="splu")
    return _refined(_lu(A).solve, A, ell, ell_norm, "splu")


def _lu(A):
    try:
        return spla.splu(A)
    except RuntimeError as exc:
        raise SolverError(f"direct factorization failed: {exc}") from exc


def _refined(solve, B, ell, ell_norm, method) -> SolveReport:
    """c = solve(ell) with a factor of B, then c -= solve(B c - ell) while
    the residual misses the contract, at most MAX_REFINEMENTS times: a
    backward-stable solve of a graded system can miss it by a small
    factor, which refinement with the same factor recovers."""
    c = solve(ell)
    r = B @ c - ell
    residual = float(np.linalg.norm(r))
    refinements = 0
    while residual > RESIDUAL_TOL * ell_norm and refinements < MAX_REFINEMENTS:
        c = c - solve(r)
        r = B @ c - ell
        residual = float(np.linalg.norm(r))
        refinements += 1
    _check_residual(residual, ell_norm)
    return SolveReport(c=c, residual_norm=residual, iterations=refinements, method=method)


def _check_load(ell):
    if not np.all(np.isfinite(ell)):
        raise SolverError("load vector contains non-finite entries")


def _check_residual(residual, ell_norm):
    if not residual <= RESIDUAL_TOL * ell_norm:
        raise SolverError(
            f"residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} * |ell|",
            residual=residual,
        )
