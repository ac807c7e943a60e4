"""SPD sparse solves, deliberately outside the differentiation path.

Because the Ritz energy is stationary in the coefficients at the
discrete solution, callers treat the returned coefficients as
constants; nothing here is ever differentiated.

The direct method factors a banded matrix with LAPACK's banded
Cholesky (``solveh_banded``).  Tensor-product meshes give every 2D
system a fixed band of width Nx+1 in free-index order, so this is the
path of every 2D system.  Tridiagonal (1D) systems and matrices whose
band would be far larger than their nonzeros keep the general sparse
LU (``splu``).  1D stays on ``splu`` on purpose: the parametric arctan
runs amplify roundoff, and a banded 1D solve changes the coefficients
in the last bit and, through training, the final errors recorded
against this LU.
"""

from dataclasses import dataclass

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

    method: 'direct-cholesky', 'cg', or 'auto' (direct up to 20k DOFs,
    conjugate gradients above).  The direct method runs banded
    Cholesky when the upper bandwidth kd exceeds 1 and the band holds
    at most 32 * nnz entries; tridiagonal and wide-band matrices go to
    ``splu``.  CG is Jacobi-preconditioned with a relative residual
    target of 1e-12 and at most 20 * n iterations.  The report names
    the path that ran: 'banded-cholesky', 'splu' or 'cg'.
    """
    B, ell = system.B, system.ell
    n = ell.size
    if method == "auto":
        method = "direct-cholesky" if n <= DIRECT_DOF_LIMIT else "cg"
    if method not in ("direct-cholesky", "cg"):
        raise ValueError(f"unknown solve method {method!r}")
    if not np.all(np.isfinite(ell)):
        raise SolverError("load vector contains non-finite entries")
    # the band reads only the upper triangle, so this check guards it
    asym = abs(B - B.T)
    if asym.nnz and asym.max() > SYMMETRY_TOL * max(1.0, abs(B).max()):
        raise SolverError("stiffness matrix is not symmetric")

    if method == "direct-cholesky":
        B = B.tocsr()
        if not B.has_canonical_format:
            B = B.copy()
            B.sum_duplicates()
        offsets = _band_offsets(B)
        kd = int(offsets.max(initial=0))
        banded = kd > 1 and (kd + 1) * n <= BAND_FILL_LIMIT * B.nnz
        method = "banded-cholesky" if banded else "splu"

    ell_norm = np.linalg.norm(ell)
    if ell_norm == 0.0:
        return SolveReport(c=np.zeros(n), residual_norm=0.0, iterations=0, method=method)

    iterations = 0
    if method == "banded-cholesky":
        try:
            c = sla.solveh_banded(_upper_band(B, offsets, kd), ell, overwrite_ab=True,
                                  check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"banded Cholesky failed: {exc}") from exc
    elif method == "splu":
        try:
            lu = spla.splu(B.tocsc())
            c = lu.solve(ell)
        except RuntimeError as exc:
            raise SolverError(f"direct factorization failed: {exc}") from exc
    else:
        diag = B.diagonal()
        if np.any(diag <= 0):
            raise SolverError("nonpositive diagonal entry; system is not SPD")
        M = sp.diags(1.0 / diag)
        count = [0]

        def tick(_):
            count[0] += 1

        c, info = spla.cg(B, ell, rtol=1e-12, atol=0.0, maxiter=20 * n, M=M,
                          callback=tick)
        iterations = count[0]
        if info != 0:
            res = np.linalg.norm(B @ c - ell)
            raise SolverError(
                f"conjugate gradients did not converge (info={info})", residual=res
            )

    residual = float(np.linalg.norm(B @ c - ell))
    if not np.isfinite(residual) or residual > RESIDUAL_TOL * ell_norm:
        raise SolverError(
            f"residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} * |ell|",
            residual=residual,
        )
    return SolveReport(c=c, residual_norm=residual, iterations=iterations, method=method)
