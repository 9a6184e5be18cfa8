"""Incomplete Cholesky factorization of a kernel Gram matrix.

Builds a tall factor P (n x s, s << n) with P P^T ~= K by greedily pivoting
on the largest residual diagonal entry, which maximally reduces the residual
trace tr(K - P P^T) at every step.  Only one Gram column per step plus the
diagonal are ever evaluated, so the cost is O(n s^2 + n s d) time and O(n s)
memory; the full matrix is never formed.

Each step with pivot t appends the column

    p = (K[:, t] - P u) / nu,   u = P[t, :],   nu = sqrt(K[t, t] - u.u)

and downdates the residual diagonal e[j] -= p[j]^2.  The residual trace is
re-summed from e rather than updated by subtraction so it cannot drift.
Selected pivot entries are pinned at exactly zero, as are factor entries in
previously selected rows (their exact value is zero; pinning stops rounding
noise from being amplified by a small nu).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .kernel import DEFAULT_GUARD, KernelSpec, kernel_column, kernel_diag

# residual diagonal entries may round slightly negative; anything below this
# indicates a genuinely indefinite update, not rounding
NEGATIVE_TOL = 1e-10

# a pivot whose fresh nu^2 = K[t,t] - u.u falls to this fraction of K[t,t] is
# rounding noise left over after rank exhaustion, not a real column; matches
# the relative eigenvalue clamp used by the dense embedding paths
RANK_TOL = 1e-12


class BreakdownError(RuntimeError):
    """Numerical breakdown: a residual quantity turned negative beyond tolerance."""

    def __init__(self, iteration: int, value: float):
        super().__init__(f"breakdown at iteration {iteration}: residual value {value:.3e}")
        self.iteration = iteration
        self.value = value


@dataclass(eq=False)
class IcfFactor:
    """Result of an incomplete Cholesky run.

    Attributes:
        P: n x s factor, columns in selection order.
        pivots: the s selected indices, in order, no repeats.
        residual_diag: diagonal of K - P P^T; selected entries are exactly 0.
        trace_history: residual trace before each step and after the last,
            length s + 1; trace_history[0] is tr(K).
        kernel_evals: number of kernel evaluations spent (diagonal + columns).
    """

    P: np.ndarray
    pivots: np.ndarray
    residual_diag: np.ndarray
    trace_history: np.ndarray
    kernel_evals: int

    def __post_init__(self):
        self._own(copy=True)

    @classmethod
    def _adopt(cls, P, pivots, residual_diag, trace_history, kernel_evals) -> IcfFactor:
        """Wrap arrays this module has just built, freezing them without a copy."""
        factor = cls.__new__(cls)
        factor.P, factor.pivots, factor.residual_diag, factor.trace_history = (
            P, pivots, residual_diag, trace_history)
        factor.kernel_evals = kernel_evals
        factor._own(copy=False)
        return factor

    def _own(self, copy: bool) -> None:
        """Validate the shapes and freeze the arrays, copying them first if asked.

        The public constructor copies, so it never freezes or aliases an array
        its caller still holds.
        """
        as_array = np.array if copy else np.asarray
        P = as_array(self.P, dtype=np.float64)
        pivots = as_array(self.pivots, dtype=np.int64)
        diag = as_array(self.residual_diag, dtype=np.float64)
        hist = as_array(self.trace_history, dtype=np.float64)
        n, s = P.shape
        if pivots.shape != (s,) or len(np.unique(pivots)) != s:
            raise ValueError("pivots must be s distinct indices")
        if np.any((pivots < 0) | (pivots >= n)):
            raise ValueError(f"pivots must be indices in [0, {n})")
        if diag.shape != (n,):
            raise ValueError("residual_diag must have length n")
        if hist.shape != (s + 1,):
            raise ValueError("trace_history must have length s + 1")
        for name, arr in (("P", P), ("pivots", pivots), ("residual_diag", diag), ("trace_history", hist)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def s(self) -> int:
        return self.P.shape[1]


def icf_factorize(dataset: Dataset, spec: KernelSpec, max_rank: int, epsilon: float = 1e-3) -> IcfFactor:
    """Run the pivoted incomplete Cholesky loop.

    Stops as soon as the residual trace drops to epsilon or below, when
    max_rank columns have been built, or when the best remaining pivot is
    numerically rank-exhausted (nu^2 <= RANK_TOL * K[t, t]).

    Args:
        dataset: points defining the Gram matrix.
        spec: kernel to apply.
        max_rank: cap on the number of columns, 1 <= max_rank <= n.
        epsilon: residual-trace stopping threshold, > 0.
    """
    n = dataset.n
    if not 1 <= max_rank <= n:
        raise ValueError(f"max_rank must be in [1, {n}], got {max_rank}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    diag = kernel_diag(spec, dataset).astype(np.float64, copy=True)
    e = diag.copy()
    # the factor is built transposed (columns as contiguous rows) so the
    # per-step matvec and downdate stream memory instead of striding; this
    # buffer is the factor's only storage, P is returned as a view of it
    PT = np.empty((max_rank, n))
    pivots = np.empty(max_rank, dtype=np.int64)
    history = [float(np.sum(e))]
    s = 0
    while s < max_rank and history[-1] > epsilon:
        if _step(PT, pivots, e, s, diag, dataset, spec) is not None:
            break
        history.append(float(np.sum(e)))
        s += 1
    return IcfFactor._adopt(PT[:s].T, pivots[:s], e, np.array(history), n * (s + 1))


def icf_step(factor: IcfFactor, dataset: Dataset, spec: KernelSpec) -> IcfFactor:
    """Extend a factor by one pivot column, returning a new factor.

    Raises ValueError when no positive residual is left and BreakdownError
    when the best pivot is rank-exhausted.
    """
    n, s = factor.n, factor.s
    if dataset.n != n:
        raise ValueError("dataset does not match factor size")
    if s >= n:
        raise ValueError("factor already has n columns")
    e = factor.residual_diag.copy()
    PT = np.empty((s + 1, n))
    PT[:s] = factor.P.T
    pivots = np.empty(s + 1, dtype=np.int64)
    pivots[:s] = factor.pivots
    refused = _step(PT, pivots, e, s, kernel_diag(spec, dataset), dataset, spec)
    if refused is not None:
        raise refused
    history = np.append(factor.trace_history, float(np.sum(e)))
    return IcfFactor._adopt(PT.T, pivots, e, history, factor.kernel_evals + n)


def reconstruct(factor: IcfFactor, guard: int = DEFAULT_GUARD) -> np.ndarray:
    """Materialize the rank-s approximation P P^T (guarded, O(n^2) memory)."""
    if factor.n > guard:
        raise ValueError(f"reconstruction refused: n={factor.n} exceeds guard={guard}")
    return factor.P @ factor.P.T


def residual_trace(factor: IcfFactor) -> float:
    """Current tr(K - P P^T), the last entry of the trace history."""
    return float(factor.trace_history[-1])


def dump_factor(factor: IcfFactor) -> str:
    """Serialize a factor to text: header, pivots, P rows, trace history.

    Values are written as %.17e, which round-trips float64 exactly; each row
    of P is formatted by one template, one row at a time.
    """
    row = " ".join(["%.17e"] * factor.s) + "\n"
    history = " ".join(["%.17e"] * (factor.s + 1)) + "\n"
    return "".join([
        f"ICF {factor.n} {factor.s}\n",
        " ".join(map(str, factor.pivots.tolist())) + "\n",
        *(row % tuple(p.tolist()) for p in factor.P),
        history % tuple(factor.trace_history.tolist()),
    ])


def parse_factor_dump(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of dump_factor; returns (pivots, P, trace_history)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("ICF "):
        raise ValueError("not a factor dump: missing ICF header")
    try:
        _, n_s, s_s = lines[0].split()
        n, s = int(n_s), int(s_s)
    except ValueError:
        raise ValueError(f"malformed header {lines[0]!r}") from None
    if len(lines) < n + 3:
        raise ValueError(f"truncated dump: expected {n + 3} lines, got {len(lines)}")
    if 2 * n * s > len(text):
        # each value takes at least one character and a separator; checked
        # before P is allocated, so a corrupt header cannot request more
        # memory than a few times the text's size
        raise ValueError(f"truncated dump: {len(text)} characters cannot hold {n} x {s} values")
    pivots = np.array([int(t) for t in lines[1].split()], dtype=np.int64)
    P = np.empty((n, s))
    for i in range(n):
        row = list(map(float, lines[2 + i].split()))
        if len(row) != s:
            raise ValueError(f"row {i} of P has {len(row)} values, expected {s}")
        P[i] = row
    history = np.array([float(v) for v in lines[2 + n].split()])
    if pivots.shape != (s,) or history.shape != (s + 1,):
        raise ValueError("dump sections do not match header sizes")
    return pivots, P, history


def _step(PT: np.ndarray, pivots: np.ndarray, e: np.ndarray, s: int, diag: np.ndarray,
          dataset: Dataset, spec: KernelSpec) -> Exception | None:
    """Take step s at the largest residual entry t: fill PT[s], record t, downdate e.

    PT holds the factor transposed, one column per contiguous row, and
    pivots[:s] the pivots chosen so far.  A refused step changes nothing and
    returns the unraised error that says why: ValueError when no positive
    residual is left, BreakdownError(s, nu^2) at rank exhaustion, checked
    from the diagonal before a kernel column is spent.  The row is computed
    in place as (col - u P) / nu without temporaries; col, Gram column t, is
    then reused as scratch for the squared row.  Residual entries that round
    into [-NEGATIVE_TOL, 0) are clamped to zero; anything lower means the
    update lost positive semidefiniteness and raises BreakdownError.
    """
    # selected entries are pinned to exactly 0 and the rest kept non-negative,
    # so a positive argmax is unselected; ties go to the smallest index
    t = int(np.argmax(e))
    if not e[t] > 0.0:
        return ValueError("no unselected index with positive residual remains")
    u = PT[:s, t]
    nu_sq = float(diag[t] - u @ u)
    if not nu_sq > RANK_TOL * diag[t]:
        return BreakdownError(s, nu_sq)
    nu = float(np.sqrt(nu_sq))
    col = kernel_column(spec, dataset, t)
    p = PT[s]
    if s:
        np.matmul(u, PT[:s], out=p)
        np.subtract(col, p, out=p)
        p /= nu
    else:
        np.divide(col, nu, out=p)
    p[pivots[:s]] = 0.0
    p[t] = nu
    pivots[s] = t
    e -= np.multiply(p, p, out=col)
    e[t] = 0.0
    worst = float(np.min(e))
    if worst < 0.0:
        if worst < -NEGATIVE_TOL:
            raise BreakdownError(s, worst)
        np.clip(e, 0.0, None, out=e)
    return None
