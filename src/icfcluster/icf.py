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

The O(n s^2) term is the product P u.  Rather than read all of P at every
step, the loop guesses a few likely next pivots at the start of each block
of steps and takes their products with the finished columns in one matrix
product; a step whose pivot was guessed reads only its block's own columns.
The guesses cost no kernel evaluations.  A guess changes a column only by
rounding, and the guesses depend on the finished columns alone, so stepping
a factor one column at a time reproduces the one-shot loop bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _read_only, _ValueType
from .kernel import DEFAULT_GUARD, KernelSpec, kernel_column, kernel_diag

# residual diagonal entries may round slightly negative; anything below this
# indicates a genuinely indefinite update, not rounding
NEGATIVE_TOL = 1e-10

# a pivot whose fresh nu^2 = K[t,t] - u.u falls to this fraction of K[t,t] is
# rounding noise left over after rank exhaustion, not a real column; matches
# the relative eigenvalue clamp used by the dense embedding paths
RANK_TOL = 1e-12

# a panel serves the steps of one block of _BLOCK factor rows and holds the
# products of _CANDIDATES likely pivots with the rows before the block
_BLOCK = 16
_CANDIDATES = 24


class BreakdownError(RuntimeError):
    """Numerical breakdown: a residual quantity turned negative beyond tolerance."""

    def __init__(self, iteration: int, value: float):
        super().__init__(f"breakdown at iteration {iteration}: residual value {value:.3e}")
        self.iteration = iteration
        self.value = value


@dataclass(eq=False)
class IcfFactor(_ValueType):
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
        self._own(self.P, self.pivots, self.residual_diag, self.trace_history, copy=True)

    @classmethod
    def _adopt(cls, P, pivots, residual_diag, trace_history, kernel_evals) -> IcfFactor:
        """Wrap arrays this module has just built, freezing them without a copy."""
        factor = cls.__new__(cls)
        factor.kernel_evals = kernel_evals
        factor._own(P, pivots, residual_diag, trace_history, copy=False)
        return factor

    def _own(self, P, pivots, diag, hist, copy: bool) -> None:
        """Validate the shapes and freeze the arrays, copying them first if asked.

        The public constructor copies, so it never freezes or aliases an array
        its caller still holds.
        """
        P = _read_only(P, np.float64, copy)
        pivots = _read_only(pivots, np.int64, copy)
        diag = _read_only(diag, np.float64, copy)
        hist = _read_only(hist, np.float64, copy)
        n, s = P.shape
        if pivots.shape != (s,) or len(np.unique(pivots)) != s:
            raise ValueError("pivots must be s distinct indices")
        if np.any((pivots < 0) | (pivots >= n)):
            raise ValueError(f"pivots must be indices in [0, {n})")
        if diag.shape != (n,):
            raise ValueError("residual_diag must have length n")
        if hist.shape != (s + 1,):
            raise ValueError("trace_history must have length s + 1")
        self.P, self.pivots, self.residual_diag, self.trace_history = P, pivots, diag, hist

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def s(self) -> int:
        return self.P.shape[1]

    @property
    def nu(self) -> np.ndarray:
        """Each step's nu = sqrt(K[t, t] - u.u), read from P[pivots[j], j]."""
        return self.P[self.pivots, np.arange(self.s)]


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
    empty = IcfFactor._adopt(np.empty((n, 0)), np.empty(0, np.int64), diag, np.array([float(np.sum(diag))]), n)
    return _grow(empty, dataset, spec, diag, max_rank, epsilon)[0]


def icf_step(factor: IcfFactor, dataset: Dataset, spec: KernelSpec) -> IcfFactor:
    """Extend a factor by one pivot column, returning a new factor.

    Raises ValueError when no positive residual is left and BreakdownError
    when the best pivot is rank-exhausted.
    """
    if dataset.n != factor.n:
        raise ValueError("dataset does not match factor size")
    if factor.s >= factor.n:
        raise ValueError("factor already has n columns")
    grown, refusal = _grow(factor, dataset, spec, kernel_diag(spec, dataset), factor.s + 1, -math.inf)
    if refusal is not None:
        raise refusal
    return grown


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
    """Inverse of dump_factor; returns (pivots, P, trace_history).

    Raises ValueError, naming the section or the row of P, for a dump that
    is malformed, truncated, holds a non-finite value or goes on after the
    trace history.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("ICF "):
        raise ValueError("not a factor dump: missing ICF header")
    try:
        _, n_s, s_s = lines[0].split()
        n, s = int(n_s), int(s_s)
    except ValueError:
        raise ValueError(f"malformed header {lines[0]!r}") from None
    if n < 0 or s < 0:
        raise ValueError(f"malformed header {lines[0]!r}: sizes must be non-negative")
    if len(lines) < n + 3:
        raise ValueError(f"truncated dump: expected {n + 3} lines, got {len(lines)}")
    if 2 * n * s > len(text):
        # each value takes at least one character and a separator; checked
        # before P is allocated, so a corrupt header cannot request more
        # memory than a few times the text's size
        raise ValueError(f"truncated dump: {len(text)} characters cannot hold {n} x {s} values")
    try:
        pivots = np.array([int(t) for t in lines[1].split()], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"malformed pivots: {exc}") from None
    P = _read_rows(lines[2:2 + n], s)
    history = np.array(_finite_floats(lines[2 + n], "trace history"))
    if pivots.shape != (s,) or history.shape != (s + 1,):
        raise ValueError("dump sections do not match header sizes")
    if np.any((pivots < 0) | (pivots >= n)) or len(np.unique(pivots)) != s:
        raise ValueError(f"malformed pivots: expected {s} distinct indices in [0, {n})")
    if any(line.strip() for line in lines[3 + n:]):
        raise ValueError("unexpected data after the trace history")
    return pivots, P, history


def _read_rows(rows: list[str], s: int) -> np.ndarray:
    """The rows of P, read by one np.loadtxt call when it can.

    loadtxt reads a subset of float()'s syntax.  When it fails, or gives
    anything but a finite len(rows) x s array, the rows are read one at a
    time with float(), which names the first bad one.  A blank last row is
    bad when s > 0 and goes to that loop directly, which also keeps loadtxt
    from warning about input with no data.
    """
    if s and rows and rows[-1].strip():
        try:
            P = np.loadtxt(rows, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if P.shape == (len(rows), s) and np.all(np.isfinite(P)):
                return P
    P = np.empty((len(rows), s))
    for i, line in enumerate(rows):
        row = _finite_floats(line, f"row {i} of P")
        if len(row) != s:
            raise ValueError(f"row {i} of P has {len(row)} values, expected {s}")
        P[i] = row
    return P


def _finite_floats(line: str, section: str) -> list[float]:
    """The whitespace-separated values of one line, which must all be finite floats."""
    try:
        values = list(map(float, line.split()))
    except ValueError as exc:
        raise ValueError(f"{section}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{section} holds a non-finite value")
    return values


def _grow(factor: IcfFactor, dataset: Dataset, spec: KernelSpec, diag: np.ndarray,
          rank: int, epsilon: float) -> tuple[IcfFactor, Exception | None]:
    """factor grown to rank columns or until its residual trace is at most
    epsilon, and the unraised error of the refused step that stopped it, or None.

    PT holds the factor transposed, a column per contiguous row, so a step's
    products and downdate stream memory; P is a view of it.  PT is a fresh
    buffer of rank rows with the factor copied in, so a growth never writes
    into a factor already handed out.  A growth that stops short copies its
    rows out, so the factor holds no spare buffer rows; one that took no step
    returns factor itself.

    Step s pivots on the largest residual entry t, fills PT[s] in place as
    (col - u P) / nu and downdates e with col, Gram column t, as scratch.  A
    refused step changes nothing: ValueError when no positive residual is left,
    BreakdownError(s, nu^2) at rank exhaustion, before a kernel column is spent.
    Residuals rounding into [-NEGATIVE_TOL, 0) are clamped to 0; lower ones raise
    BreakdownError.

    u P is taken from a panel where it can.  The rows of PT form blocks of
    _BLOCK.  At the first step of block m >= 1 (s = mB), one matrix product
    gives the panel, the products with PT[:mB] of the _CANDIDATES likeliest
    pivots: the unselected indices with the largest r = diag - sum_{j<mB}
    P[:, j]^2, kept apart from e and folded one completed block at a time in
    a fixed order.  A step whose pivot is a candidate adds the products with
    the block's own rows to its panel row; any other step reads all of PT.
    So a column depends on P[:, :s] and t alone, not on where the growth
    started: a growth that starts inside a block builds that block's panel.
    """
    n, s = factor.n, factor.s
    PT = np.empty((rank, n))
    PT[:s] = factor.P.T
    pivots = np.empty(rank, dtype=np.int64)
    pivots[:s] = factor.pivots
    e = factor.residual_diag.copy()
    history = factor.trace_history.tolist()
    refusal = None
    r, start, rows = diag.copy(), 0, {}
    panel = np.empty((min(_CANDIDATES, n), n)) if rank > _BLOCK else None
    while s < rank and history[-1] > epsilon:
        # selected entries are pinned to exactly 0 and the rest kept non-negative,
        # so a positive argmax is unselected; ties go to the smallest index
        t = int(np.argmax(e))
        if not e[t] > 0.0:
            refusal = ValueError("no unselected index with positive residual remains")
            break
        u = PT[:s, t]
        nu_sq = float(diag[t] - u @ u)
        if not nu_sq > RANK_TOL * diag[t]:
            refusal = BreakdownError(s, nu_sq)
            break
        nu = float(np.sqrt(nu_sq))
        col = kernel_column(spec, dataset, t)
        if s - s % _BLOCK > start:
            for j in range(start, s - s % _BLOCK, _BLOCK):
                block = PT[j:j + _BLOCK]
                r -= np.einsum("ij,ij->j", block, block)
                r[pivots[j:j + _BLOCK]] = -np.inf
            start = s - s % _BLOCK
            candidates = np.sort(np.argpartition(r, n - len(panel))[n - len(panel):])
            np.matmul(PT[:start, candidates].T, PT[:start], out=panel)
            rows = dict(zip(candidates.tolist(), range(len(panel))))
        p = PT[s]
        if t in rows:
            np.matmul(PT[start:s, t], PT[start:s], out=p)
            p += panel[rows[t]]
        else:
            np.matmul(u, PT[:s], out=p)
        np.subtract(col, p, out=p)
        p /= nu
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
        history.append(float(np.sum(e)))
        s += 1
    if s == factor.s:
        return factor, refusal
    evals = factor.kernel_evals + n * (s - factor.s)
    P = (PT if s == rank else PT[:s].copy()).T
    return IcfFactor._adopt(P, pivots[:s], e, np.array(history), evals), refusal
