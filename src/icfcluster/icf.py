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
rounding, and the guesses depend on the finished columns alone, so a column
never depends on max_rank: the rank-r factor is, bit for bit, the first r
columns, pivots and trace-history entries of any larger one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (_PAIRS, _POW10, _POW10_LO, _TEXT_BLOCK, Dataset, _decimal, _digits, _must_fit,
                   _read_only, _significands, _ValueType)
from .kernel import DEFAULT_GUARD, KernelSpec, _must_fit_square, kernel_column, kernel_diag

# residual diagonal entries may round slightly negative, by an amount that
# scales with their kernel diagonal entry; anything below this fraction of
# K[j, j] indicates a genuinely indefinite update, not rounding
NEGATIVE_TOL = 1e-10

# a pivot whose fresh nu^2 = K[t,t] - u.u falls to this fraction of K[t,t] is
# rounding noise left over after rank exhaustion, not a real column; the dense
# embedding paths drop eigenvalues at or below this fraction of the largest
RANK_TOL = 1e-12

# the default residual-trace threshold: factorization stops once tr(K - P P^T)
# falls to it
EPSILON = 1e-3

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
        # plain np.unique would load numpy.ma, np.unique(..., return_inverse=True) does not
        if pivots.shape != (s,) or np.unique(pivots, return_inverse=True)[0].size < s:
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


def icf_factorize(dataset: Dataset, spec: KernelSpec, max_rank: int, epsilon: float = EPSILON) -> IcfFactor:
    """Run the pivoted incomplete Cholesky loop.

    Stops as soon as the residual trace drops to epsilon or below, when
    max_rank columns have been built, or when the best remaining pivot is
    numerically rank-exhausted (nu^2 <= RANK_TOL * K[t, t]).

    PT holds the factor transposed, a column per contiguous row, so a step's
    products and downdate stream memory; P is a view of it.  A factor that
    stops short copies its rows out, so it holds no spare buffer rows.

    Step s pivots on the largest residual entry t, fills PT[s] in place as
    (col - u P) / nu and downdates e with col, Gram column t, as scratch.
    Residuals rounding into [-NEGATIVE_TOL K[j, j], 0) are clamped to 0; lower
    ones raise BreakdownError(s, the lowest residual).

    u P is taken from a panel where it can.  The rows of PT form blocks of
    _BLOCK.  At the first step of block m >= 1 (s = mB), one matrix product
    gives the panel, the products with PT[:mB] of the _CANDIDATES likeliest
    pivots: the indices with the largest e.  Selected entries of e are 0, so
    they fill the panel only once fewer than _CANDIDATES entries are positive.
    A step whose pivot is a candidate adds the products with the block's own
    rows to its panel row; any other step reads all of PT.

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
    _must_fit(f"max_rank={max_rank}", max_rank, n, "factor")
    diag = kernel_diag(spec, dataset)
    PT = np.empty((max_rank, n))
    pivots = np.empty(max_rank, dtype=np.int64)
    e, rows = diag.copy(), {}
    history = [float(np.sum(diag))]
    panel = np.empty((min(_CANDIDATES, n), n)) if max_rank > _BLOCK else None
    s = 0
    while s < max_rank and history[-1] > epsilon:
        # e is non-negative with selected entries pinned to exactly 0, and its
        # sum is above epsilon > 0, so the argmax is positive and unselected;
        # ties go to the smallest index
        t = int(np.argmax(e))
        u = PT[:s, t]
        nu_sq = float(diag[t] - u @ u)
        if not nu_sq > RANK_TOL * diag[t]:
            break
        nu = float(np.sqrt(nu_sq))
        col = kernel_column(spec, dataset, t)
        start = s - s % _BLOCK
        if s and s == start:
            candidates = np.sort(np.argpartition(e, n - len(panel))[n - len(panel):])
            np.matmul(PT[:s, candidates].T, PT[:s], out=panel)
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
            if np.any(e < -NEGATIVE_TOL * diag):
                raise BreakdownError(s, worst)
            np.clip(e, 0.0, None, out=e)
        history.append(float(np.sum(e)))
        s += 1
    P = (PT if s == max_rank else PT[:s].copy()).T
    return IcfFactor._adopt(P, pivots[:s], e, np.array(history), n * (s + 1))


def reconstruct(factor: IcfFactor, guard: int = DEFAULT_GUARD) -> np.ndarray:
    """Materialize the rank-s approximation P P^T (guarded, O(n^2) memory)."""
    _must_fit_square(factor.n, guard, 1, "reconstruction", "approximation")
    return factor.P @ factor.P.T


def residual_trace(factor: IcfFactor) -> float:
    """Current tr(K - P P^T), the last entry of the trace history."""
    return float(factor.trace_history[-1])


def dump_factor(factor: IcfFactor) -> str:
    """Serialize a factor to text: header, pivots, P rows, trace history.

    Values are written as %.17e, which round-trips float64 exactly.  The
    rows of P are formatted a block of about _TEXT_BLOCK values at a time
    (_format_rows), and the text equals "%.17e" % v for every value.  A value
    that is NaN or infinite, which parse_factor_dump would refuse, raises
    ValueError naming the first such row of P, or the trace history, before
    any text is formatted.
    """
    P, history = factor.P, factor.trace_history
    finite = np.isfinite(P).all(axis=1)
    if not finite.all():
        raise ValueError(f"cannot dump: row {int(np.argmin(finite))} of P holds a non-finite value")
    if not np.isfinite(history).all():
        raise ValueError("cannot dump: the trace history holds a non-finite value")
    rows = max(1, _TEXT_BLOCK // max(factor.s, 1))
    return "".join([
        f"ICF {factor.n} {factor.s}\n",
        " ".join(map(str, factor.pivots.tolist())) + "\n",
        *(_format_rows(P[start:start + rows]) for start in range(0, factor.n, rows)),
        _format_rows(history[None, :]),
    ])


# one formatted value is a fixed-width record of 28 bytes: 0-1 filler, 2 the
# sign or filler, 3 the first digit, 4 the point, 5-21 the other 17 digits,
# 22 "e", 23-25 the exponent's sign and two digits, 26 the separator and 27
# filler.  The 18 digits are written to 4-21 in 4- and 2-byte groups at
# aligned offsets, and the first is then moved in front of the point; the
# filler byte is deleted from the text.  A value written by "%.17e" itself
# (at most 25 characters) fills the record from its start.
_RECORD = np.frombuffer(b"\0\0\0\0" + b"0" * 18 + b"e+00 \0", np.uint8)


def _format_rows(a: np.ndarray) -> str:
    """The rows of a as dump lines, each value written as "%.17e" writes it.

    Zeros and values in [1e-27, 1e17) in magnitude are formatted from their
    exact 18-digit significands (_decimal); any other value is formatted by
    "%.17e" itself.
    """
    rows, s = a.shape
    if not s:
        return "\n" * rows
    v = a.ravel()
    mag = np.abs(v)
    in_range = (mag >= 1e-27) & (mag < 1e17)
    exact = np.flatnonzero(in_range)
    m = np.zeros(v.size, np.int64)
    e = np.zeros(v.size, np.int64)
    m[exact], e[exact] = _decimal(mag[exact])
    rec = np.empty((v.size, _RECORD.size), np.uint8)
    rec[:] = _RECORD
    rec[s - 1::s, 26] = ord("\n")
    rec[np.signbit(v), 2] = ord("-")
    rec[e < 0, 23] = ord("-")
    _digits(m, rec, 4)
    np.take(_PAIRS, np.abs(e), out=rec.view(np.uint16)[:, 12], mode="clip")
    rec[:, 3] = rec[:, 4]
    rec[:, 4] = ord(".")
    other = np.flatnonzero(~in_range & (mag != 0.0))
    if other.size:
        text = "".join([("%.17e" % x).ljust(26, "\0") for x in v[other].tolist()])
        rec[other, :26] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 26)
    return rec.tobytes().translate(None, b"\0").decode("ascii")


# with its sign taken out, a value written as %.17e with a two-digit exponent
# is a record of 24 bytes: a digit, ".", 17 digits, "e", the exponent's sign,
# two digits and the separator.  Less _LOW, each byte lies in [0, _SPAN] for
# its column: the exponent's sign is then 0 or 2 ("," lies between), and the
# separator 22 (" ") or 0 ("\n").  The significand is the first 19 bytes less
# _LOW times _WEIGHTS.
_LOW = np.frombuffer(b"0.00000000000000000e+00\n", np.uint8)
_SPAN = np.frombuffer(b"\t\0" + b"\t" * 17 + b"\0\2\t\t\x16", np.uint8)
_WEIGHTS = np.array([10 ** 17, 0, *(10 ** np.arange(16, -1, -1))], np.int64)


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
    P = _read_P(lines[2:2 + n], s)
    history = np.array(_finite_floats(lines[2 + n], "trace history"))
    if pivots.shape != (s,) or history.shape != (s + 1,):
        raise ValueError("dump sections do not match header sizes")
    # return_inverse=True, as in IcfFactor, so that no numpy.ma is loaded
    if np.any((pivots < 0) | (pivots >= n)) or np.unique(pivots, return_inverse=True)[0].size < s:
        raise ValueError(f"malformed pivots: expected {s} distinct indices in [0, {n})")
    if any(line.strip() for line in lines[3 + n:]):
        raise ValueError("unexpected data after the trace history")
    return pivots, P, history


def _read_P(rows: list[str], s: int) -> np.ndarray:
    """The rows of P, read a block of about _TEXT_BLOCK values (whole rows) at a time.

    A block of records as dump_factor writes them with two-digit exponents
    is read by _exact_rows; any other goes to _read_rows, which names the
    first bad row of P.  Blocks are taken in order, so a bad row is named as
    a single _read_rows call over every row would name it.
    """
    P = np.empty((len(rows), s))
    step = max(1, _TEXT_BLOCK // max(s, 1))
    for first in range(0, len(rows), step):
        block = rows[first:first + step]
        exact = _exact_rows(block, s) if s else None
        P[first:first + len(block)] = _read_rows(block, s, first) if exact is None else exact
    return P


def _exact_rows(rows: list[str], s: int) -> np.ndarray | None:
    """The rows as numbers, if each value is a record as dump_factor writes
    it with a two-digit exponent, followed by one space or, last in its row,
    "\n"; else None.

    Where a record's 18-digit significand M is at least 10^17 and its
    exponent E lies in [-27, 16], x ~ M 10^(E - 17) is the float64 quotient
    M / 10^(17 - E) after one correction step, and is kept if
    _significands(x, 17 - E) = M.  Then the token lies within 5e-18 x of x,
    and the nearest other double is more than 2^-54 x = 5.55e-17 x away, on
    either side, power of two or not; so x is the token correctly rounded,
    as float() reads it.  Every other nonzero record is read by float(); the
    check fails for about 0.5% of the values of a factor's dump.
    """
    records = _records(rows, s)
    if records is None:
        return None
    digits, negative = records
    # einsum converts the bytes a buffer at a time, not as a whole copy
    m = np.einsum("ij,j->i", digits[:, :19], _WEIGHTS, dtype=np.int64, casting="unsafe")
    e = 10 * digits[:, 21].astype(np.int64) + digits[:, 22]
    k = 17 + np.where(digits[:, 20] == 2, e, -e)
    slow = (m != 0) & ((m < 10 ** 17) | (k < 1) | (k > 44))
    # clipped, k keeps M 10^-k 10^k below 10^18; what the records already
    # slow get from the check does not matter
    np.clip(k, 1, 44, out=k)
    mh = m.astype(np.float64)
    x = mh / _POW10[k]
    # one step takes out the roundings of M and of 10^k = _POW10 + _POW10_LO
    x += ((m - mh.astype(np.int64)) - x * _POW10_LO[k]) / _POW10[k]
    slow |= _significands(x, k) != m
    for i in np.flatnonzero(slow).tolist():
        x[i] = float((digits[i, :23] + _LOW[:23]).tobytes())
    x[negative] *= -1.0
    return x.reshape(len(rows), s)


def _records(rows: list[str], s: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(the rows' 24-byte records [-]d.ddddddddddddddddde[+-]dd and their
    separators, signs taken out, less _LOW; the indices of the negative
    values), or None if the rows are anything else.
    """
    # an ASCII str encodes by a copy; anything else shows as "?", which no
    # record holds
    buf = np.frombuffer("\n".join([*rows, ""]).encode("ascii", "replace"), np.uint8)
    # a "-" not after "e" is a value's sign; at 0, buf[-1] is the last "\n"
    at = np.flatnonzero(buf == 45)
    at = at[buf[at - 1] != 101]
    if buf.size - at.size != 24 * len(rows) * s:
        return None
    digits = np.delete(buf, at).reshape(-1, 24)
    digits -= _LOW
    # a sign must have stood in front of a record, one to a record at most
    at -= np.arange(at.size)
    ends = np.full(len(digits), 22, np.uint8)
    ends[s - 1::s] = 0
    if (np.any(at % 24) or np.any(at[1:] == at[:-1]) or np.any(digits > _SPAN)
            or np.any(digits[:, 20] == 1) or not np.array_equal(digits[:, 23], ends)):
        return None
    return digits, at // 24


def _read_rows(rows: list[str], s: int, first: int = 0) -> np.ndarray:
    """The rows of P from first on, read one at a time with float(), which
    names the first bad one."""
    P = np.empty((len(rows), s))
    for i, line in enumerate(rows, first):
        row = _finite_floats(line, f"row {i} of P")
        if len(row) != s:
            raise ValueError(f"row {i} of P has {len(row)} values, expected {s}")
        P[i - first] = row
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
