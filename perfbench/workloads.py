"""The benchmark's workloads: seeded inputs, the timed operation, output checks.

Each workload is one user-facing icfcluster operation, repeated for the
length of a run.  ``prepare`` runs in the benchmark's parent process: it
makes the inputs from the seed, writes them once, and computes the reference
the checks need.  ``load`` and ``run`` run in the measured worker process;
``run`` is the timed operation, and calls icfcluster through module
attributes so that a traced run sees the tracing wrappers.  ``check`` runs
in the parent afterwards and returns the problems found in one operation's
outputs (an empty list when they are correct) and the operation's accuracy.

Lloyd's iteration count to the ``tol`` stop depends on the k-means++ start,
so the two cluster workloads cap it with ``--max-iter`` so that every
operation does about the same work; see each workload's notes.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field

import numpy as np

from icfcluster import cli, data, icf
from icfcluster.data import Dataset
from icfcluster.evaluate import CSV_HEADER, accuracy, trace_objective
from icfcluster.icf import IcfFactor, icf_factorize
from icfcluster.kernel import KernelSpec

# the acceptance gate's 10-class mixture: n = 10,992, d = 16, tight classes of
# unbalanced sizes, far apart relative to sigma
MIXTURE_SIZES = (2200, 1800, 1500, 1300, 1100, 900, 700, 600, 500, 392)
MIXTURE_SIGMA = 2.0 ** -16

OBJECTIVE_RTOL = 1e-9


@dataclass
class Op:
    """What one timed operation produced, as the worker recorded it."""

    index: int
    seconds: float
    traced: bool
    cluster_seed: int
    calibration_s: float = 0.0  # mean of calibration_seconds() just before and after
    error: str | None = None
    stdout: str = ""
    opdir: str = ""
    layers: dict = field(default_factory=dict)
    layer_self: dict = field(default_factory=dict)


@dataclass
class Reference:
    """Parent-side data for the checks; never sent to the worker."""

    dataset: Dataset | None = None
    factor: IcfFactor | None = None
    problems: list[str] = field(default_factory=list)


def _check_factor(factor) -> list[str]:
    problems = []
    bound = factor.n * (factor.s + 1)
    if factor.kernel_evals > bound:
        problems.append(f"kernel_evals {factor.kernel_evals} > n(s+1) = {bound}")
    if np.any(np.diff(factor.trace_history) > 0):
        problems.append("residual trace history increases")
    return problems


def _fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _write(path: str, text: str) -> int:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return os.path.getsize(path)


def _cli(argv: list[str]) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"icfcluster {argv[0]} exited with {rc}")


class Workload:
    name: str
    predicted: tuple[str, ...]
    # the environment.calibration_seconds loops whose time rescales this
    # workload's operations: the ones that slow down with the host as it does
    calibration: tuple[str, ...] = ("python", "blas")

    def load(self, config: dict):
        """Worker-side state made once, before the timed loop."""
        return None

    def character(self, config: dict, ops: list[Op]) -> list[str]:
        """Ways in which this run lost what the workload is meant to stress.

        ops are the operations whose outputs passed the checks."""
        return []


class ClusterWorkload(Workload):
    """``icfcluster cluster`` on a LIBSVM file: parse, factorize, Lloyd, write."""

    sigma: float
    subset_size: int
    clusters = 10
    max_iter: int | None = None  # None: the CLI's default

    def make_dataset(self, seed: int) -> Dataset:
        raise NotImplementedError

    def prepare(self, seed: int, workdir: str) -> tuple[dict, Reference]:
        dataset = self.make_dataset(seed)
        path = os.path.join(workdir, "input.libsvm")
        size = _write(path, data.to_libsvm(dataset))
        factor = icf_factorize(dataset, KernelSpec("gaussian", self.sigma), max_rank=self.subset_size)
        config = {"input": path, "input_bytes": size}
        return config, Reference(dataset, factor, _check_factor(factor))

    def run(self, config: dict, state, cluster_seed: int, opdir: str):
        cap = [] if self.max_iter is None else ["--max-iter", str(self.max_iter)]
        _cli(["cluster", config["input"], "--sigma", repr(self.sigma),
              "--subset-size", str(self.subset_size), "--clusters", str(self.clusters),
              "--seed", str(cluster_seed), *cap, "--out", os.path.join(opdir, "assign.txt")])

    def check(self, config: dict, ref: Reference, op: Op) -> tuple[list[str], float | None]:
        if op.error:
            return [op.error], None
        problems = list(ref.problems)
        lines = op.stdout.splitlines()
        head = _fields(lines[0])
        printed_objective = float(_fields(lines[1])["objective"])
        printed_accuracy = float(_fields(lines[2])["accuracy"])
        n, k, factor = ref.dataset.n, self.clusters, ref.factor
        if head.get("s") != str(factor.s):
            problems.append(f"printed rank {head.get('s')} != reference rank {factor.s}")
        with open(os.path.join(op.opdir, "assign.txt"), encoding="utf-8") as f:
            assign = np.array([int(t) for t in f.read().split()], dtype=np.int64)
        if assign.size != n:
            return problems + [f"assignment file has {assign.size} ids, expected {n}"], None
        if assign.min() < 0 or assign.max() >= k or np.unique(assign).size != k:
            return problems + [f"assignments do not use each of the {k} ids exactly in [0, {k})"], None
        hist = factor.trace_history
        expected = (hist[0] - hist[-1]) / n - trace_objective(factor, assign, k)
        if not abs(printed_objective - expected) <= OBJECTIVE_RTOL * abs(expected):
            problems.append(f"objective {printed_objective!r} != trace identity {expected!r}")
        if printed_accuracy != accuracy(assign, ref.dataset.labels):
            problems.append("printed accuracy does not match the assignment file")
        return problems, printed_accuracy


class FactorMixture(ClusterWorkload):
    """Factorization-dominated: rank 500 on the acceptance mixture.

    A good k-means++ start converges after one Lloyd iteration, and the
    second assignment pass finds the fixpoint.  About one start in three
    merges two classes and then needs 10-20 iterations, which makes the
    operation 2-3 times as long and Lloyd, not the factorization, its largest
    layer.  --max-iter 2 lets a good start run exactly as uncapped and stops
    a poor one after one more iteration, so the operations' times do not
    split into two groups whose mix would move the run's median.

    The factorization's matrix-vector products barely follow the Python part
    of the host's speed, so only the BLAS calibration loop rescales it.
    """

    name = "factor-mixture"
    sigma = MIXTURE_SIGMA
    subset_size = 500
    max_iter = 2
    predicted = ("icf",)
    calibration = ("blas",)

    def make_dataset(self, seed: int) -> Dataset:
        rng = np.random.default_rng(seed)
        means = rng.uniform(0.0, 400.0, (10, 16))
        stds = rng.uniform(2.0, 4.0, 10)
        blocks = [means[c] + stds[c] * rng.normal(size=(size, 16))
                  for c, size in enumerate(MIXTURE_SIZES)]
        labels = np.repeat(np.arange(10), MIXTURE_SIZES)
        return Dataset(np.vstack(blocks), labels=labels, name="mixture")

    def character(self, config: dict, ops: list[Op]) -> list[str]:
        ranks = {_fields(op.stdout.splitlines()[0]).get("s") for op in ops if op.stdout}
        return [] if ranks == {str(self.subset_size)} else [f"rank {sorted(ranks)} != {self.subset_size}"]


class LloydTail(ClusterWorkload):
    """Lloyd-dominated: overlapping classes, so many points keep moving.

    The ten class means are 1.5 times ten orthonormal directions of a random
    rotation, so every seed draws the same geometry up to rotation and the
    mean accuracy stays between 0.45 and 0.49 (means drawn from N(0, 1.5^2)
    gave accuracies from 0.71 to 1.0).  Lloyd reaches the tol stop after 36 to 127
    iterations depending on the start; --max-iter 40 fixes the work at 40
    iterations, deep in the tail where few points move.
    """

    name = "lloyd-tail"
    sigma = 0.02
    subset_size = 100
    max_iter = 40
    n = 10_000
    mean_scale = 1.5
    predicted = ("cluster",)

    def make_dataset(self, seed: int) -> Dataset:
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        means = self.mean_scale * q[:10]
        labels = rng.permutation(np.arange(self.n) % 10)
        return Dataset(means[labels] + rng.normal(size=(self.n, 16)), labels=labels, name="tail")

    def character(self, config: dict, ops: list[Op]) -> list[str]:
        iters = [int(_fields(op.stdout.splitlines()[1])["iterations"]) for op in ops if op.stdout]
        if iters and statistics.median(iters) >= 30:
            return []
        return [f"median Lloyd iterations {statistics.median(iters) if iters else None} < 30"]


class IoRoundtrip(Workload):
    """Text I/O: write LIBSVM, ``factorize --out`` a dump, read the dump back.

    The write paths run beside the read paths, so speeding one text path at
    the other's cost shows in total_s.  The read-back must equal the
    reference bit for bit to pass, so accuracy here is 1.0 for every
    operation that passes its checks.
    """

    name = "io-roundtrip"
    sigma = 0.02
    subset_size = 50
    n = 5_000
    d = 16
    predicted = ("icf.dump", "data")

    def prepare(self, seed: int, workdir: str) -> tuple[dict, Reference]:
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 10, self.n)
        points = rng.normal(0.0, 1.5, (10, self.d))[labels] + rng.normal(size=(self.n, self.d))
        dataset = Dataset(points, labels=labels, name="io")
        config = {"points": os.path.join(workdir, "points.npy"),
                  "labels": os.path.join(workdir, "labels.npy"),
                  "input": os.path.join(workdir, "input.libsvm"),
                  "dump": os.path.join(workdir, "factor.dump")}
        np.save(config["points"], dataset.points)
        np.save(config["labels"], dataset.labels)
        config["input_bytes"] = _write(config["input"], data.to_libsvm(dataset))
        factor = icf_factorize(dataset, KernelSpec("gaussian", self.sigma), max_rank=self.subset_size)
        return config, Reference(dataset, factor, _check_factor(factor))

    def load(self, config: dict) -> Dataset:
        return Dataset(np.load(config["points"]), labels=np.load(config["labels"]))

    def run(self, config: dict, dataset: Dataset, cluster_seed: int, opdir: str):
        _write(config["input"], data.to_libsvm(dataset))
        _cli(["factorize", config["input"], "--sigma", repr(self.sigma),
              "--subset-size", str(self.subset_size), "--out", config["dump"]])
        with open(config["dump"], encoding="utf-8") as f:
            pivots, P, history = icf.parse_factor_dump(f.read())
        return {"pivots": pivots, "P": P, "history": history}

    def check(self, config: dict, ref: Reference, op: Op) -> tuple[list[str], float | None]:
        if op.error:
            return [op.error], None
        problems = list(ref.problems)
        factor = ref.factor
        evals = int(_fields(op.stdout.splitlines()[0])["kernel_evals"])
        if evals > factor.n * (factor.s + 1):
            problems.append(f"printed kernel_evals {evals} exceeds n(s+1)")
        readback = np.load(os.path.join(op.opdir, "readback.npz"))
        expected = {"pivots": factor.pivots, "P": factor.P, "history": factor.trace_history}
        for key, want in expected.items():
            got = readback[key]
            if got.shape != want.shape or got.dtype != want.dtype:
                problems.append(f"read-back {key} is {got.dtype}{got.shape}, expected {want.dtype}{want.shape}")
            # compare bit patterns: -0.0 == 0.0 and NaN != NaN would hide differences
            elif not np.array_equal(_bits(got), _bits(want)):
                problems.append(f"read-back {key} is not bit-exact against the reference")
        if np.any(np.diff(readback["history"]) > 0):
            problems.append("read-back trace history increases")
        return problems, 1.0

    def character(self, config: dict, ops: list[Op]) -> list[str]:
        sizes = {(f.get("n"), f.get("s")) for f in
                 (_fields(op.stdout.splitlines()[0]) for op in ops if op.stdout)}
        want = (str(self.n), str(self.subset_size))
        return [] if sizes == {want} else [f"sizes (n, s) {sorted(sizes)} != {want}"]


class BaselineSweep(Workload):
    """``icfcluster bench`` over the five reference algorithms on the ring.

    The only workload that runs the baselines and the evaluate harness; it
    also runs Lloyd at n = 600 with wide embeddings and k = 2, twenty times
    per operation.  accuracy is the median over the CSV rows.
    """

    name = "baseline-sweep"
    algorithms = "kernel,chol,nystrom,rff,approx"
    seeds = 5
    predicted = ("cluster", "baselines")

    def prepare(self, seed: int, workdir: str) -> tuple[dict, Reference]:
        return {"spec": f"synth:ring:300:0.05:{seed}", "input_bytes": 0}, Reference()

    def run(self, config: dict, state, cluster_seed: int, opdir: str):
        _cli(["bench", config["spec"], "--sigma", "16", "--subset-size", "400",
              "--clusters", "2", "--seeds", str(self.seeds), "--algorithms", self.algorithms,
              "--out", os.path.join(opdir, "bench.csv")])

    def _rows(self, op: Op) -> tuple[bytes, list[list[str]]]:
        with open(os.path.join(op.opdir, "bench.csv"), "rb") as f:
            header, _, body = f.read().partition(b"\n")
        return header, [line.split(",") for line in body.decode("utf-8").splitlines()]

    def check(self, config: dict, ref: Reference, op: Op) -> tuple[list[str], float | None]:
        if op.error:
            return [op.error], None
        header, rows = self._rows(op)
        problems = []
        if header != CSV_HEADER.encode("utf-8"):
            problems.append(f"CSV header {header[:120]!r} differs from CSV_HEADER")
        expected = len(self.algorithms.split(",")) * self.seeds
        if len(rows) != expected:
            return problems + [f"{len(rows)} CSV rows, expected {expected}"], None
        return problems, statistics.median(float(r[4]) for r in rows)


def check_op(workload: Workload, config: dict, ref: Reference, op: Op) -> tuple[list[str], float | None]:
    """workload.check, with unreadable or malformed outputs reported as problems."""
    try:
        return workload.check(config, ref, op)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"outputs could not be read: {exc!r}"], None


WORKLOADS = {w.name: w for w in (FactorMixture(), LloydTail(), IoRoundtrip(), BaselineSweep())}
