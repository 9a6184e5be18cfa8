"""Command line front end: synth, factorize, cluster, bench.

Dataset arguments accept either a LIBSVM file path or an inline synthetic
spec ``synth:<kind>:<per_cluster>:<noise>:<seed>``.  All output files are
written atomically (temp file in the target directory, then rename), so a
crashed run never leaves a half-written file behind; each gets the mode that
the umask gives a new file.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .cluster import MAX_ITER, lloyd
from .data import gen_synthetic, parse_libsvm, standardize, to_libsvm
from .evaluate import BenchmarkConfig, accuracy, run_benchmark
from .icf import EPSILON, dump_factor, icf_factorize, residual_trace
from .kernel import DEFAULT_GUARD, KernelSpec


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_synth(args) -> int:
    dataset = gen_synthetic(args.kind, args.per_cluster, args.noise, args.seed)
    _write_atomic(args.out, to_libsvm(dataset))
    print(f"wrote {args.out}: kind={args.kind} n={dataset.n} d={dataset.d}")
    return 0


def cmd_factorize(args) -> int:
    dataset = _load_dataset(args)
    spec = KernelSpec("gaussian", args.sigma)
    factor = icf_factorize(dataset, spec, max_rank=int(args.subset_size), epsilon=args.epsilon)
    if args.out:
        _write_atomic(args.out, dump_factor(factor))
    print(f"n={factor.n} s={factor.s} epsilon_final={residual_trace(factor):.6e} "
          f"kernel_evals={factor.kernel_evals} evals_bound={factor.n * (factor.s + 1)}")
    return 0


def cmd_cluster(args) -> int:
    dataset = _load_dataset(args)
    spec = KernelSpec("gaussian", args.sigma)
    t0 = time.perf_counter()
    factor = icf_factorize(dataset, spec, max_rank=int(args.subset_size), epsilon=args.epsilon)
    t1 = time.perf_counter()
    model = lloyd(factor.P, args.clusters, args.seed, max_iter=args.max_iter)
    t2 = time.perf_counter()
    if args.out:
        _write_atomic(args.out, "\n".join(map(str, model.assignments.tolist())) + "\n")
    print(f"n={dataset.n} s={factor.s} k={args.clusters} seed={args.seed}")
    print(f"objective={model.objective!r} iterations={model.iterations} converged={model.converged}")
    if dataset.labels is not None:
        print(f"accuracy={accuracy(model.assignments, dataset.labels)!r}")
    print(f"factorize_ms={(t1 - t0) * 1e3:.3f} cluster_ms={(t2 - t1) * 1e3:.3f} "
          f"total_ms={(t2 - t0) * 1e3:.3f}")
    return 0


def cmd_bench(args) -> int:
    dataset = _load_dataset(args)
    guard = max(DEFAULT_GUARD, dataset.n) if args.allow_full_gram else DEFAULT_GUARD
    config = BenchmarkConfig(
        dataset=dataset,
        algorithms=tuple(args.algorithms.split(",")),
        subset_sizes=tuple(int(s) for s in args.subset_size.split(",")),
        sigma=args.sigma,
        clusters=args.clusters,
        num_seeds=args.seeds,
        epsilon=args.epsilon,
        max_iter=args.max_iter,
        guard=guard,
    )
    report = run_benchmark(config)
    if args.out:
        _write_atomic(args.out, report.to_csv())
        print(f"wrote {args.out}: {len(report.rows)} rows")
    else:
        sys.stdout.write(report.to_csv())
    for algorithm in config.algorithms:
        rows = [r for r in report.rows if r.algorithm == algorithm]
        done = [r for r in rows if not r.skipped]
        skipped = len(rows) - len(done)
        accs = [r.accuracy for r in done if r.accuracy is not None]
        times = [r.total_ms for r in done if r.total_ms is not None]
        acc_s = f"{_median(accs):.4f}" if accs else "n/a"
        time_s = f"{_median(times):.1f}" if times else "n/a"
        print(f"algorithm={algorithm} rows={len(rows)} skipped={skipped} "
              f"median_accuracy={acc_s} median_total_ms={time_s}")
    return 0


def _median(values: list[float]) -> float:
    """numpy's median of a list without loading numpy.ma: the mean of its one or two middle values."""
    v = sorted(values)
    return (v[(len(v) - 1) // 2] + v[len(v) // 2]) / 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icfcluster",
        description="Kernel k-means on incomplete Cholesky factors of the Gram matrix.",
        allow_abbrev=False,  # a prefix must not stand for a flag: bench --seed is not --seeds
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("synth", allow_abbrev=False, help="generate a synthetic LIBSVM dataset")
    p.add_argument("kind", choices=("ring", "parabolic", "zigzag"))
    p.add_argument("per_cluster", type=int)
    p.add_argument("noise", type=float)
    p.add_argument("seed", type=int)
    p.add_argument("out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("factorize", allow_abbrev=False, help="factor the kernel matrix of a dataset")
    _dataset_args(p)
    p.add_argument("--out", help="write the factor dump here")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("cluster", allow_abbrev=False, help="kernel k-means via incomplete Cholesky")
    _dataset_args(p)
    p.add_argument("--clusters", type=int, default=2)
    p.add_argument("--max-iter", type=int, default=MAX_ITER)
    p.add_argument("--seed", type=int, default=0, help="k-means++ seed")
    p.add_argument("--out", help="write one assignment per line here")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("bench", allow_abbrev=False, help="timed sweep over algorithms, sizes, seeds")
    _dataset_args(p)
    p.add_argument("--clusters", type=int, default=2)
    p.add_argument("--max-iter", type=int, default=MAX_ITER)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--algorithms", default="icf",
                   help="comma-separated subset of icf,kernel,chol,nystrom,rff,approx")
    p.add_argument("--allow-full-gram", action="store_true",
                   help="let full-matrix algorithms run past the n=5000 guard")
    p.add_argument("--out", help="write the CSV report here (default: stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def _dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="LIBSVM file or synth:<kind>:<per_cluster>:<noise>:<seed>")
    p.add_argument("--sigma", type=float, required=True, help="Gaussian kernel parameter")
    p.add_argument("--subset-size", default="50",
                   help="factor rank cap; bench accepts a comma-separated list")
    p.add_argument("--epsilon", type=float, default=EPSILON)
    p.add_argument("--standardize", action="store_true",
                   help="shift/scale each feature to mean 0, std 1 after loading")


def _load_dataset(args):
    spec = args.input
    if spec.startswith("synth:"):
        try:
            _, kind, per_cluster, noise, seed = spec.split(":")
            dataset = gen_synthetic(kind, int(per_cluster), float(noise), int(seed))
        except ValueError as exc:
            raise ValueError(f"bad synthetic spec {spec!r}: {exc}") from None
    else:
        if not os.path.isfile(spec):
            raise ValueError(f"no such dataset file: {spec}")
        with open(spec, "rb") as f:
            dataset = parse_libsvm(f, name=os.path.basename(spec))
    if args.standardize:
        dataset = standardize(dataset)
    return dataset


# text is encoded and written this many characters at a time, so no encoded
# copy of the whole text is held: a slice and its encoding stay near a megabyte
_WRITE_CHARS = 1 << 18


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temp file beside it; an error names path, not the temp file."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-icfcluster-{os.urandom(8).hex()}")
    try:
        f = open(tmp, "xb")  # a new file, which gets the umask's mode
        try:
            with f:
                for start in range(0, len(text), _WRITE_CHARS):
                    f.write(text[start:start + _WRITE_CHARS].encode("utf-8"))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from None


if __name__ == "__main__":
    sys.exit(main())
