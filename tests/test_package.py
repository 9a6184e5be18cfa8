"""The package's list of public names and its shared defaults."""

import inspect

import icfcluster
from icfcluster import cli
from icfcluster.cluster import MAX_ITER
from icfcluster.icf import EPSILON


def test_every_public_name_resolves_and_is_listed_once():
    names = icfcluster.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(icfcluster, name)] == []


def test_every_lloyd_cap_and_trace_threshold_default_is_the_named_one():
    # identity, not only equality: a default written out again as a literal
    # is another object and fails
    named = {"max_iter": MAX_ITER, "epsilon": EPSILON}
    found = {key: set() for key in named}
    for name in icfcluster.__all__:
        obj = getattr(icfcluster, name)
        if not callable(obj):
            continue
        params = inspect.signature(obj).parameters
        for key, default in named.items():
            if key in params:
                assert params[key].default is default, f"{name}({key}=...)"
                found[key].add(name)
    assert found == {
        "max_iter": {"BenchmarkConfig", "approx_kkmeans", "bound_gap", "lloyd"},
        "epsilon": {"BenchmarkConfig", "bound_gap", "icf_factorize"},
    }
    parser = cli._build_parser()
    for command in ("factorize", "cluster", "bench"):
        args = parser.parse_args([command, "input", "--sigma", "1"])
        assert args.epsilon is EPSILON
        assert getattr(args, "max_iter", MAX_ITER) is MAX_ITER
    assert MAX_ITER == 1000 and EPSILON == 1e-3
