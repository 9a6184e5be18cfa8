"""icfcluster benchmark: workloads, measured worker, tracing wrappers."""
