"""One module per benchmark workload; each exposes build(seed, workdir) -> Workload."""
