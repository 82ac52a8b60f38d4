"""SPEC001 negative fixture: valid paths and non-path strings."""

GRID_AXES = {
    "tiers.1.capacity": ["256KiB", "1MiB"],
    "serving.concurrency": [1, 2, 4],
    "tiers.1.devices": [1, 4],
}

SWEEP_PARAM = "traffic.offered_qps"
WHOLE_SECTION = "workload"
NOT_A_SPEC_PATH = "os.path.join"  # unknown root: ignored, not validated
PROSE = "tune serving.concurrency before the run"  # spaces: not a path literal
