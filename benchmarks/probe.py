"""Set-up probe: import cubeforge the way `cubeforge run` does, parse one
config, and print the monotonic clock.

    python3 benchmarks/probe.py <src dir> '<config json>'

run.py reads the same system-wide clock just before starting this process,
so the difference is what a CLI user waits before any layer runs.
"""
import json
import sys
import time

sys.path.insert(0, sys.argv[1])

import cubeforge.cli  # noqa: E402,F401  (the CLI's own imports)
from cubeforge.pipeline import PipelineConfig  # noqa: E402

PipelineConfig.from_json(json.loads(sys.argv[2]))
print(time.monotonic())
