"""Fresh-process set-up of one benchmark run, timed by its parent.

Reads the workload's scene texts as a JSON list on stdin, imports
edgeray, parses every scene and builds the first metric evaluator, then
prints "ready".  The parent times from process start to that line; see
``run.setup_probe``.  The probe then prints, as JSON, the times of five
reference solves, which gauge the speed of the vCPU it set up on, and
that vCPU's number.
"""

import json
import sys

import bootstrap

bootstrap.load_edgeray()
from edgeray.scenes import parse_scene  # noqa: E402

configs = [parse_scene(text) for text in json.load(sys.stdin)]
configs[0].spec.evaluator()
print("ready", flush=True)

from reference import current_cpu, reference_s  # noqa: E402

refs = [reference_s() for _ in range(5)]
print(json.dumps({"refs": refs, "cpu": current_cpu()}), flush=True)
