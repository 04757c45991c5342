"""Time one cold set-up in a fresh interpreter and print it in seconds.

Set-up is importing smclab, then parsing and validating every scenario
document in the JSON list given as the only argument.  run.py starts this
script several times and reports the median.

    python3 perfbench/setup_probe.py docs.json
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import json  # noqa: E402

from smclab import scenarios  # noqa: E402

with open(sys.argv[1]) as f:
    docs = json.load(f)
for doc in docs:
    scenarios.validate(doc)
print(time.perf_counter() - t0)
