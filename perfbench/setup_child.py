"""Fresh-interpreter set-up probe: import g2frames and run one 1-probe config.

Usage: python3 perfbench/setup_child.py '<config json>'
The parent times this process from start to exit; the exit code is 0 only
if the report passes.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from g2frames import cli  # noqa: E402

report = cli.run(cli.RunConfig.from_dict(json.loads(sys.argv[1])))
report.to_json()
sys.exit(0 if report.passed else 1)
