import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; the demos are deterministic
STDOUT_SHA256 = {
    "01_pieces_and_conditions.py": "32b4cd6640d3fc16da327339749e4b969730aa4c3a7d708462aede54ce98c1fd",
    "02_word_problem.py": "744f7497b4b8994e157ba24b42ebd321553a27ab935016d811084dd659c919e5",
    "03_cayley_balls_and_walls.py": "521b5338a9b0794fb6b6f5ee06edbeebb8825f87f5b72d8688876994d6208a72",
    "04_linear_separation.py": "b5a52c354c495408f6bbec777810826c9ac206a4ec05c4fd28da3721951d5fb0",
    "05_counterexamples.py": "6154c60386d28f5010c615adf929cf414b7969f84d52e68c2d5632ebd8b36403",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env.pop("WALLKIT_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name], r.stdout
