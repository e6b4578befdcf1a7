"""README's "Typical library session" runs and does what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_session():
    text = README.read_text()
    section = text[text.index("## Typical library session"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_session_runs_as_its_comments_say():
    ns = {}
    exec(_library_session(), ns)
    pt, points, path = ns["pt"], ns["points"], ns["path"]
    assert f"{pt.g_c:.6g}" == "-0.0413245"
    assert f"{pt.energy:.6g}" == "-62.5795"
    assert points.issues == []
    assert len(path.crossings) == 4
    assert max(s.residual_norm for s in path.samples) <= 1e-10
