import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import collapse_sim

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # each demo writes its figures under output/ in the working directory
    package_root = os.path.dirname(os.path.dirname(collapse_sim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for figure in (tmp_path / "output").glob("*.svg"):
        assert ET.parse(str(figure)).getroot().tag.endswith("svg"), figure.name
