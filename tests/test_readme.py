"""The README's Python examples run as written: its three ```python blocks,
in order, in one namespace, as a reader would paste them."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["f_max"] == pytest.approx(0.8536, abs=1e-4)
    assert namespace["f_nh"] == pytest.approx(0.8, abs=2e-3)
    assert namespace["worst"] < 1e-10
    out, n_eff = namespace["out"], namespace["n_eff"]
    assert out.xx - 0.5 == pytest.approx(n_eff, rel=1e-12) and out.pp == out.xx
    assert namespace["lighter"].mass == 5e-11
