"""Runtime checks raise GitkitError, so they still hold under python -O,
which drops assert statements."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gitkit
from gitkit import characters, lie
from gitkit.lie import GitkitError

# Makes one worked example false, then breaks the invariants behind the
# checks in tensor_decompose and dominantize, and reports what it saw.
FALSE_CASES = """
import json, sys
from gitkit import characters, examples, horn, lie
from gitkit.lie import GitkitError

horn.polygon_nonempty = lambda lengths: True
rows, ok = examples.run_all()
codes = {}
real = characters.weyl_character
characters.weyl_character = lambda lam: characters.LaurentPoly(
    len(lam), dict(list(real(lam).terms.items())[1:]))
try:
    characters.tensor_decompose((1, 0), (1, 0))
except GitkitError as exc:
    codes["tensor_decompose"] = exc.code
lie.is_dominant = lambda mu: False
try:
    lie.dominantize((1, 3))
except GitkitError as exc:
    codes["dominantize"] = exc.code
print(json.dumps({"optimize": sys.flags.optimize, "ok": ok, "codes": codes,
                  "status": {name: status for name, status, _detail in rows}}))
"""


def test_false_cases_fail_under_python_O(tmp_path):
    src = str(Path(gitkit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-O", "-c", FALSE_CASES], capture_output=True,
                         text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                         timeout=300)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["optimize"] == 1
    assert out["ok"] is False
    assert out["status"].pop("triangle-sides") == "FAIL"
    assert set(out["status"].values()) == {"PASS"}
    assert out["codes"] == {"tensor_decompose": "internal", "dominantize": "internal"}


def test_tensor_decompose_dimension_check(monkeypatch):
    # a character that lost one weight makes the pieces fall short of the product
    real = characters.weyl_character
    monkeypatch.setattr(characters, "weyl_character", lambda lam: characters.LaurentPoly(
        len(lam), dict(list(real(lam).terms.items())[1:])))
    with pytest.raises(GitkitError) as exc:
        characters.tensor_decompose((1, 0), (1, 0))
    assert exc.value.code == "internal"


def test_dominantize_check(monkeypatch):
    monkeypatch.setattr(lie, "is_dominant", lambda mu: False)
    with pytest.raises(GitkitError) as exc:
        lie.dominantize((1, 3))
    assert exc.value.code == "internal"
