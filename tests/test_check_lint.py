"""Tests of the determinism lint (``repro.check.lint``), the ``check``
command that runs it, and the typing gate."""

from __future__ import annotations

import ast
import json
import subprocess
import sys

import pytest

from repro.check import lint as lint_mod
from repro.check.findings import Finding, render, render_json
from repro.check.lint import default_src_root, dotted, lint_source, lint_tree
from repro.experiments.runner import main


def _codes(source: str):
    return [f.code for f in lint_source(source)]


# -- the gate itself ----------------------------------------------------------

def test_src_tree_is_lint_clean():
    """The shipped sources contain no undeclared nondeterminism."""
    findings = lint_tree(default_src_root())
    assert findings == [], "\n".join(str(f) for f in findings)


# -- DL001: unseeded randomness -----------------------------------------------

def test_dl001_bare_random_module_calls():
    assert _codes("import random\nx = random.random()\n") == ["DL001"]
    assert _codes("import random\nrandom.shuffle(items)\n") == ["DL001"]
    assert _codes("import secrets\nt = secrets.token_hex()\n") == ["DL001"]
    assert _codes("import uuid\nu = uuid.uuid4()\n") == ["DL001"]
    assert _codes("import os\nb = os.urandom(8)\n") == ["DL001"]


def test_dl001_unseeded_default_rng():
    assert _codes("import numpy as np\nr = np.random.default_rng()\n") \
        == ["DL001"]
    assert _codes("from numpy.random import default_rng\nr = default_rng()\n")\
        == ["DL001"]


def test_dl001_seeded_generators_allowed():
    assert _codes("import random\nrng = random.Random(7)\nrng.random()\n") \
        == []
    assert _codes("import numpy as np\nr = np.random.default_rng(42)\n") == []


def test_dl001_sees_through_call_chains():
    """``random.Random().random()`` puts an ``ast.Call`` mid-chain; the
    dotted-name flattener must see through it (regression: this used to
    escape because the chain broke at the inner call)."""
    assert _codes("import random\nx = random.Random().random()\n") \
        == ["DL001"]


# -- DL002: wall-clock reads --------------------------------------------------

def test_dl002_wall_clock_reads():
    assert _codes("import time\nt = time.time()\n") == ["DL002"]
    assert _codes("import time\nt = time.perf_counter()\n") == ["DL002"]
    assert _codes("from datetime import datetime\nd = datetime.now()\n") \
        == ["DL002"]


# -- DL003: set iteration order -----------------------------------------------

def test_dl003_direct_set_iteration():
    assert _codes("for x in {1, 2, 3}:\n    pass\n") == ["DL003"]
    assert _codes("ys = [x for x in set(items)]\n") == ["DL003"]


def test_dl003_sorted_set_allowed():
    assert _codes("for x in sorted({1, 2, 3}):\n    pass\n") == []
    # Named sets are out of scope (the lint targets the literal pattern).
    assert _codes("s = {1, 2}\nfor x in s:\n    pass\n") == []


# -- DL004: mutable default arguments -----------------------------------------

def test_dl004_mutable_defaults():
    assert _codes("def f(x=[]):\n    pass\n") == ["DL004"]
    assert _codes("def f(*, x={}):\n    pass\n") == ["DL004"]
    assert _codes("def f(x=dict()):\n    pass\n") == ["DL004"]
    assert _codes("def f(x=(), y=None):\n    pass\n") == []


# -- DL005: float equality ----------------------------------------------------

def test_dl005_float_literal_equality():
    assert _codes("ok = x == 1.5\n") == ["DL005"]
    assert _codes("ok = 0.0 != y\n") == ["DL005"]
    assert _codes("ok = x == -2.5\n") == ["DL005"]


def test_dl005_float_call_and_sentinels():
    assert _codes("ok = x == float(s)\n") == ["DL005"]
    assert _codes("import math\nok = x == math.inf\n") == ["DL005"]
    assert _codes("import math\nok = x != math.nan\n") == ["DL005"]


def test_dl005_chained_comparison_reported_once():
    assert _codes("ok = 0.0 == x == 1.0\n") == ["DL005"]


def test_dl005_ordering_and_int_comparisons_allowed():
    assert _codes("ok = x <= 1.5\n") == []
    assert _codes("ok = x == 1\n") == []
    assert _codes("ok = x >= float(s)\n") == []


def test_dl005_pragma_acknowledges_exact_test():
    assert _codes("ok = rate == 1.0  # det-lint: allow (exact config)\n") \
        == []


# -- plumbing -----------------------------------------------------------------

def test_pragma_suppresses_one_line():
    src = ("import time\n"
           "a = time.perf_counter()  # det-lint: allow\n"
           "b = time.perf_counter()\n")
    findings = lint_source(src, "mod.py")
    assert [f.code for f in findings] == ["DL002"]
    assert findings[0].location == "mod.py:3"


def test_syntax_error_reported_not_raised():
    findings = lint_source("def broken(:\n", "bad.py")
    assert [f.code for f in findings] == ["DL000"]


def test_dotted_sees_through_calls():
    expr = ast.parse("random.Random().random()", mode="eval").body
    assert dotted(expr.func) == ("random", "Random", "random")
    plain = ast.parse("a.b.c", mode="eval").body
    assert dotted(plain) == ("a", "b", "c")
    assert dotted(ast.parse("f()", mode="eval").body.func) == ("f",)


def test_findings_render_sorted_by_code_and_location():
    fs = [Finding("DL002", "b", "mod.py:9"), Finding("DL001", "a", "mod.py:7"),
          Finding("DL001", "c", "lib.py:3")]
    assert render(fs).splitlines() == ["[ERROR] DL001: c (lib.py:3)",
                                       "[ERROR] DL001: a (mod.py:7)",
                                       "[ERROR] DL002: b (mod.py:9)"]


def test_render_json_is_sorted_and_parseable():
    findings = lint_source("import time\nb = time.time()\n"
                           "import random\na = random.random()\n", "mod.py")
    payload = json.loads(render_json(findings))
    assert [f["code"] for f in payload] == ["DL001", "DL002"]
    assert set(payload[0]) == {"severity", "code", "message", "location"}


def test_locations_are_relative_to_package_parent():
    findings = lint_tree(default_src_root())
    assert findings == []  # and, separately, on a tree with findings:
    from repro.check.lint import lint_paths
    root = default_src_root()
    some = sorted(root.rglob("*.py"))[:1]
    assert lint_paths(some, root=root.parent) == []


# -- the check command --------------------------------------------------------

def test_check_command_lints_the_tree(capsys):
    assert main(["check"]) == 0
    assert capsys.readouterr().out == "determinism lint: 0 finding(s)\n"
    assert main(["check", "--json"]) == 0
    assert capsys.readouterr().out == "[]\n"


def test_check_command_fails_on_a_finding(monkeypatch, capsys):
    monkeypatch.setattr(lint_mod, "lint_tree", lambda root: lint_source(
        "import time\nt = time.time()\n", "mod.py"))
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[ERROR") and "DL002" in lines[0]
    assert lines[-1] == "determinism lint: 1 finding(s)"


@pytest.mark.parametrize("argv", [["check", "fig6"], ["check", "--all"],
                                  ["check", "--lint"]])
def test_check_command_takes_no_experiments(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# -- mypy strictness ladder (satellite) ---------------------------------------

def test_mypy_strict_ladder():
    """Run the configured mypy ladder when mypy is available.

    The container image does not ship mypy; CI installs it and runs this
    test (plus the same command standalone in the lint-and-check job).
    """
    pytest.importorskip("mypy")
    root = default_src_root().parent.parent  # repo root (pyproject.toml)
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file",
         str(root / "pyproject.toml")],
        cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
