"""Every Python source parses under the oldest grammar `pyproject.toml`
allows (`requires-python = ">=3.10"`), whichever interpreter runs the suite.

`ast.parse(..., feature_version=(3, 10))` refuses the newer syntax it knows
of, such as `except*`. The files are only read.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("src", "tests", "scripts", "perfbench")


def test_every_source_parses_as_python_3_10():
    refused, trees = [], set()
    for tree in TREES:
        for folder, _, files in os.walk(os.path.join(ROOT, tree)):
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(folder, name)
                trees.add(tree)
                with open(path, encoding="utf-8") as fh:
                    try:
                        ast.parse(fh.read(), filename=path, feature_version=(3, 10))
                    except SyntaxError as exc:
                        refused.append(f"{os.path.relpath(path, ROOT)}: {exc}")
    assert trees == set(TREES)  # each tree holds sources: the walk found them
    assert refused == []
