"""The package's public surface."""

import ast
import re
from pathlib import Path

import oam_antijam

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in oam_antijam.__all__ if not hasattr(oam_antijam, name)]
    assert missing == []
    assert len(set(oam_antijam.__all__)) == len(oam_antijam.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from oam_antijam import *", namespace)
    assert set(oam_antijam.__all__) <= set(namespace)


def test_readme_lists_the_public_names_its_example_imports():
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    line, = [text for text in section.splitlines() if text.startswith("Public names:")]
    listed = re.findall(r"`(\w+)`", line)
    assert listed == sorted(oam_antijam.__all__)
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = {alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "oam_antijam"
                for alias in node.names}
    assert imported and imported <= set(listed)
    # the "What's inside" tree marks the same names
    assert sorted(re.findall(r"(\w+)★", README.read_text())) == listed
