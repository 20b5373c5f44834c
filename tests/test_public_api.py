"""The package's public names are the list README documents."""

import re
from pathlib import Path

import pluralitysim

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_the_documented_list_and_every_name_resolves():
    # A contract change edits README's list and __all__ together, on purpose.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Public names\n.*?```\n(.*?)```", text, re.DOTALL)
    assert block is not None, "README has no public-name block"
    assert sorted(pluralitysim.__all__) == sorted(block.group(1).split())
    for name in pluralitysim.__all__:
        assert hasattr(pluralitysim, name), name
