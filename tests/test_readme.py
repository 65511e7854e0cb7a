"""The README's command-line examples, run as written.

Every ```sh block whose first line is `$ steinberg ...` is run in-process,
and its stdout must equal the rest of the block.
"""

import io
import re
import shlex
from pathlib import Path

import pytest

from steinberg.cli import run

README = Path(__file__).parent.parent / "README.md"
EXAMPLES = [
    block
    for block in re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    if block.startswith("$ steinberg")
]


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("block", EXAMPLES, ids=lambda block: block.split("\n", 1)[0][2:])
def test_readme_example_prints_what_it_shows(block):
    command, expected = block.split("\n", 1)
    out = io.StringIO()
    run(shlex.split(command)[2:], stdout=out)
    assert out.getvalue() == expected
