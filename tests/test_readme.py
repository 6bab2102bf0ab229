import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_no_placeholder_left_outside_code():
    # An ALL_CAPS word joined by underscores, such as NUMBER_HERE, is a
    # placeholder unless it sits in a code block or span.
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    text = re.sub(r"`[^`\n]*`", "", text)
    assert re.findall(r"\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b", text) == []
