import re
from pathlib import Path

import craloha

README = Path(__file__).resolve().parent.parent / "README.md"


def test_export_paragraph_lists_all():
    """README's export paragraph names exactly ``craloha.__all__``."""
    text = README.read_text()
    match = re.search(r"The package exports (\d+) names:(.*?)Everything\s+else", text, re.DOTALL)
    assert match, "README has no 'The package exports N names: ...' paragraph"
    assert int(match.group(1)) == len(craloha.__all__)
    assert set(re.findall(r"`([^`]+)`", match.group(2))) == set(craloha.__all__)
