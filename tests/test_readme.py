"""The README's Quick start runs against the current API, and its CSV header is the schema's."""

import re
from pathlib import Path

from linfrec import frozen
from linfrec.harness import CSV_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    text = README.read_text()
    section = text.split("## Quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "Quick start has no python block"
    return match.group(1)


def test_quick_start_runs():
    ns = {"__name__": "readme_quick_start"}
    exec(compile(quick_start_code(), str(README), "exec"), ns)
    # the estimate meets criterion 03's bound, scored by the snippet itself
    assert ns["linf_error"] <= frozen.OBLIVIOUS_ERROR_CONSTANT * ns["r"]


def test_csv_header_shown_is_the_schema():
    section = README.read_text().split("## Experiment configs and CSV schema", 1)[1]
    match = re.search(r"```\n(.*?)\n```", section, re.DOTALL)
    assert match, "the CSV schema section shows no header"
    assert match.group(1) == ",".join(CSV_COLUMNS)
