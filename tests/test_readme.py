"""The python blocks of README.md run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


KINDS = {"equivalence": "equiv", "implication": "impl", "bound": "bound"}


def test_the_check_table_lists_every_check_id_with_the_kind_of_its_report():
    from ginv import CHECKS, EnsembleConfig, run_campaign

    rows = re.findall(r"^\| `([^`]+)` \| (\w+) \|", README.read_text(encoding="utf-8"), flags=re.M)
    table = {check_id: KINDS[kind] for check_id, kind in rows}
    assert len(table) == len(rows) and set(table) == set(CHECKS)
    seen = {}
    config = EnsembleConfig(n_range=(3, 4), rank_range=(1, 3), count=3, seed=1, theorems=tuple(CHECKS))
    run_campaign(config, on_report=lambda check_id, index, kind, report: seen.setdefault(check_id, kind))
    assert seen == table
