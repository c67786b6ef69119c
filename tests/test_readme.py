"""The README's examples run as written and its tables name what the code
has, so a renamed flag or field cannot leave it stale."""

import dataclasses
import re
import shlex
from pathlib import Path

from rollhorizon.cli import main
from rollhorizon.model import SolverConfig

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()


def test_library_quickstart_runs(capsys):
    section = README[README.index("## Library quickstart"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert re.fullmatch(r"served \d+/3, vmt \d+\.\d\d\n", capsys.readouterr().out)


def test_cli_example_runs(tmp_path, capsys, monkeypatch):
    line = re.search(r"^rollhorizon solve --instance tests/data/.*$", README, re.M).group(0)
    argv = shlex.split(line)[1:]
    at = argv.index("--instance") + 1
    argv[at] = str(ROOT / argv[at])
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert "service_rate=" in capsys.readouterr().out
    assert (tmp_path / "synthetic_pd_small.report.json").exists()


def test_configuration_table_lists_every_solver_field():
    section = README[README.index("### Configuration"):]
    table = re.match(r"### Configuration\n\n((?:\|.*\n)+)", section).group(1)
    names = {name for row in table.splitlines()[2:]
             for name in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert names == {f.name for f in dataclasses.fields(SolverConfig)}
