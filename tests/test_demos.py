"""Each demo script, and the README's examples, run as a user would start
them."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


def _run(args, cwd=REPO):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=120)


def _readme_block(heading, lang):
    """The first fenced `lang` block after the README line holding heading."""
    text = (REPO / "README.md").read_text()
    start = text.index(heading)
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(text, start)
    return match.group(1)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    result = _run([str(demo)])
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs():
    result = _run(["-c", _readme_block("## Library quick start", "python")])
    assert result.returncode == 0, result.stderr
    assert "circle residual" in result.stdout


def test_readme_solver_wrapper_runs():
    result = _run(["-c", _readme_block("### Plugging in another solver",
                                       "python")])
    assert result.returncode == 0, result.stderr
    assert "wrapper matches DdaBackend" in result.stdout


def test_readme_config_sweeps_and_validates(tmp_path):
    config = json.loads(_readme_block("Example `config.json`", "json"))
    (tmp_path / "config.json").write_text(json.dumps(config))
    cli = ["-m", "scatmodes.cli"]
    sweep = _run([*cli, "sweep", "--config", "config.json"], cwd=tmp_path)
    assert sweep.returncode == 0, sweep.stderr
    validate = _run([*cli, "validate", config["output"]], cwd=tmp_path)
    assert validate.returncode == 0, validate.stdout + validate.stderr


def test_readme_study_config_runs_the_precision_study(tmp_path):
    config = json.loads(_readme_block("Example `study.json`", "json"))
    (tmp_path / "study.json").write_text(json.dumps(config))
    command = _readme_block("## CLI", "bash").splitlines()[-1].split()
    assert command[:4] == ["scatmodes", "precision-study", "--config",
                           "study.json"]
    study = _run(["-m", "scatmodes.cli", *command[1:]], cwd=tmp_path)
    assert study.returncode == 0, study.stderr
    assert (tmp_path / config["output"] / "precision_study.csv").exists()
