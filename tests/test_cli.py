import csv
import json
import os

import numpy as np
import pytest

from scatmodes import dataio
from scatmodes.cli import (EXIT_COMPUTE, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION,
                           main)


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def mie_config(tmp_path):
    return _write_config(tmp_path, {
        "backend": {"type": "mie", "eps_r": 3.0, "radius": 1.0},
        "frequencies": {"ka": [0.8, 1.0, 1.2]},
        "quadrature": 26,
        "output": str(tmp_path / "out"),
    })


def test_sweep_writes_datasets_modes_traces_manifest(tmp_path, mie_config):
    assert main(["sweep", "--config", mie_config]) == EXIT_OK
    out = str(tmp_path / "out")
    manifest = dataio.read_manifest(out)
    assert manifest["complete"] is True
    assert len(manifest["entries"]) == 3
    for entry in manifest["entries"]:
        assert os.path.exists(os.path.join(out, entry["dataset"]))
        assert os.path.exists(os.path.join(out, entry["modes"]))
        assert entry["traces"] == "traces.csv"
    with open(os.path.join(out, "traces.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {"trace_id", "frequency", "alpha_n"} <= set(rows[0])


def test_validate_sweep_directory_passes(tmp_path, mie_config):
    assert main(["sweep", "--config", mie_config]) == EXIT_OK
    assert main(["validate", str(tmp_path / "out")]) == EXIT_OK


def test_sweep_and_validate_on_rule_with_negative_weights(tmp_path):
    # the 74-point Lebedev rule carries negative weights
    config = _write_config(tmp_path, {
        "backend": {"type": "mie", "eps_r": 3.0, "radius": 1.0},
        "frequencies": {"ka": [1.0, 1.2]},
        "quadrature": 74,
        "output": str(tmp_path / "out"),
    })
    assert main(["sweep", "--config", config]) == EXIT_OK
    assert main(["validate", str(tmp_path / "out")]) == EXIT_OK


def test_validate_corrupted_dataset_fails(tmp_path, mie_config, capsys):
    assert main(["sweep", "--config", mie_config]) == EXIT_OK
    out = tmp_path / "out"
    target = out / "dataset_0000.csv"
    smat = dataio.read_dataset(str(target))
    corrupted = np.array(smat.matrix)
    corrupted[2, 9] += 1e-3
    bad = type(smat)(rule=smat.rule, k=smat.k, matrix=corrupted)
    dataio.write_dataset(bad, str(target))
    assert main(["validate", str(target)]) == EXIT_VALIDATION
    assert "FAIL" in capsys.readouterr().out


def test_validate_missing_dataset_fails_per_file(tmp_path, mie_config, capsys):
    assert main(["sweep", "--config", mie_config]) == EXIT_OK
    out = tmp_path / "out"
    (out / "dataset_0001.csv").unlink()
    capsys.readouterr()
    assert main(["validate", str(out)]) == EXIT_VALIDATION
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert "dataset_0001.csv" in lines[1] and lines[1].endswith("FAIL")
    assert lines[0].endswith("PASS") and lines[2].endswith("PASS")


def test_validate_tolerance_override_can_fail_good_data(tmp_path, mie_config):
    assert main(["sweep", "--config", mie_config]) == EXIT_OK
    target = str(tmp_path / "out" / "dataset_0000.csv")
    assert main(["validate", target]) == EXIT_OK
    assert main(["validate", target,
                 "--tolerance", "reciprocity=1e-30"]) == EXIT_VALIDATION


def test_empty_frequency_grid_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path, {
        "backend": {"type": "mie", "eps_r": 3.0},
        "frequencies": {"ka": []},
    })
    assert main(["sweep", "--config", cfg]) == EXIT_USAGE


def test_unknown_backend_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path, {
        "backend": {"type": "nonsense"},
        "frequencies": {"ka": [1.0]},
    })
    assert main(["sweep", "--config", cfg]) == EXIT_USAGE


def test_flags_override_config(tmp_path, mie_config):
    out2 = str(tmp_path / "flagged")
    assert main(["sweep", "--config", mie_config, "--out", out2,
                 "--nq", "14"]) == EXIT_OK
    manifest = dataio.read_manifest(out2)
    first = dataio.read_dataset(
        os.path.join(out2, manifest["entries"][0]["dataset"]))
    assert first.rule.n_points == 14


def test_inline_backend_and_frequency_flags(tmp_path):
    out = str(tmp_path / "inline")
    backend = json.dumps({"type": "mie", "eps_r": 2.0})
    code = main(["sweep", "--backend", backend, "--out", out, "--nq", "14",
                 "--freq-start", "4.7713e7", "--freq-count", "1"])
    assert code == EXIT_OK
    manifest = dataio.read_manifest(out)
    assert len(manifest["entries"]) == 1
    assert manifest["entries"][0].get("traces") is None  # single frequency


def test_unsupported_quadrature_size_is_compute_error(tmp_path, mie_config):
    # 15 is not a tabulated rule size; the failure surfaces as a library error
    code = main(["sweep", "--config", mie_config, "--nq", "15",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_COMPUTE


def test_dda_sweep_runs(tmp_path):
    cfg = _write_config(tmp_path, {
        "backend": {"type": "dda", "extent": [2, 2, 1], "spacing": 0.05,
                    "eps_r": 3.0},
        "frequencies": {"ka": [1.0]},
        "quadrature": 14,
        "output": str(tmp_path / "dda_out"),
    })
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    manifest = dataio.read_manifest(str(tmp_path / "dda_out"))
    assert manifest["complete"] is True


def test_precision_study_outputs_table(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "backend": {"type": "mie", "eps_r": 3.0},
        "frequencies": {"ka": [1.0]},
        "output": str(tmp_path / "prec"),
    })
    assert main(["precision-study", "--config", cfg,
                 "--nq-list", "14,26", "--reference", "50"]) == EXIT_OK
    with open(tmp_path / "prec" / "precision_study.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n_q"]) for r in rows] == [14, 26]
    # the coarse rule sits below the sampling estimate and is annotated
    assert "below" in rows[0]["note"]
    assert float(rows[1]["magnitude_error"]) < float(rows[0]["magnitude_error"])


def test_precision_study_overflow_is_compute_error(tmp_path, capsys):
    # the radial recursion overflows at l=32 for this contrast and size
    cfg = _write_config(tmp_path, {
        "backend": {"type": "mie", "eps_r": 1e12, "radius": 1.0, "l_max": 40},
        "frequencies": {"ka": [1e-8]},
        "output": str(tmp_path / "prec"),
    })
    assert main(["precision-study", "--config", cfg,
                 "--nq-list", "26", "--reference", "50"]) == EXIT_COMPUTE
    err = capsys.readouterr().err
    assert "compute error" in err and "l=32" in err
    assert "Traceback" not in err


def test_precision_study_requires_larger_reference(tmp_path):
    cfg = _write_config(tmp_path, {
        "backend": {"type": "mie", "eps_r": 3.0},
        "frequencies": {"ka": [1.0]},
    })
    assert main(["precision-study", "--config", cfg,
                 "--nq-list", "26,50", "--reference", "50"]) == EXIT_USAGE
