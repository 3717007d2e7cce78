import csv
import io
import json
import math
import os
import pathlib
import pickle
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatmodes as sm
from scatmodes import cli, dataio
from scatmodes.errors import DimensionMismatch, ParseError
from scatmodes import build_block
from scatmodes.cli import (EXIT_COMPUTE, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION,
                           main, parse_tolerances)


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


def test_validate_unparsable_datasets_fail_per_file(tmp_path, mie_config,
                                                    capsys, write_v1_dataset):
    assert main(["sweep", "--config", mie_config]) == EXIT_OK
    out = tmp_path / "out"
    for name in ("dataset_0000.csv", "dataset_0001.csv"):  # as CSV, version 1
        write_v1_dataset(dataio.read_dataset(str(out / name)), str(out / name))
    bad_row = out / "dataset_0000.csv"
    lines = bad_row.read_text().splitlines(keepends=True)
    lines[5] = "5,x,0.5,0.5\r\n"
    bad_row.write_text("".join(lines))
    short = out / "dataset_0001.csv"
    short.write_text("".join(short.read_text().splitlines(keepends=True)[:-3]))
    capsys.readouterr()
    assert main(["validate", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 3
    assert "dataset_0000.csv: line 6:" in lines[0]
    assert lines[0].endswith("FAIL")
    assert "dataset_0001.csv: body has" in lines[1]
    assert lines[1].endswith("FAIL")
    assert "dataset_0002.csv" in lines[2] and lines[2].endswith("PASS")
    assert "compute error" not in captured.err


@pytest.mark.parametrize("damage", ["weight-zero", "phi-nan", "phi-infinity",
                                    "numeric-string", "boolean"])
def test_validate_fails_a_rule_it_cannot_decompose(tmp_path, mie_config,
                                                   capsys, damage):
    assert main(["sweep", "--config", mie_config]) == EXIT_OK
    out = tmp_path / "out"
    target = out / "dataset_0001.csv"
    header = json.loads(target.read_text())
    rule = header["rule"]
    if damage == "weight-zero":  # weight 0 onto weight 1: the sum stays 4 pi
        rule[1][2] += rule[0][2]
        rule[0][2] = 0.0
    elif damage == "numeric-string":  # the same phi, spelled as a string
        rule[3][1] = str(rule[3][1])
    elif damage == "boolean":
        rule[3][1] = True
    else:
        rule[3][1] = math.nan if damage == "phi-nan" else math.inf
    target.write_text(json.dumps(header) + "\n")
    capsys.readouterr()
    assert main(["validate", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 3
    assert "dataset_0001.csv: line 1: malformed rule entry" in lines[1]
    assert lines[1].endswith("-> FAIL")
    assert lines[0].endswith("PASS") and lines[2].endswith("PASS")
    assert captured.err == ""


def _npy(array, **kwargs):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, **kwargs)
    return buf.getvalue()


def _forged_shape(raw):
    # a header of the same length that promises a huge array
    end = raw.index(b"\n", 10)
    head = raw[:end].replace(b"(52, 52)", b"(99999999, 99999)")
    return head[:10] + head[10:].ljust(end - 10) + raw[end:]


def _body_bytes(damage):
    def apply(out):
        body = out / "dataset_0001.npy"
        body.write_bytes(damage(body.read_bytes()))
    return apply


def _body_name(name, drop=False):
    def apply(out):
        header_path = out / "dataset_0001.csv"
        header = json.loads(header_path.read_text())
        if drop:
            del header["body"]
        else:
            header["body"] = name
        header_path.write_text(json.dumps(header) + "\n")
        (out / "sub").mkdir()  # so that "sub/..." names a file that exists
        shutil.copy(out / "dataset_0001.npy", out / "sub")
    return apply


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """A finished three-frequency N_q=26 sweep directory; copy before use."""
    root = tmp_path_factory.mktemp("sweep")
    config = _write_config(root, {
        "backend": {"type": "mie", "eps_r": 3.0, "radius": 1.0},
        "frequencies": {"ka": [0.8, 1.0, 1.2]},
        "quadrature": 26,
        "output": str(root / "out"),
    })
    assert main(["sweep", "--config", config]) == EXIT_OK
    return root / "out"


@pytest.mark.parametrize("damage, error", [
    pytest.param(_body_bytes(lambda raw: b""), ParseError, id="empty"),
    pytest.param(_body_bytes(lambda raw: raw[:-17]), DimensionMismatch,
                 id="truncated"),
    pytest.param(_body_bytes(lambda raw: raw[:128]), DimensionMismatch,
                 id="header-only"),
    pytest.param(_body_bytes(lambda raw: raw + bytes(16)), DimensionMismatch,
                 id="trailing-bytes"),
    pytest.param(_body_bytes(_forged_shape), DimensionMismatch,
                 id="forged-shape"),
    pytest.param(_body_bytes(lambda raw: b"0,0,0,0\r\n" * 9), ParseError,
                 id="not-npy"),
    *[pytest.param(_body_bytes(lambda raw, a=a: _npy(a)), error, id=name)
      for name, a, error in [
          ("c8", np.zeros((52, 52), "<c8"), ParseError),
          ("big-endian", np.zeros((52, 52), ">c16"), ParseError),
          ("f8", np.zeros((52, 52), "<f8"), ParseError),
          ("fortran", np.zeros((52, 52), "<c16", order="F"), ParseError),
          ("wrong-shape", np.zeros((52, 51), "<c16"), DimensionMismatch),
          ("flat", np.zeros(52 * 52, "<c16"), DimensionMismatch)]],
    pytest.param(_body_bytes(lambda raw: _npy(np.zeros((52, 52), object),
                                              allow_pickle=True)),
                 ParseError, id="object"),
    pytest.param(_body_bytes(lambda raw: _npy(np.zeros((52, 52), "<c16"),
                                              version=(2, 0))),
                 ParseError, id="npy-format-2.0"),
    pytest.param(_body_bytes(lambda raw: pickle.dumps(np.zeros((52, 52)))),
                 ParseError, id="pickle"),
    pytest.param(lambda out: (out / "dataset_0001.npy").unlink(), ParseError,
                 id="missing"),
    pytest.param(_body_name(None, drop=True), ParseError,
                 id="no-body-field"),
    *[pytest.param(_body_name(name), ParseError, id=f"body={name!r}")
      for name in ["../dataset_0001.npy", "/abs/dataset_0001.npy",
                   "sub/dataset_0001.npy", "", ".", "..", 7, None,
                   ["dataset_0001.npy"]]],
])
def test_validate_bad_v2_body_fails_its_line(tmp_path, sweep_dir, capsys,
                                             damage, error):
    out = tmp_path / "out"
    shutil.copytree(sweep_dir, out)
    damage(out)
    header_path = out / "dataset_0001.csv"
    with pytest.raises(error):
        dataio.read_dataset(str(header_path))

    capsys.readouterr()
    assert main(["validate", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith(f"{header_path}: ")
    assert lines[1].endswith("-> FAIL") and "reciprocity" not in lines[1]
    assert lines[0].endswith("PASS") and lines[2].endswith("PASS")
    assert captured.err == ""


@pytest.mark.parametrize("manifest", [
    None, "{not json", '{"entries": 3}', '{"entries": [{"dataset": 5}]}',
    '{"entries": [{"dataset": null}]}'])
def test_validate_bad_manifest_fails(tmp_path, capsys, manifest):
    if manifest is not None:
        (tmp_path / "manifest.json").write_text(manifest)
    assert main(["validate", str(tmp_path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and "manifest.json: " in lines[0]
    assert lines[0].endswith("-> FAIL")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("where", ["parent", "absolute", "subdirectory",
                                   "empty"])
def test_validate_fails_a_manifest_dataset_that_is_not_a_file_name(
        tmp_path, sweep_dir, capsys, where):
    """A manifest lists the datasets beside it: an entry that leads out of
    its directory or into a subdirectory fails the manifest, though the
    file it names is a good dataset."""
    shutil.copytree(sweep_dir, tmp_path / "a")
    (tmp_path / "c" / "sub").mkdir(parents=True)
    shutil.copy(tmp_path / "a" / "dataset_0000.csv", tmp_path / "c" / "sub")
    shutil.copy(tmp_path / "a" / "dataset_0000.npy", tmp_path / "c" / "sub")
    dataset = {"parent": "../a/dataset_0000.csv",
               "absolute": str(tmp_path / "a" / "dataset_0000.csv"),
               "subdirectory": "sub/dataset_0000.csv",
               "empty": ""}[where]
    (tmp_path / "c" / "manifest.json").write_text(json.dumps(
        {"complete": True, "entries": [{"dataset": dataset}]}))
    with pytest.raises(ParseError, match="in the directory"):
        dataio.read_manifest(str(tmp_path / "c"))
    capsys.readouterr()
    assert main(["validate", str(tmp_path / "c")]) == EXIT_VALIDATION
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"{tmp_path / 'c' / 'manifest.json'}: ")
    assert lines[0].endswith("-> FAIL")


def test_validate_fails_a_dataset_it_cannot_check_and_goes_on(
        tmp_path, sweep_dir, capsys):
    # a rule without antipodes has no reciprocity check; it once ended the
    # whole run as a compute error before the good dataset was read
    out = tmp_path / "out"
    shutil.copytree(sweep_dir, out)
    third = 4.0 * math.pi / 3.0
    rule = sm.QuadratureRule(theta=[0.0, 2.0, 2.0], phi=[0.0, 0.0, 3.0],
                             weights=[third] * 3, order_capability=0)
    sphere = sm.LayeredSphere.homogeneous(1.0, 3.0)
    dataio.write_dataset(sm.MieBackend(sphere, 1).sample(rule, 1.0),
                         str(out / "no_antipodes.csv"))
    entries = dataio.read_manifest(str(out))["entries"]
    (out / "manifest.json").write_text(json.dumps({"complete": True, "entries": [
        {"dataset": "no_antipodes.csv"}, entries[0]]}))
    capsys.readouterr()
    assert main(["validate", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 2
    assert lines[0] == (f"{out / 'no_antipodes.csv'}: no antipode for point 0 "
                        f"of rule custom-3 -> FAIL")
    assert lines[1].startswith(str(out / "dataset_0000.csv"))
    assert lines[1].endswith("-> PASS")
    assert captured.err == ""


def test_validate_incomplete_manifest_fails(tmp_path, mie_config, capsys):
    assert main(["sweep", "--config", mie_config]) == EXIT_OK
    out = str(tmp_path / "out")
    manifest = dataio.read_manifest(out)
    dataio.write_manifest(out, manifest["entries"], complete=False)
    capsys.readouterr()
    assert main(["validate", out]) == EXIT_VALIDATION
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "manifest incomplete: 3 datasets listed -> FAIL"
    assert len(lines) == 4 and all(l.endswith("PASS") for l in lines[1:])


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


@pytest.mark.parametrize("backend", ['"mie"', "[1]", "3"])
def test_backend_spec_that_is_not_an_object_is_usage_error(tmp_path, capsys,
                                                           backend):
    cfg = _write_config(tmp_path, {"frequencies": {"ka": [1.0]}})
    assert main(["sweep", "--config", cfg, "--backend", backend,
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["sweep", "--nq", "27"],
    ["precision-study", "--nq-list", "14", "--reference", "27"],
    ["precision-study", "--nq-list", "27", "--reference", "110"],
    ["precision-study", "--nq-list", "14,27", "--reference", "110"],
], ids=["sweep-nq-27", "precision-reference",
        "precision-nq-list", "precision-nq-list-second"])
def test_unsupported_rule_size_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                args):
    # no embedded rule has these sizes: refused before anything is written
    monkeypatch.chdir(tmp_path)
    cfg = _with(["frequencies", "ka"], [1.0])
    if args[0] == "precision-study":
        del cfg["quadrature"]  # refused there: the flags name its rules
    _write_config(tmp_path, cfg)
    assert main([args[0], "--config", "config.json", *args[1:]]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "is not a supported Lebedev size" in err[0]
    assert err[0].startswith("error: ")
    assert os.listdir(tmp_path) == ["config.json"]


def test_dda_sweep_runs(tmp_path):
    cfg = _write_config(tmp_path, {
        "backend": {"type": "dda", "extent": [2, 2, 1], "spacing": 0.05,
                    "eps_r": 3.0},
        "frequencies": {"ka": [1.0]},
        "quadrature": 14,
        "output": str(tmp_path / "dda_out"),
    })
    with pytest.warns(UserWarning, match="lattice spacing"):
        assert main(["sweep", "--config", cfg]) == EXIT_OK
    manifest = dataio.read_manifest(str(tmp_path / "dda_out"))
    assert manifest["complete"] is True


def _counting(cls, built):
    """cls, with each construction appended to built."""
    class Counting(cls):
        def __init__(self, *args, **kwargs):
            built.append(cls.__name__)
            super().__init__(*args, **kwargs)
    return Counting


def test_mie_sweep_builds_its_backend_once(tmp_path, monkeypatch, mie_config):
    # a three-frequency "ka" grid once built the backend six times
    built = []
    monkeypatch.setattr(cli, "MieBackend", _counting(cli.MieBackend, built))
    assert main(["sweep", "--config", mie_config]) == EXIT_OK
    assert built == ["MieBackend"]
    assert len(dataio.read_manifest(str(tmp_path / "out"))["entries"]) == 3


def test_dda_sweep_builds_its_backend_once(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "DdaBackend", _counting(cli.DdaBackend, built))
    cfg = _write_config(tmp_path, {
        "backend": {"type": "dda", "extent": [2, 2, 1], "spacing": 0.05,
                    "eps_r": 3.0},
        "frequencies": {"ka": [1.0, 1.2]},
        "quadrature": 14,
        "output": str(tmp_path / "out"),
    })
    # the lattice is coarse at both frequencies: one warning each
    with pytest.warns(UserWarning, match="lattice spacing") as record:
        assert main(["sweep", "--config", cfg]) == EXIT_OK
    assert built == ["DdaBackend"]
    assert len(record) == 2


@pytest.mark.parametrize("command", [
    ["sweep"], ["precision-study", "--nq-list", "14", "--reference", "26"]])
def test_refused_dda_spec_is_usage_error(tmp_path, capsys, command):
    # eps_r 1 scatters nothing; it once exited 3 as a compute error
    backend = json.dumps({"type": "dda", "spacing": 0.1, "eps_r": 1})
    assert main([*command, "--backend", backend, "--freq-start", "1e8",
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "scatters nothing" in err
    assert not (tmp_path / "out").exists()


def test_explicit_rule_below_the_estimate_warns(tmp_path, capsys):
    # ka ~ 105 wants about 17,700 points; the run goes on as before
    out = str(tmp_path / "out")
    assert main(["sweep", "--backend", "mie", "--freq-start", "5e9",
                 "--nq", "6", "--out", out]) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: lebedev-6 is below the 17702-point estimate at "
                   "the largest ka=104.792"]
    assert dataio.read_manifest(out)["complete"] is True


def test_single_dipole_sweep_on_an_explicit_rule_runs(tmp_path, capsys):
    # one dipole sits at the origin: its ka is 0 and has no estimate
    backend = json.dumps({"type": "dda", "extent": [1, 1, 1], "spacing": 0.1,
                          "eps_r": 3.0})
    assert main(["sweep", "--backend", backend, "--freq-start", "1e8",
                 "--nq", "14", "--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("nq", [[], ["--nq", "6"]], ids=["auto", "nq-6"])
def test_dda_block_at_the_clausius_mossotti_pole_runs(tmp_path, nq):
    # eps_r = -2 once divided by zero in the static polarizability
    backend = json.dumps({"type": "dda", "extent": [2, 2, 2], "spacing": 0.1,
                          "eps_r": -2})
    out = str(tmp_path / "out")
    assert main(["sweep", "--backend", backend, "--freq-start", "1e8", *nq,
                 "--out", out]) == EXIT_OK
    assert dataio.read_manifest(out)["complete"] is True


@pytest.mark.parametrize("spacing", [1e-120, 1e-102])
def test_dda_spacing_that_underflows_the_cell_term_is_a_usage_error(
        tmp_path, capsys, spacing):
    # 3 eps0 d^3 (eps_r - 1) once underflowed to 0 and inverse_polarizability
    # ended in a ZeroDivisionError traceback (1e-120), or to a subnormal
    # whose reciprocal is inf, and the sweep lost its frequency (1e-102)
    backend = json.dumps({"type": "dda", "extent": [2, 1, 1],
                          "spacing": spacing, "eps_r": 3})
    out = tmp_path / "out"
    assert main(["sweep", "--backend", backend, "--freq-start", "1e8",
                 "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: spacing {spacing!r} is too small: the cell term "
                   f"3 eps0 d^3 (eps_r - 1) underflows"]
    assert not out.exists()


@pytest.mark.parametrize("nq", [[], ["--nq", "38"]], ids=["auto", "38"])
def test_dda_spacing_whose_cube_overflows_is_a_usage_error(tmp_path, capsys,
                                                           nq):
    # d^3 of a spacing of 1e103 overflows: with an explicit rule the sweep
    # once ended in an OverflowError traceback from inverse_polarizability
    backend = json.dumps({"type": "dda", "extent": [2, 1, 1],
                          "spacing": 1e103, "eps_r": 3})
    out = tmp_path / "out"
    assert main(["sweep", "--backend", backend, "--freq-start", "1e8", *nq,
                 "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: spacing 1e+103 is too large: the cell term "
                   "3 eps0 d^3 (eps_r - 1) overflows"]
    assert not out.exists()


_BIG_MIE = json.dumps({"type": "mie", "radius": 1e100})


@pytest.mark.parametrize("command, code, stream, text", [
    (["sweep"], EXIT_USAGE, "err",
     "error: ka = 2.0958450219516815e+100 needs at least 5.857e+200 points; "
     "the largest embedded rule has 302"),
    (["sweep", "--nq", "38"], EXIT_OK, "err",
     "warning: lebedev-38 is below the 5.857e+200-point estimate at the "
     "largest ka=2.09585e+100"),
    (["precision-study", "--nq-list", "26", "--reference", "38"], EXIT_OK,
     "out", "below the 5.857e+200-point estimate"),
], ids=["minimum-points", "explicit-rule", "precision-study"])
def test_huge_point_estimates_print_in_scientific_notation(
        tmp_path, capsys, command, code, stream, text):
    # the estimate once printed as a 201-digit integer
    assert main([*command, "--backend", _BIG_MIE, "--freq-start", "1e8",
                 "--out", str(tmp_path / "out")]) == code
    printed = getattr(capsys.readouterr(), stream)
    assert text in printed and "58567551413861918802" not in printed


_HUGE_MIE = {"type": "mie", "radius": 1e300}
_HUGE_DDA = {"type": "dda", "spacing": 1e300, "eps_r": 3}


@pytest.mark.parametrize("backend, command", [
    (_HUGE_MIE, ["sweep"]),
    (_HUGE_MIE, ["sweep", "--nq", "38"]),
    (_HUGE_MIE, ["precision-study", "--nq-list", "26", "--reference", "38"]),
    (_HUGE_DDA, ["sweep"]),
    (_HUGE_DDA, ["sweep", "--nq", "38"]),
], ids=["mie-auto", "mie-explicit-rule", "mie-precision-study", "dda-auto",
        "dda-explicit-rule"])
def test_scatterer_too_large_for_the_estimate_is_a_usage_error(
        tmp_path, capsys, backend, command):
    # ka past 1e154 overflows the point-count estimate to inf; rounding it
    # up for the message once raised OverflowError with a traceback
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*command, "--backend", json.dumps(backend),
                     "--freq-start", "1e8", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    # a dda block past ka 1e154 has a spacing whose cube overflows, which
    # the model refuses before the estimate is made
    start = ("error: spacing 1e+300 is too large: the cell term" if
             backend is _HUGE_DDA else "error: ka = ")
    assert len(err) == 1 and err[0].startswith(start)
    assert "too large" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("frequencies, quadrature, what", [
    ({"ka": [0.5]}, "auto", "a 'ka' grid"),
    ({"ka": [0.5]}, 14, "a 'ka' grid"),
    ({"start_hz": 1e8, "stop_hz": 1e8, "count": 1}, "auto",
     '"auto" quadrature'),
], ids=["ka-auto", "ka-explicit-rule", "hz-auto"])
def test_zero_radius_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                      frequencies, quadrature, what):
    # one dipole sits at its block's center: "ka" and "auto" mean k times 0;
    # the ka grid once divided by it, and "auto" read "ka must be positive"
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path, {
        "backend": {"type": "dda", "extent": [1, 1, 1], "spacing": 0.1,
                    "eps_r": 3},
        "frequencies": frequencies, "quadrature": quadrature,
        "output": "out"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", "config.json"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {what} needs")
    assert "radius is 0 (a single dipole)" in err[0]
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("nq", ["26", "auto"])
def test_adequate_rule_does_not_warn(tmp_path, capsys, mie_config, nq):
    # the 26-point rule meets the 25-point estimate at ka 1.2
    assert main(["sweep", "--config", mie_config, "--nq", nq]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("args, flag", [
    (["sweep", "--nq", "26.5"], "--nq"),
    (["precision-study", "--nq-list", "14,x", "--reference", "26"],
     "--nq-list"),
    (["precision-study", "--nq", "26", "--nq-list", "14",
      "--reference", "26"], "--nq"),
], ids=["nq-fraction", "nq-list-word", "precision-study-nq"])
def test_bad_point_count_flag_is_named(capsys, args, flag):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == EXIT_USAGE
    assert flag in capsys.readouterr().err


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


def test_precision_study_writes_the_bound_estimate_as_a_short_number(
        tmp_path, capsys):
    # the radius-1e100 study once wrote the estimate as a 203-character
    # fixed-point field
    out = tmp_path / "prec"
    assert main(["precision-study", "--backend", _BIG_MIE, "--freq-start",
                 "1e8", "--nq-list", "26", "--reference", "38",
                 "--out", str(out)]) == EXIT_OK
    with open(out / "precision_study.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    bound = sm.quadrature_bound(float(row["ka"]))
    assert len(row["bound_estimate"]) <= 12
    assert float(row["bound_estimate"]) == pytest.approx(bound, rel=1e-5)


@pytest.mark.parametrize("quadrature", [27, 26])
def test_precision_study_refuses_a_config_quadrature(tmp_path, monkeypatch,
                                                     capsys, quadrature):
    # the study runs --nq-list and --reference; 27, which no rule has,
    # once ran to exit 0
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path, {
        "backend": {"type": "mie", "eps_r": 3.0},
        "frequencies": {"ka": [1.0]}, "quadrature": quadrature,
        "output": "prec"})
    assert main(["precision-study", "--config", "config.json",
                 "--nq-list", "14", "--reference", "26"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert '"quadrature"' in err[0] and "--nq-list" in err[0] \
        and "--reference" in err[0]
    assert os.listdir(tmp_path) == ["config.json"]


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


def test_dda_ka_grid_is_k_times_block_radius(tmp_path):
    # the 8x8x2 block with spacing 0.5 reaches R = 2.49 from its center
    backend = {"type": "dda", "extent": [8, 8, 2], "spacing": 0.5,
               "eps_r": 3.0}
    cfg = _write_config(tmp_path, {
        "backend": backend,
        "frequencies": {"ka": [0.8, 1.0]},
        "quadrature": 14,
        "output": str(tmp_path / "out"),
    })
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    radius = build_block((8, 8, 2), 0.5, 3.0).circumscribing_radius
    entries = dataio.read_manifest(str(tmp_path / "out"))["entries"]
    assert [e["wavenumber"] * radius for e in entries] == \
        pytest.approx([0.8, 1.0], rel=1e-15)


def test_auto_quadrature_sizes_dda_from_block_radius(tmp_path):
    # the 8x8x2 block with spacing 0.5 reaches R = 2.49 from its center, so
    # ka up to 2.49 needs 74 points; the default radius of 1 gave 26
    cfg = _write_config(tmp_path, {
        "backend": {"type": "dda", "extent": [8, 8, 2], "spacing": 0.5,
                    "eps_r": 3.0},
        "frequencies": {"ka": [2.0, 2.49]},
        "quadrature": "auto",
        "output": str(tmp_path / "out"),
    })
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    out = str(tmp_path / "out")
    entry = dataio.read_manifest(out)["entries"][-1]
    assert dataio.read_dataset(os.path.join(out, entry["dataset"])) \
        .rule.n_points >= 74


def test_failed_frequency_keeps_the_finished_ones(tmp_path, mie_config,
                                                  monkeypatch, capsys):
    from scatmodes import mie
    from scatmodes.mie import MieOverflow

    real = mie.layered_tmatrix

    def fails_above_1_1(sphere, ka, l_max):
        if ka > 1.1:
            raise MieOverflow(7)
        return real(sphere, ka, l_max)

    monkeypatch.setattr(mie, "layered_tmatrix", fails_above_1_1)
    assert main(["sweep", "--config", mie_config]) == EXIT_COMPUTE
    out = tmp_path / "out"
    manifest = dataio.read_manifest(str(out))
    assert manifest["complete"] is False
    assert [e["dataset"] for e in manifest["entries"]] == [
        "dataset_0000.csv", "dataset_0001.csv"]
    for entry in manifest["entries"]:
        assert (out / entry["dataset"]).exists()
        assert (out / entry["modes"]).exists()
        assert "traces" not in entry
    err = capsys.readouterr().err
    assert "after 2 of 3 frequencies" in err and "l=7" in err
    assert main(["validate", str(out)]) == EXIT_VALIDATION


ALLOWED_KEYS = "reciprocity, lossless, eigenpair"


@pytest.mark.parametrize("item", ["reciprocity", "reciprocty=1e-3",
                                  "lossless=abc", "eigenpair=-1", "=1e-3"])
def test_bad_tolerance_is_usage_error(tmp_path, mie_config, capsys, item):
    assert main(["sweep", "--config", mie_config]) == EXIT_OK
    out = str(tmp_path / "out")
    assert main(["validate", out, "--tolerance", item]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert ALLOWED_KEYS in captured.err or "positive number" in captured.err
    assert "PASS" not in captured.out and "Traceback" not in captured.err


@pytest.mark.parametrize("args", [
    ["sweep", "--tolerance", "reciprocity=1e-3"],
    ["precision-study", "--nq-list", "14"],
    ["validate"],
])
def test_bad_arguments_exit_as_usage_errors(args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == EXIT_USAGE


def test_config_tolerances_are_a_usage_error(tmp_path, capsys):
    # sweep never validates, so tolerances in its config would do nothing
    cfg = _write_config(tmp_path, {
        "backend": {"type": "mie", "eps_r": 3.0},
        "frequencies": {"ka": [1.0]},
        "tolerances": {"lossless": 1e-3},
        "output": str(tmp_path / "out"),
    })
    assert main(["sweep", "--config", cfg]) == EXIT_USAGE
    assert "validate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tolerance_parser_applies_items_in_turn():
    assert parse_tolerances(["lossless=1e-4", "eigenpair=1e-6",
                             " lossless=1e-3"]) == {
        "reciprocity": 1e-10, "lossless": 1e-3, "eigenpair": 1e-6}


@pytest.mark.parametrize("quadrature", [26, "auto"])
@pytest.mark.parametrize("backend, missing", [
    ({"type": "dda", "extent": [2, 2, 1], "eps_r": 3.0}, "spacing"),
    ({"type": "dda", "extent": [2, 2, 1], "spacing": 0.2}, "eps_r"),
    ({"type": "mie", "layers": [{"boundary_fraction": 1.0}]}, "eps_r"),
])
def test_incomplete_scatterer_spec_is_usage_error(tmp_path, capsys, backend,
                                                  missing, quadrature):
    cfg = _write_config(tmp_path, {
        "backend": backend,
        "frequencies": {"ka": [0.5, 0.6]},
        "quadrature": quadrature,
        "output": str(tmp_path / "out"),
    })
    assert main(["sweep", "--config", cfg]) == EXIT_USAGE
    assert f"needs field '{missing}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("quadrature, l_max", [(26, 9), (26, 4), ("auto", 9)])
def test_sweep_refuses_an_l_max_its_rule_cannot_carry(tmp_path, capsys,
                                                      quadrature, l_max):
    # the 26-point rule integrates to degree 7, so l_max 4 already aliases;
    # "auto" sizes the rule from ka alone
    cfg = _write_config(tmp_path, {
        "backend": {"type": "mie", "eps_r": 3.0, "l_max": l_max},
        "frequencies": {"ka": [0.8, 1.0]},
        "quadrature": quadrature,
        "output": str(tmp_path / "out"),
    })
    assert main(["sweep", "--config", cfg]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"l_max {l_max}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_keeps_an_l_max_its_rule_carries(tmp_path):
    cfg = _write_config(tmp_path, {
        "backend": {"type": "mie", "eps_r": 3.0, "l_max": 3},
        "frequencies": {"ka": [0.8, 1.0]},
        "quadrature": 26,
        "output": str(tmp_path / "out"),
    })
    assert main(["sweep", "--config", cfg]) == EXIT_OK


def _with(path, value):
    """A valid 14-point mie config with the field at path set to value."""
    cfg = {"backend": {"type": "mie", "eps_r": 3.0},
           "frequencies": {"ka": [0.8, 1.0]}, "quadrature": 14,
           "output": "out"}
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


@pytest.mark.parametrize("cfg", [
    _with(["quadrature"], [26]),
    _with(["quadrature"], 26.5),
    _with(["frequencies"], [1, 2]),
    _with(["frequencies", "ka"], [[1.0]]),
    _with(["backend", "layers"], "x"),
    _with(["backend", "l_max"], "a"),
    _with(["backend", "l_max"], 2.5),
    _with(["backend", "l_max"], -1),
    _with(["output"], 5),
    _with(["backend", "radius"], 10**400),
    _with(["quadrature"], 27),
    {**_with(["quadrature"], "auto"), "frequencies": {"ka": [1.0, 9.8]}},
], ids=["quadrature-list", "quadrature-fraction", "frequencies-list",
        "ka-nested", "layers-string", "l_max-string", "l_max-fraction",
        "l_max-negative", "output-number", "radius-past-float-range",
        "quadrature-unsupported", "auto-past-largest-rule"])
def test_malformed_config_is_a_usage_error(tmp_path, monkeypatch, capsys, cfg):
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path, cfg)
    assert main(["sweep", "--config", "config.json"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert os.listdir(tmp_path) == ["config.json"]


_DDA = {"type": "dda", "extent": [1, 1, 1], "spacing": 0.1, "eps_r": 3.0}
_LAYERS = [{"eps_r": 2.0, "boundary_fraction": 0.5},
           {"eps_r": 3.0, "mu_r": 1.5, "boundary_fraction": 1.0}]


@pytest.mark.parametrize("cfg, where", [
    (_with(["backend", "mur"], 5), "'mur' in the mie backend"),
    ({**_with(["quadrature"], 14), "quadrture": 302}, "'quadrture' in the config"),
    ({**_with(["backend"], {**_DDA, "epsr": 5}),
      "frequencies": {"start_hz": 1e8, "stop_hz": 1e8, "count": 1}},
     "'epsr' in the dda backend"),
    (_with(["frequencies", "kaa"], [3.0]), "'kaa' in 'frequencies'"),
    (_with(["backend", "layers"], [_LAYERS[0], {**_LAYERS[1], "mur": 2}]),
     "'mur' in mie layer 1"),
    ({**_with(["backend", "Eps_r"], 5), "outptu": "x"}, "'outptu' in the config"),
    (_with(["backend", "mu_r"], 1.0) | {"tolerance": 1}, "'tolerance' in the config"),
], ids=["mie-mur", "quadrture", "dda-epsr", "frequencies-kaa", "layer-mur",
        "two-levels", "tolerance"])
def test_unknown_config_key_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                             cfg, where):
    """A misspelled key was ignored: "mur" swept a non-magnetic sphere and
    "quadrture" the "auto" rule.  Each is one error naming the key and where
    it sits, with nothing written."""
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path, cfg)
    assert main(["sweep", "--config", "config.json"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown key ")
    assert where in err[0]
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("cfg, where", [
    (_with(["backend", "layers"], _LAYERS), "'eps_r' and 'layers' in the mie"),
    ({**_with(["backend"], {"type": "mie", "mu_r": 2.0, "layers": _LAYERS})},
     "'mu_r' and 'layers' in the mie"),
    (_with(["frequencies", "start_hz"], 3e7), "'start_hz' and 'ka' in"),
    (_with(["frequencies"], {"ka": [0.8], "stop_hz": 4e7, "count": 2}),
     "'stop_hz', 'count' and 'ka' in"),
], ids=["layers-eps_r", "layers-mu_r", "ka-start_hz", "ka-stop_hz-count"])
def test_conflicting_config_keys_are_a_usage_error(tmp_path, monkeypatch,
                                                   capsys, cfg, where):
    """A mie spec's eps_r or mu_r beside its layers, and Hz fields beside a
    ka grid, were ignored: the layers and the ka grid won silently.  Each is
    one error naming the keys, with nothing written."""
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path, cfg)
    assert main(["sweep", "--config", "config.json"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert where in err[0] and err[0].endswith("give one or the other")
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("command", [
    ["sweep"], ["precision-study", "--nq-list", "14", "--reference", "26"]])
def test_unknown_backend_flag_key_is_a_usage_error(tmp_path, capsys, command):
    backend = json.dumps({"type": "mie", "eps_r": 3, "mur": 5})
    assert main([*command, "--backend", backend, "--freq-start", "1e8",
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == ("error: unknown key 'mur' in the mie backend; it accepts "
                   "type, radius, eps_r, mu_r, layers, l_max\n")
    assert not (tmp_path / "out").exists()


def test_every_documented_config_key_is_accepted(tmp_path):
    """The keys the README lists, each at its level, run a sweep."""
    out = str(tmp_path / "out")
    mie = {"type": "mie", "radius": 1.0, "eps_r": 3.0, "mu_r": 1.0,
           "l_max": 2}
    configs = [
        {"backend": mie, "frequencies": {"ka": [0.5]}, "quadrature": 14,
         "output": out},
        {"backend": {"type": "mie", "layers": _LAYERS},
         "frequencies": {"start_hz": 1e7, "stop_hz": 2e7, "count": 2},
         "quadrature": "auto", "output": out},
        {"backend": _DDA, "frequencies": {"start_hz": 1e8, "stop_hz": 1e8,
                                          "count": 1},
         "quadrature": 6, "output": out},
    ]
    for cfg in configs:
        shutil.rmtree(out, ignore_errors=True)
        assert main(["sweep", "--config", _write_config(tmp_path, cfg)]) \
            == EXIT_OK


def test_sweep_on_230_points_validates(tmp_path):
    # the smallest multiplet, |t| ~ 3e-9 at ka 3.5, once shared the
    # |w|-orthonormal basis of the null space and failed its eigenpair check
    config = _write_config(tmp_path, {
        "backend": {"type": "mie", "eps_r": 3.0, "radius": 1.0},
        "frequencies": {"ka": [2.0, 3.5]},
        "quadrature": 230,
        "output": str(tmp_path / "out"),
    })
    assert main(["sweep", "--config", config]) == EXIT_OK
    assert main(["validate", str(tmp_path / "out")]) == EXIT_OK


_VALID_CONFIGS = st.fixed_dictionaries({
    "backend": st.one_of(
        st.fixed_dictionaries({"type": st.just("mie")}, optional={
            "eps_r": st.just(3.0), "mu_r": st.just(1.5),
            "radius": st.sampled_from([0.5, 1.0]),
            "l_max": st.sampled_from([1, 2, 3])}),
        st.fixed_dictionaries({"type": st.just("mie"), "layers": st.just(
            [{"eps_r": 2.0, "boundary_fraction": 0.5},
             {"eps_r": 3.0, "mu_r": 1.5, "boundary_fraction": 1.0}])},
            optional={"radius": st.sampled_from([0.5, 1.0]),
                      "l_max": st.sampled_from([1, 2, 3])}),
        st.fixed_dictionaries({"type": st.just("dda"), "spacing": st.just(0.1),
                               "eps_r": st.just(3.0)},
                              optional={"extent": st.just([2, 1, 1])})),
    "frequencies": st.one_of(
        st.fixed_dictionaries({"ka": st.lists(st.sampled_from([0.4, 0.6]),
                                              min_size=1, max_size=2)}),
        st.fixed_dictionaries({"start_hz": st.just(3e7),
                               "stop_hz": st.just(4e7),
                               "count": st.sampled_from([1, 2])})),
    "quadrature": st.sampled_from([6, 14, "auto"]),
})
#: where a mutation lands; one whose enclosing object is missing is skipped
_FIELDS = [("backend",), ("backend", "type"), ("backend", "eps_r"),
           ("backend", "mu_r"), ("backend", "radius"), ("backend", "l_max"),
           ("backend", "layers"), ("backend", "extent"),
           ("backend", "spacing"), ("frequencies",), ("frequencies", "ka"),
           ("frequencies", "start_hz"), ("frequencies", "stop_hz"),
           ("frequencies", "count"), ("quadrature",), ("output",)]
_MISSING = "<missing>"
_JUNK = st.sampled_from([_MISSING, None, True, "x", "14", [], [1.0], [[1.0]],
                         {}, {"a": 1}, -1, 0, 2.5, 15, math.inf, 10**400])


def _mutate(cfg, mutations):
    for path, value in mutations:
        node = cfg
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue
        if value == _MISSING:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return cfg


#: the keys that conflict: a mie spec's eps_r or mu_r beside its layers,
#: and the Hz fields beside a ka grid
_CONFLICTS = st.sampled_from([
    (("backend", "eps_r"), 2.0), (("backend", "mu_r"), 1.5),
    (("backend", "layers"), [{"eps_r": 2.0, "boundary_fraction": 1.0}]),
    (("frequencies", "ka"), [0.5]), (("frequencies", "start_hz"), 3e7),
    (("frequencies", "stop_hz"), 4e7), (("frequencies", "count"), 2)])


def _expected_sphere(spec):
    """The sphere an accepted mie spec describes, read from the spec alone."""
    radius = spec.get("radius", 1.0)
    if "layers" not in spec:
        return sm.LayeredSphere.homogeneous(radius, spec.get("eps_r", 3.0),
                                            spec.get("mu_r", 1.0))
    return sm.LayeredSphere(radius, tuple(
        sm.Layer(l["eps_r"], l.get("mu_r", 1.0), l["boundary_fraction"])
        for l in spec["layers"]))


def _assert_top_modes_are_analytic(cfg, out):
    """Each written mode table's modes with |t| > 1e-3 are among the
    sphere's analytic channel eigenvalues, within 1e-8."""
    spec = cfg["backend"]
    assert "layers" not in spec or not {"eps_r", "mu_r"} & set(spec)
    sphere = _expected_sphere(spec)
    for entry in dataio.read_manifest(out)["entries"]:
        with open(os.path.join(out, entry["modes"])) as fh:
            rows = list(csv.DictReader(fh))
        t = np.array([complex(float(r["re_t"]), float(r["im_t"]))
                      for r in rows])
        t = t[np.abs(t) > 1e-3]
        ka = entry["wavenumber"] * sphere.outer_radius_a
        analytic = sm.channel_eigenvalues(sphere, ka, 20).ravel()
        assert t.size and all(np.min(np.abs(analytic - value)) <= 1e-8
                              for value in t)


@settings(max_examples=60)
@given(cfg=_VALID_CONFIGS, mutations=st.lists(
    st.tuples(st.sampled_from(_FIELDS), _JUNK) | _CONFLICTS, max_size=3))
def test_fuzzed_sweep_configs_end_in_a_documented_exit_code(cfg,
                                                            mutations):
    """No config ends in a traceback; a usage error writes nothing; a mie
    sweep that succeeds wrote the sphere's analytic eigenvalues."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg["output"] = os.path.join(tmp, "out")
        _mutate(cfg, mutations)
        path = _write_config(pathlib.Path(tmp), cfg)
        with warnings.catch_warnings():
            # a coarse dipole lattice warns, and that is all it does
            warnings.simplefilter("ignore", UserWarning)
            code = main(["sweep", "--config", path])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_COMPUTE)
        if code == EXIT_USAGE:
            assert os.listdir(tmp) == ["config.json"]
        if code == EXIT_OK and cfg["backend"]["type"] == "mie":
            _assert_top_modes_are_analytic(cfg, cfg["output"])


def test_output_that_is_a_file_is_a_usage_error(tmp_path, mie_config, capsys):
    (tmp_path / "taken").write_text("")
    assert main(["sweep", "--config", mie_config,
                 "--out", str(tmp_path / "taken")]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot create")


def test_zero_frequency_count_flag_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--backend", "mie", "--nq", "14", "--out", str(out),
                 "--freq-start", "4.7e7", "--freq-stop", "5e7",
                 "--freq-count", "0"]) == EXIT_USAGE
    assert "frequency count" in capsys.readouterr().err
    assert not out.exists()
