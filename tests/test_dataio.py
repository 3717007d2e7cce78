import csv
import io
import json
import math

import numpy as np
import pytest

import scatmodes as sm
from scatmodes import dataio
from scatmodes.errors import DimensionMismatch, ParseError
from scatmodes.modes import C0


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _header(rule, k, **overrides):
    header = {
        "format_version": dataio.FORMAT_VERSION,
        "frequency_hz": k * C0 / (2.0 * math.pi),
        "wavenumber": k,
        "rule": [[p.theta, p.phi, w] for p, w in zip(rule.points, rule.weights)],
    }
    header.update(overrides)
    return header


def _body(matrix):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["row_index", "col_index", "re", "im"])
    n2 = matrix.shape[0]
    for i in range(n2):
        for j in range(n2):
            writer.writerow([i, j, format(float(matrix[i, j].real), ".17g"),
                             format(float(matrix[i, j].imag), ".17g")])
    return out.getvalue()


def test_zero_matrix_round_trip(tmp_path):
    rule = sm.lebedev_rule(6)
    smat = sm.ScatteringMatrix(rule=rule, k=2.0,
                               matrix=np.zeros((12, 12), dtype=complex))
    path = str(tmp_path / "zero.csv")
    dataio.write_dataset(smat, path)
    back = dataio.read_dataset(path)
    assert back.k == smat.k
    assert back.rule.n_points == 6
    assert np.array_equal(back.matrix, smat.matrix)


def test_mie_dataset_round_trip_bit_exact(tmp_path, mie_modes_ka1):
    rule, smat, modeset = mie_modes_ka1
    path = str(tmp_path / "mie.csv")
    dataio.write_dataset(smat, path)
    back = dataio.read_dataset(path)
    assert np.max(np.abs(back.matrix - smat.matrix)) == 0.0
    assert back.rule.name == rule.name  # recognized as the standard rule
    redone = sm.decompose(sm.apply_weights(back))
    assert np.max(np.abs(redone.eigenvalues - modeset.eigenvalues)) < 1e-15


def test_write_rejects_weighted_matrix(mie_modes_ka1):
    _, smat, _ = mie_modes_ka1
    with pytest.raises(ValueError, match="unweighted"):
        dataio.write_dataset(sm.apply_weights(smat), "/dev/null")


def test_inconsistent_frequency_rejected(tmp_path):
    rule = sm.lebedev_rule(6)
    m = np.zeros((12, 12), dtype=complex)
    header = _header(rule, 2.0, frequency_hz=1.0)  # does not match k=2
    path = _write(tmp_path, "bad.csv",
                  json.dumps(header) + "\n" + _body(m))
    with pytest.raises(ParseError, match="inconsistent"):
        dataio.read_dataset(path)


def test_missing_header_field_rejected(tmp_path):
    rule = sm.lebedev_rule(6)
    header = _header(rule, 2.0)
    del header["rule"]
    path = _write(tmp_path, "bad.csv", json.dumps(header) + "\n")
    with pytest.raises(ParseError, match="rule"):
        dataio.read_dataset(path)


def test_unsupported_version_rejected(tmp_path):
    rule = sm.lebedev_rule(6)
    header = _header(rule, 2.0, format_version=99)
    path = _write(tmp_path, "bad.csv", json.dumps(header) + "\n")
    with pytest.raises(ParseError, match="format_version"):
        dataio.read_dataset(path)


def test_truncated_body_names_counts(tmp_path):
    rule = sm.lebedev_rule(6)
    m = np.zeros((12, 12), dtype=complex)
    body = _body(m).splitlines(keepends=True)
    path = _write(tmp_path, "short.csv",
                  json.dumps(_header(rule, 2.0)) + "\n" + "".join(body[:-5]))
    with pytest.raises(DimensionMismatch, match="139 entries, expected 144"):
        dataio.read_dataset(path)


def test_bad_row_reports_line_number(tmp_path):
    rule = sm.lebedev_rule(6)
    body = _body(np.zeros((12, 12), dtype=complex)).splitlines(keepends=True)
    body[4] = "3,oops,0,0\n"  # line 6 of the file (header + column row + 4)
    path = _write(tmp_path, "bad.csv",
                  json.dumps(_header(rule, 2.0)) + "\n" + "".join(body))
    with pytest.raises(ParseError, match="line 6"):
        dataio.read_dataset(path)


def test_out_of_range_index_rejected(tmp_path):
    rule = sm.lebedev_rule(6)
    body = _body(np.zeros((12, 12), dtype=complex)).splitlines(keepends=True)
    body[1] = "0,99,0,0\n"
    path = _write(tmp_path, "bad.csv",
                  json.dumps(_header(rule, 2.0)) + "\n" + "".join(body))
    with pytest.raises(DimensionMismatch, match="outside"):
        dataio.read_dataset(path)


def test_custom_rule_requires_full_sphere_weight(tmp_path):
    k = 1.0
    m = np.zeros((4, 4), dtype=complex)
    good_rule = [[0.3, 0.1, 2 * math.pi], [2.0, 3.0, 2 * math.pi]]
    header = _header(sm.lebedev_rule(6), k)
    header["rule"] = good_rule
    path = _write(tmp_path, "custom.csv", json.dumps(header) + "\n" + _body(m))
    back = dataio.read_dataset(path)
    assert back.rule.n_points == 2
    assert back.rule.name.startswith("custom")

    bad_rule = [[0.3, 0.1, 1.0], [2.0, 3.0, 1.0]]  # sums to 2, not 4*pi
    header["rule"] = bad_rule
    path = _write(tmp_path, "badrule.csv", json.dumps(header) + "\n" + _body(m))
    with pytest.raises(ParseError, match="4\\*pi"):
        dataio.read_dataset(path)


def test_hand_built_single_dipole_dataset(tmp_path):
    """A dataset written from closed-form expressions, not by this library,
    must parse and reproduce the analytic single-dipole eigenvalue."""
    k, d, eps_r = 1.0, 0.05, 3.0
    rule = sm.lebedev_rule(14)
    n = rule.n_points
    alpha_static = 3.0 * sm.EPS0 * d ** 3 * (eps_r - 1.0) / (eps_r + 2.0)
    alpha = 1.0 / (1.0 / alpha_static + 1j * k ** 3 / (6.0 * math.pi * sm.EPS0))
    # point scatterer at the origin: every sample is a polarization overlap
    scale = -1j * k ** 3 * alpha / (16.0 * math.pi ** 2 * sm.EPS0)
    units = np.array([p.theta_hat for p in rule.points]
                     + [p.phi_hat for p in rule.points])
    matrix = scale * (units @ units.T).astype(complex)

    path = _write(tmp_path, "dipole.csv",
                  json.dumps(_header(rule, k)) + "\n" + _body(matrix))
    back = dataio.read_dataset(path)
    modeset = sm.decompose(sm.apply_weights(back))

    u = k ** 3 * alpha_static / (6.0 * math.pi * sm.EPS0)
    t_ana = -1j * u / (1.0 + 1j * u)
    assert np.allclose(modeset.eigenvalues[:3], t_ana, rtol=1e-12)
    assert np.max(np.abs(modeset.eigenvalues[3:])) < 1e-12 * abs(t_ana)


def test_validation_report_fields(mie_modes_ka1):
    _, smat, _ = mie_modes_ka1
    report = dataio.validation_report(smat)
    assert report["reciprocity_residual"] < 1e-12
    assert report["lossless_residual_max"] < 1e-6
    assert report["eigenpair_residual_max"] < 1e-10
    assert report["n_modes"] == 2 * smat.rule.n_points


def test_write_modes_table(tmp_path, mie_modes_ka1):
    _, _, modeset = mie_modes_ka1
    path = str(tmp_path / "modes.csv")
    dataio.write_modes(modeset, path, top=5)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert float(rows[0]["significance"]) == pytest.approx(
        abs(modeset.eigenvalues[0]))


def test_manifest_round_trip(tmp_path):
    entries = [{"frequency_hz": 2.0, "dataset": "b.csv"},
               {"frequency_hz": 1.0, "dataset": "a.csv"}]
    dataio.write_manifest(str(tmp_path), entries, complete=True)
    back = dataio.read_manifest(str(tmp_path))
    assert back["complete"] is True
    freqs = [e["frequency_hz"] for e in back["entries"]]
    assert freqs == sorted(freqs)


def test_manifest_parse_error(tmp_path):
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(ParseError, match="manifest"):
        dataio.read_manifest(str(tmp_path))


def _dataset_text(rule, matrix, k=2.0):
    return json.dumps(_header(rule, k)) + "\n" + _body(matrix)


def _random_matrix(n2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))


def test_write_dataset_body_matches_csv_module_bytes(tmp_path, mie_modes_ka1):
    _, smat, _ = mie_modes_ka1
    path = tmp_path / "mie.csv"
    dataio.write_dataset(smat, str(path))
    raw = path.read_bytes()
    body = raw[raw.index(b"\n") + 1:]
    assert body == _body(smat.matrix).encode()
    assert body.endswith(b"\r\n")


def test_duplicated_row_is_rejected(tmp_path):
    rule = sm.lebedev_rule(6)
    body = _body(_random_matrix(12)).splitlines(keepends=True)
    body[10] = body[9]  # entry (0, 8) twice, entry (0, 9) never
    path = _write(tmp_path, "dup.csv",
                  json.dumps(_header(rule, 2.0)) + "\n" + "".join(body))
    with pytest.raises(DimensionMismatch,
                       match=r"duplicate rows shadow entry \(0, 9\)"):
        dataio.read_dataset(path)


@pytest.mark.filterwarnings("error")
def test_blank_body_lines_are_ignored(tmp_path):
    rule = sm.lebedev_rule(6)
    matrix = _random_matrix(12, seed=1)
    body = _body(matrix).splitlines(keepends=True)
    body[3:3] = ["\r\n", "\n"]
    body.append("\r\n" * 10000)  # a long blank tail, no data after it
    path = tmp_path / "blank.csv"
    path.write_bytes((json.dumps(_header(rule, 2.0)) + "\n"
                      + "".join(body)).encode())
    assert np.array_equal(dataio.read_dataset(str(path)).matrix, matrix)


def test_shuffled_mixed_endings_body_reads_back_bit_exact(tmp_path):
    rule = sm.lebedev_rule(14)
    matrix = _random_matrix(28, seed=2)
    matrix[3, 4] = complex(-0.0, 0.0)
    body = _body(matrix).splitlines(keepends=True)
    rows = body[1:]
    np.random.default_rng(3).shuffle(rows)
    rows[::2] = [r.replace("\r\n", "\n") for r in rows[::2]]  # LF and CRLF
    path = _write(tmp_path, "shuffled.csv",
                  json.dumps(_header(rule, 2.0)) + "\n"
                  + "".join(body[:1] + rows))
    back = dataio.read_dataset(path).matrix
    assert back.tobytes() == matrix.tobytes()


@pytest.mark.filterwarnings("error")
def test_bad_row_deep_in_body_reports_its_line(tmp_path):
    rule = sm.lebedev_rule(50)
    lines = _dataset_text(rule, np.zeros((100, 100), dtype=complex)) \
        .splitlines(keepends=True)
    # line 5000 of the file, past the first chunk of a chunked reader
    lines[4999] = "49,97,0,oops\r\n"
    path = _write(tmp_path, "deep.csv", "".join(lines))
    with pytest.raises(ParseError, match="line 5000:"):
        dataio.read_dataset(path)

    # a float index is malformed even when it is integral
    for index in ("49.5", "49.0"):
        lines[4999] = f"{index},97,0,0\r\n"
        path = _write(tmp_path, "deep_float.csv", "".join(lines))
        with pytest.raises(ParseError,
                           match=r"line 5000: .*invalid literal for int\(\)"):
            dataio.read_dataset(path)

    lines[4999] = "49,970,0,0\r\n"
    path = _write(tmp_path, "deep_range.csv", "".join(lines))
    with pytest.raises(DimensionMismatch, match="line 5000: index"):
        dataio.read_dataset(path)


def test_extra_trailing_rows_name_counts(tmp_path):
    rule = sm.lebedev_rule(6)
    text = _dataset_text(rule, np.zeros((12, 12), dtype=complex))
    path = _write(tmp_path, "long.csv", text + "0,0,0,0\r\n3,3,0,0\r\n")
    with pytest.raises(DimensionMismatch, match="146 entries, expected 144"):
        dataio.read_dataset(path)
