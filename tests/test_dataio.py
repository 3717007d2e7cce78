import csv
import io
import json
import math
import pathlib
import tempfile

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import scatmodes as sm
from scatmodes import dataio
from scatmodes.cli import DEFAULT_TOLERANCES
from scatmodes.quadrature import SUPPORTED_SIZES, quadrature_bound
from scatmodes.errors import DimensionMismatch, ParseError
from scatmodes.modes import C0


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _header(rule, k, **overrides):
    header = {
        "format_version": 1,
        "frequency_hz": k * C0 / (2.0 * math.pi),
        "wavenumber": k,
        "rule": np.column_stack([rule.theta, rule.phi, rule.weights]).tolist(),
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


def test_write_dataset_is_header_line_plus_npy_body(tmp_path, mie_modes_ka1):
    _, smat, _ = mie_modes_ka1
    dataio.write_dataset(smat, str(tmp_path / "mie.csv"))
    lines = (tmp_path / "mie.csv").read_text().splitlines(keepends=True)
    assert len(lines) == 1 and lines[0].endswith("}\n")
    header = json.loads(lines[0])
    assert (header["format_version"], header["body"]) == (2, "mie.npy")
    body = np.load(tmp_path / "mie.npy", allow_pickle=False)
    assert body.dtype.str == "<c16" and body.flags.c_contiguous
    assert np.array_equal(body, smat.matrix)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mie.csv", "mie.npy"]


def test_write_refuses_a_header_named_like_its_body(tmp_path, mie_modes_ka1):
    _, smat, _ = mie_modes_ka1
    with pytest.raises(ValueError, match="overwrite its body"):
        dataio.write_dataset(smat, str(tmp_path / "mie.npy"))
    assert not list(tmp_path.iterdir())


def test_v1_and_v2_copies_read_back_identical(tmp_path, mie_modes_ka1,
                                              write_v1_dataset):
    _, smat, _ = mie_modes_ka1
    write_v1_dataset(smat, str(tmp_path / "v1.csv"))
    dataio.write_dataset(smat, str(tmp_path / "v2.csv"))
    v1 = dataio.read_dataset(str(tmp_path / "v1.csv"))
    v2 = dataio.read_dataset(str(tmp_path / "v2.csv"))
    assert v1.matrix.tobytes() == v2.matrix.tobytes() == smat.matrix.tobytes()
    assert (v1.k, v1.rule.name) == (v2.k, v2.rule.name) \
        == (smat.k, smat.rule.name)
    assert dataio.validation_report(v1) == dataio.validation_report(v2)


def _frequency_line(frequency_hz: str, wavenumber: str) -> str:
    """A version 1 header line on the 6-point rule whose frequency_hz and
    wavenumber fields are the given JSON texts."""
    rule = sm.lebedev_rule(6)
    rows = json.dumps(np.column_stack([rule.theta, rule.phi,
                                       rule.weights]).tolist())
    return (f'{{"format_version": 1, "frequency_hz": {frequency_hz}, '
            f'"wavenumber": {wavenumber}, "rule": {rows}}}')


#: the frequency of k = 2 and the wavenumber of 1 Hz, as JSON texts
_F2 = repr(2.0 * C0 / (2.0 * math.pi))
_K1 = repr(2.0 * math.pi / C0)


@pytest.mark.parametrize("line, match", [
    ("3", "not a JSON object"),
    ("[1, 2]", "not a JSON object"),
    ('{"format_version": 1, "frequency_hz": null, "wavenumber": 1.0, '
     '"rule": []}', "frequency is not a number"),
    pytest.param(_frequency_line(_F2, '"1e400"'), "frequency is not a number",
                 id="string-inf"),
    pytest.param(_frequency_line(_F2, "1e400"),
                 "wavenumber must be finite and positive", id="literal-inf"),
    pytest.param(_frequency_line(_F2, "NaN"),
                 "wavenumber must be finite and positive", id="nan"),
    pytest.param(_frequency_line(_F2, "1" + "0" * 400),
                 "wavenumber must be finite and positive",
                 id="integer-past-float-range"),
    pytest.param(_frequency_line("0", "0"),
                 "wavenumber must be finite and positive", id="zero"),
    pytest.param(_frequency_line("-" + _F2, "-2.0"),
                 "wavenumber must be finite and positive", id="negative"),
    pytest.param(_frequency_line("true", _K1), "frequency is not a number",
                 id="true"),
    pytest.param(_frequency_line(f'"{_F2}"', '"2.0"'),
                 "frequency is not a number", id="strings"),
])
def test_malformed_header_is_a_parse_error(tmp_path, line, match):
    # a valid body follows, so that only the header can make the read fail
    path = _write(tmp_path, "bad.csv",
                  line + "\n" + _body(np.zeros((12, 12), dtype=complex)))
    with pytest.raises(ParseError, match=match) as excinfo:
        dataio.read_dataset(path)
    assert excinfo.value.line == 1


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


def _rows_turned_to_the_pole(rule, q, spin):
    """The rule's [theta, phi, weight] rows turned so that point q lands on
    the +z pole, then spun about z, as an external solver writes them:
    theta from arccos, phi straight from atan2 (so in (-pi, pi]), and the
    pole with its grid line's azimuth, spin."""
    turn = Rotation.from_euler("zyz", [-rule.phi[q], -rule.theta[q], spin])
    x, y, z = turn.as_matrix() @ rule.unit_vectors.T
    rows = np.column_stack([np.arccos(np.clip(z, -1.0, 1.0)),
                            np.arctan2(y, x), rule.weights])
    rows[q, :2] = 0.0, spin
    return rows


@given(size=st.sampled_from(SUPPORTED_SIZES), data=st.data())
def test_turned_lebedev_rules_round_trip_as_custom_rules(size, data):
    """A turned rule reads back as custom-N, its phi canonicalized as
    Direction does, and it and the samples survive another write and read
    bit for bit."""
    rule = sm.lebedev_rule(size)
    q = data.draw(st.integers(0, size - 1), label="q")
    spin = data.draw(st.floats(0.1, 6.0), label="spin")
    rows = _rows_turned_to_the_pole(rule, q, spin)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    matrix = (rng.standard_normal((2 * size, 2 * size))
              + 1j * rng.standard_normal((2 * size, 2 * size)))
    expected = [sm.Direction(t, p) for t, p, _ in rows]
    with tempfile.TemporaryDirectory() as name:
        tmp = pathlib.Path(name)
        np.save(tmp / "turned.npy", matrix)
        header = _header(rule, 1.5, format_version=2, body="turned.npy")
        header["rule"] = rows.tolist()
        first = dataio.read_dataset(
            _write(tmp, "turned.csv", json.dumps(header) + "\n"))
        dataio.write_dataset(first, str(tmp / "again.csv"))
        second = dataio.read_dataset(str(tmp / "again.csv"))
    for back in (first, second):
        assert back.rule.name == f"custom-{size}"
        assert back.rule.theta.tobytes() == \
            np.array([d.theta for d in expected]).tobytes()
        assert back.rule.phi.tobytes() == \
            np.array([d.phi for d in expected]).tobytes()
        assert back.rule.weights.tobytes() == rule.weights.tobytes()
        assert back.rule.phi[q] == 0.0
        assert back.matrix.tobytes() == matrix.tobytes()


def _damaged(rows, damage):
    rows = [list(r) for r in rows]
    kind, value = damage
    if kind == "move-weight":  # weight 0 onto weight 1: the sum stays 4 pi
        rows[1][2] += rows[0][2]
        rows[0][2] = 0.0
    elif kind == "row":
        rows[3] = value(rows[3])
    else:
        rows[3][kind] = value
    return rows


_RULE_DAMAGE = {
    "weight-zero": ("move-weight", None),
    "weight-nan": (2, math.nan),
    "phi-nan": (1, math.nan),
    "phi-infinity": (1, math.inf),
    "phi-minus-infinity": (1, -math.inf),
    "theta-nan": (0, math.nan),
    "theta-past-pi": (0, 3.5),
    "theta-past-float-range": (0, 10 ** 400),
    "short-row": ("row", lambda r: r[:2]),
    "long-row": ("row", lambda r: r + [0.0]),
    "null": (1, None),
    "not-a-number": (0, "abc"),
    "numeric-string": (0, "1.5"),
    "true": (1, True),
    "false": (0, False),
}


@pytest.mark.parametrize("damage", list(_RULE_DAMAGE.values()),
                         ids=list(_RULE_DAMAGE))
def test_rule_that_cannot_be_decomposed_is_a_parse_error(tmp_path, damage):
    rule = sm.lebedev_rule(26)
    rows = np.column_stack([rule.theta, rule.phi, rule.weights]).tolist()
    np.save(tmp_path / "bad.npy", np.zeros((52, 52), dtype=complex))
    header = _header(rule, 1.0, format_version=2, body="bad.npy")
    header["rule"] = _damaged(rows, damage)
    path = _write(tmp_path, "bad.csv", json.dumps(header) + "\n")
    with pytest.raises(ParseError, match="malformed rule entry") as excinfo:
        dataio.read_dataset(path)
    assert excinfo.value.line == 1


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
    units = np.vstack([rule.theta_hats, rule.phi_hats])
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
    dataio.write_modes(modeset, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["mode"]) for r in rows] == list(range(modeset.n_modes))
    assert [float(r["significance"]) for r in rows] == pytest.approx(
        np.abs(modeset.eigenvalues))


def test_write_modes_null_rows(tmp_path, mie_modes_ka1):
    # the null-space modes carry t = 0 exactly, so lambda is infinite
    _, _, modeset = mie_modes_ka1
    path = str(tmp_path / "modes.csv")
    dataio.write_modes(modeset, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    null = [r for r in rows if float(r["significance"]) == 0.0]
    assert len(rows) == modeset.n_modes
    assert len(null) == modeset.n_modes - np.count_nonzero(
        modeset.eigenvalues) > 0
    for row in null:
        assert (row["re_t"], row["im_t"], row["lossless_residual"]) == \
            ("0", "0", "0")
        assert (row["re_lambda"], row["im_lambda"]) == ("nan", "nan")


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


def _ka_at_bound(n_q):
    """The ka whose quadrature_bound is exactly n_q points."""
    return scipy.optimize.brentq(lambda ka: quadrature_bound(ka) - n_q,
                                 1e-3, 20.0)


# two ka per rule up to its bound, one on the three costly ones, plus the
# two cases where the null space once took in the smallest multiplet
_ORACLE_CASES = (
    [(n_q, 3.0, frac * _ka_at_bound(n_q))
     for n_q in SUPPORTED_SIZES[:-3] for frac in (0.5, 1.0)]
    + [(n_q, 3.0, _ka_at_bound(n_q)) for n_q in SUPPORTED_SIZES[-3:]]
    + [(230, 3.0, 3.5), (230, 6.0, 4.2)])


@pytest.mark.parametrize("n_q, eps_r, ka", _ORACLE_CASES)
def test_band_limited_lossless_spheres_validate_on_every_rule(n_q, eps_r, ka):
    rule = sm.lebedev_rule(n_q)
    smat = sm.MieBackend(sm.LayeredSphere.homogeneous(1.0, eps_r)).sample(
        rule, ka)
    report = dataio.validation_report(smat)
    tol = DEFAULT_TOLERANCES
    assert report["reciprocity_residual"] < tol["reciprocity"]
    assert report["lossless_residual_max"] < tol["lossless"]
    assert report["eigenpair_residual_max"] < tol["eigenpair"]
    assert report["n_modes"] == 2 * n_q
