"""End-to-end tests of the command line, run in process via main(argv)."""

import json

import numpy as np
import pytest

from phasecon import (
    ChannelParams,
    QuadratureGrid,
    analysis,
    campaign_cell_seed,
    load_constellation,
    pami_quadrature,
    save_constellation,
)
from phasecon.cli import main
from conftest import count_builds


@pytest.fixture()
def psk8_file(psk8, tmp_path):
    path = tmp_path / "psk8.json"
    save_constellation(path, psk8, {"note": "test input"})
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def no_evaluation(monkeypatch):
    """Fail the test if a sweep or the mismatch matrix evaluates a rate."""

    def refuse(*args, **kwargs):
        raise AssertionError("a rate was evaluated before the bad value was seen")

    monkeypatch.setattr(analysis, "_quadrature", refuse)


# --- parser ----------------------------------------------------------------


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_subcommand_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "default: 7" in text
    assert "default: 40000" in text
    assert "default: 0.05" in text


@pytest.mark.parametrize(
    "argv, message",
    [
        (["evaluate", "{psk8}", "--snr-db", "12", "--quad-degree", "0"],
         "argument --quad-degree: expected a positive integer, got 0"),
        (["optimize", "--m-points", "4", "--snr-db", "12", "--iterations", "0",
          "--output", "{out}"], "argument --iterations: expected a positive integer, got 0"),
        (["campaign", "--m-points", "0", "--snr-list", "6", "--pnsd-list", "0",
          "--out-dir", "{out}"], "argument --m-points: expected a positive integer, got 0"),
        (["campaign", "--m-points", "4", "--snr-list", "1,x", "--pnsd-list", "0",
          "--out-dir", "{out}"],
         "argument --snr-list: expected comma-separated floats, got '1,x'"),
    ],
    ids=["quad-degree", "iterations", "m-points", "snr-list"],
)
def test_a_rejected_argument_is_a_parameter_error(argv, message, psk8_file, tmp_path, capsys):
    """Arguments the parser rejects exit 3 with one `error:` line, like every
    other invalid parameter, not with a usage dump."""
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *(a.format(psk8=psk8_file, out=out) for a in argv))
    assert code == 3
    assert stdout == "" and not out.exists()
    assert err == f"error: {message}\n"


# --- evaluate --------------------------------------------------------------


def test_evaluate_prints_machine_readable_json(psk8, psk8_file, capsys):
    code, out, _ = run(capsys, "evaluate", psk8_file, "--snr-db", "40", "--pnsd-deg", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["bits"] == pytest.approx(3.0, abs=1e-3)
    assert doc["method"] == "quadrature"
    assert doc["objective"] == "AMI"
    assert doc["snr_db"] == 40.0
    assert doc["pnsd_deg"] == 0.0
    assert doc["quad_degree"] == 7
    assert doc["fingerprint"] == psk8.fingerprint()
    assert isinstance(doc["clamped"], bool)


def test_evaluate_is_byte_identical_across_runs(psk8_file, tmp_path, capsys):
    argv = ["evaluate", psk8_file, "--snr-db", "9.3", "--pnsd-deg", "12.5"]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert code == 0
    assert first == second
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run(capsys, *argv, "--output", str(out_a))[0] == 0
    assert run(capsys, *argv, "--output", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text() == first.rstrip("\n") + "\n"


def test_evaluate_commands_share_one_evaluator(psk8_file, monkeypatch, capsys):
    """Each command asks for its grid by degree and gets the one object of
    that degree, so two `evaluate` commands in one process, AMI then PAMI,
    score on the one evaluator the first built."""
    builds = count_builds(monkeypatch)
    argv = ["evaluate", psk8_file, "--snr-db", "12", "--pnsd-deg", "20"]
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--objective", "PAMI")[0] == 0
    assert builds == [(1, 8)]


def test_evaluate_pami_objective(psk8_file, capsys):
    code, out, _ = run(
        capsys, "evaluate", psk8_file, "--snr-db", "12", "--pnsd-deg", "0",
        "--objective", "PAMI",
    )
    assert code == 0
    assert json.loads(out)["objective"] == "PAMI"


def test_evaluate_missing_file_is_a_file_error(capsys, tmp_path):
    code, _, err = run(capsys, "evaluate", str(tmp_path / "nope.json"), "--snr-db", "10")
    assert code == 2
    assert "error:" in err


def test_evaluate_to_a_missing_directory_is_a_file_error(psk8_file, capsys, tmp_path):
    """An output that cannot be written, after the result is printed, is a
    file error: exit 2 and one error line."""
    out = str(tmp_path / "missing" / "x.json")
    code, _, err = run(capsys, "evaluate", psk8_file, "--snr-db", "10", "--output", out)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_evaluate_malformed_file_is_a_file_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "evaluate", str(bad), "--snr-db", "10")
    assert code == 2


SQUARE = [[1, 0], [0, 1], [-1, 0], [0, -1]]


@pytest.mark.parametrize(
    "points, labels",
    [
        (SQUARE, [0, 1.5, 2, 3.9]),
        (SQUARE, ["0", "1", "2", "3"]),
        (SQUARE, [True, False, 2, 3]),
        (SQUARE, [0.0, 1.0, 2.0, 3.0]),
        ([[True, 1], [0, 1], [-1, 0], [0, -1]], [0, 1, 2, 3]),
        ([["1", 0], [0, 1], [-1, 0], [0, -1]], [0, 1, 2, 3]),
    ],
    ids=["float-labels", "string-labels", "bool-labels", "integral-floats", "bool-point",
         "string-point"],
)
def test_evaluate_refuses_labels_that_are_not_integers(points, labels, tmp_path, capsys):
    """Labels must be JSON integers and coordinates JSON numbers, never
    bools: a file that breaks either is a file error, not truncated."""
    doc = {"version": "phasecon-v1", "m": 2, "points": points, "labels": labels}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "evaluate", str(bad), "--snr-db", "10")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1, err
    doc["points"], doc["labels"] = SQUARE, [0, 1, 2, 3]
    bad.write_text(json.dumps(doc))
    assert run(capsys, "evaluate", str(bad), "--snr-db", "10")[0] == 0


def test_evaluate_negative_pnsd_is_a_parameter_error(psk8_file, capsys):
    code, _, err = run(capsys, "evaluate", psk8_file, "--snr-db", "10", "--pnsd-deg", "-1")
    assert code == 3
    assert "error:" in err


def test_evaluate_overflowing_snr_is_a_parameter_error(psk8_file, capsys):
    code, out, err = run(capsys, "evaluate", psk8_file, "--snr-db", "4000")
    assert code == 3
    assert out == "" and "snr_db" in err


def test_evaluate_refuses_an_snr_the_jitter_metric_cannot_score(psk8_file, capsys):
    # k_n**2 once overflowed here with a traceback (exit 1); at 180-300 dB
    # the rate read 0.0 bits.
    for snr in ("200", "2000"):
        code, out, err = run(capsys, "evaluate", psk8_file, "--snr-db", snr, "--pnsd-deg", "5")
        assert code == 3
        assert out == "" and "too high for the phase-jitter metric" in err
    code, out, _ = run(capsys, "evaluate", psk8_file, "--snr-db", "100", "--pnsd-deg", "5")
    assert code == 0 and json.loads(out)["bits"] == pytest.approx(3.0, abs=1e-5)


def test_evaluate_underflowing_pnsd_is_the_jitter_free_channel(psk8_file, capsys):
    # The square of 1e-170 deg in radians underflows to 0; at 1e-160 deg its
    # reciprocal already overflowed to k_phi = inf.
    code, tiny, _ = run(capsys, "evaluate", psk8_file, "--snr-db", "12", "--pnsd-deg", "1e-170")
    assert code == 0
    assert tiny == run(capsys, "evaluate", psk8_file, "--snr-db", "12", "--pnsd-deg", "0")[1]


# --- optimize --------------------------------------------------------------

FAST_SA = ["--iterations", "300", "--seed", "1"]


def test_optimize_writes_a_valid_design(tmp_path, capsys):
    out = tmp_path / "design.json"
    code, text, _ = run(
        capsys, "optimize", "--m-points", "4", "--snr-db", "10", "--pnsd-deg", "10",
        *FAST_SA, "--output", str(out),
    )
    assert code == 0
    assert text.startswith("best_AMI ")
    c, meta = load_constellation(out)
    assert c.size == 4
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert meta["objective"] == "AMI"
    assert meta["snr_db"] == 10.0
    assert meta["pnsd_deg"] == 10.0
    assert meta["seed"] == 1


def test_optimize_same_seed_same_bytes(tmp_path, capsys):
    args = ["optimize", "--m-points", "4", "--snr-db", "10", "--pnsd-deg", "10", *FAST_SA]
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert run(capsys, *args, "--output", str(a))[0] == 0
    assert run(capsys, *args, "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert run(capsys, *args[:-2], "--iterations", "300", "--seed", "2", "--output", str(c))[0] == 0
    assert a.read_bytes() != c.read_bytes()


def test_optimize_writes_a_trace_when_asked(tmp_path, capsys):
    out = tmp_path / "design.json"
    trace = tmp_path / "trace.csv"
    code, _, _ = run(
        capsys, "optimize", "--m-points", "4", "--snr-db", "10", "--pnsd-deg", "0",
        "--iterations", "40", "--seed", "0", "--output", str(out), "--trace", str(trace),
    )
    assert code == 0
    lines = trace.read_text(encoding="ascii").splitlines()
    assert lines[0] == "step,temperature,current_bits,best_bits,accepted,move_type"
    assert len(lines) == 41


@pytest.mark.parametrize("flag", ["--t-initial", "--d-initial"])
def test_optimize_rejects_an_infinite_schedule_start(flag, tmp_path, capsys):
    out = tmp_path / "x.json"
    code, _, err = run(
        capsys, "optimize", "--m-points", "4", "--snr-db", "10", *FAST_SA,
        flag, "inf", "--output", str(out),
    )
    assert code == 3
    assert "finite" in err
    assert not out.exists()


def test_optimize_rejects_non_power_of_two(tmp_path, capsys):
    code, _, err = run(
        capsys, "optimize", "--m-points", "3", "--snr-db", "10",
        "--output", str(tmp_path / "x.json"),
    )
    assert code == 3


# --- validate --------------------------------------------------------------


def test_validate_passes_on_an_accurate_cell(psk8_file, capsys):
    code, out, _ = run(
        capsys, "validate", psk8_file, "--snr-db", "12", "--pnsd-deg", "5",
        "--samples", "20000", "--seed", "0",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("quadrature_bits ")
    assert lines[-1] == "verdict PASS"
    tol = float(lines[4].split()[1])
    assert tol >= 0.03


def test_validate_fails_when_quadrature_is_starved(psk8_file, capsys):
    # A single phase node cannot average 20 degrees of jitter, so the
    # comparison against Monte Carlo must blow past the tolerance.
    code, out, _ = run(
        capsys, "validate", psk8_file, "--snr-db", "9", "--pnsd-deg", "20",
        "--quad-degree", "1", "--samples", "20000", "--seed", "0",
    )
    assert code == 1
    assert out.splitlines()[-1] == "verdict FAIL"


@pytest.mark.parametrize("command", ["evaluate", "optimize", "validate", "campaign"])
def test_a_non_integer_thread_setting_is_a_parameter_error(command, psk8_file, tmp_path, capsys,
                                                            monkeypatch):
    monkeypatch.setenv("PHASECON_THREADS", "soup")
    out = tmp_path / "opt.json"
    argv = {
        "evaluate": ["evaluate", psk8_file, "--snr-db", "12"],
        "optimize": ["optimize", "--m-points", "4", "--snr-db", "12", "--iterations", "10",
                     "--output", str(out)],
        "validate": ["validate", psk8_file, "--snr-db", "12", "--samples", "2000"],
        "campaign": ["campaign", "--m-points", "4", "--snr-list", "6", "--pnsd-list", "10",
                     "--iterations", "10", "--out-dir", str(out)],
    }[command]
    code, stdout, err = run(capsys, *argv)
    assert code == 3
    assert stdout == "" and not out.exists()
    assert err == "error: PHASECON_THREADS must be an integer, got 'soup'\n"


def test_validate_rejects_tiny_sample_counts(psk8_file, capsys):
    code, _, _ = run(
        capsys, "validate", psk8_file, "--snr-db", "12", "--pnsd-deg", "5",
        "--samples", "10",
    )
    assert code == 3


# --- sweep -----------------------------------------------------------------


def test_snr_sweep_row_count_includes_both_endpoints(psk8_file, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, text, _ = run(
        capsys, "sweep", psk8_file, "--axis", "snr", "--from", "1", "--to", "15",
        "--step", "1", "--output", str(out),
    )
    assert code == 0
    assert "wrote 15 rows" in text
    lines = out.read_text(encoding="ascii").splitlines()
    assert len(lines) == 17
    assert lines[1] == "x,bits,stderr"
    assert float(lines[2].split(",")[0]) == 1.0
    assert float(lines[-1].split(",")[0]) == 15.0


def test_sweep_fractional_step_hits_the_endpoint(psk8_file, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, text, _ = run(
        capsys, "sweep", psk8_file, "--axis", "pnsd", "--snr-db", "10",
        "--from", "0", "--to", "1", "--step", "0.25", "--output", str(out),
    )
    assert code == 0
    assert "wrote 5 rows" in text


def test_pnsd_sweep_requires_a_fixed_snr(psk8_file, tmp_path, capsys):
    code, _, err = run(
        capsys, "sweep", psk8_file, "--axis", "pnsd", "--from", "0", "--to", "10",
        "--step", "5", "--output", str(tmp_path / "c.csv"),
    )
    assert code == 3
    assert "snr-db" in err


def test_pnsd_sweep_rejects_a_negative_spread_before_any_work(
    psk8_file, tmp_path, capsys, no_evaluation
):
    out = tmp_path / "c.csv"
    code, text, err = run(
        capsys, "sweep", psk8_file, "--axis", "pnsd", "--snr-db", "10",
        "--from", "-1", "--to", "1", "--step", "1", "--output", str(out),
    )
    assert code == 3
    assert "pnsd_deg" in err and text == ""
    assert not out.exists()


def test_sweep_rejects_bad_ranges(psk8_file, tmp_path, capsys):
    code, _, _ = run(
        capsys, "sweep", psk8_file, "--axis", "snr", "--from", "10", "--to", "1",
        "--step", "1", "--output", str(tmp_path / "c.csv"),
    )
    assert code == 3
    code, _, _ = run(
        capsys, "sweep", psk8_file, "--axis", "snr", "--from", "1", "--to", "10",
        "--step", "-1", "--output", str(tmp_path / "c.csv"),
    )
    assert code == 3


# --- campaign and mismatch -------------------------------------------------

CAMPAIGN_ARGS = [
    "campaign", "--m-points", "4", "--snr-list", "6,10", "--pnsd-list", "0,15",
    "--iterations", "50", "--seed", "3",
]


def test_campaign_writes_manifest_and_designs(tmp_path, capsys):
    out_dir = tmp_path / "camp"
    code, text, _ = run(capsys, *CAMPAIGN_ARGS, "--out-dir", str(out_dir))
    assert code == 0
    assert "wrote 4 designs" in text
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["version"] == "phasecon-campaign-v1"
    assert manifest["m_points"] == 4
    assert len(manifest["cells"]) == 4
    for i, snr in enumerate((6.0, 10.0)):
        for j, pnsd in enumerate((0.0, 15.0)):
            cell = manifest["cells"][i * 2 + j]
            assert cell["snr_db"] == snr and cell["pnsd_deg"] == pnsd
            assert cell["seed"] == campaign_cell_seed(3, i, j)
            c, meta = load_constellation(out_dir / cell["file"])
            assert c.size == 4
            assert meta["seed"] == cell["seed"]


def test_campaign_manifest_records_each_cells_rate(tmp_path, capsys):
    out_dir = tmp_path / "camp"
    code, _, _ = run(capsys, *CAMPAIGN_ARGS, "--objective", "PAMI", "--out-dir", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    grid = QuadratureGrid.of_degree(manifest["quad_degree"])
    for cell in manifest["cells"]:
        c, _ = load_constellation(out_dir / cell["file"])
        params = ChannelParams.from_snr_pnsd(cell["snr_db"], cell["pnsd_deg"])
        assert abs(cell["best_bits"] - pami_quadrature(c, params, grid).bits) <= 1e-12


def test_campaign_with_a_repeated_cell_writes_nothing(tmp_path, capsys):
    # Two cells at 6 dB would share one design file, so the first cell's
    # manifest entry would name a design its rate does not belong to.  A
    # 2000 dB cell at 5 deg is one the evaluator refuses; it must be refused
    # before any cell anneals, wherever it sits in the grid.
    cases = [("6,6", "0", "strictly increasing"), ("6,2000", "5", "too high"),
             ("2000", "5", "too high")]
    for i, (snrs, pnsds, message) in enumerate(cases):
        out_dir = tmp_path / f"camp{i}"
        code, text, err = run(
            capsys, "campaign", "--m-points", "4", "--snr-list", snrs, "--pnsd-list", pnsds,
            "--iterations", "30", "--out-dir", str(out_dir),
        )
        assert code == 3, snrs
        assert message in err and text == "", snrs
        assert not out_dir.exists(), snrs


def test_single_cell_campaign_equals_direct_optimize(tmp_path, capsys):
    out_dir = tmp_path / "camp1"
    code, _, _ = run(
        capsys, "campaign", "--m-points", "4", "--snr-list", "10", "--pnsd-list", "15",
        "--iterations", "50", "--seed", "3", "--out-dir", str(out_dir),
    )
    assert code == 0
    direct = tmp_path / "direct.json"
    code, _, _ = run(
        capsys, "optimize", "--m-points", "4", "--snr-db", "10", "--pnsd-deg", "15",
        "--iterations", "50", "--seed", str(campaign_cell_seed(3, 0, 0)),
        "--output", str(direct),
    )
    assert code == 0
    produced = (out_dir / "design_snr10_pnsd15.json").read_bytes()
    assert produced == direct.read_bytes()


def test_mismatch_reads_a_campaign_and_reports_zero_diagonal(tmp_path, capsys):
    out_dir = tmp_path / "camp"
    assert run(capsys, *CAMPAIGN_ARGS, "--out-dir", str(out_dir))[0] == 0
    matrix = tmp_path / "matrix.csv"
    code, text, _ = run(capsys, "mismatch", "--designs-dir", str(out_dir), "--output", str(matrix))
    assert code == 0
    assert "wrote 4x4 matrix" in text
    lines = matrix.read_text(encoding="ascii").splitlines()
    loss_at = lines.index("# section=loss")
    header = lines[loss_at + 1].split(",")
    for row_text in lines[loss_at + 2:]:
        row = row_text.split(",")
        col = header.index(row[0])
        assert float(row[col]) == 0.0


def test_mismatch_rejects_a_negative_spread_before_any_work(tmp_path, capsys, no_evaluation):
    # The campaign anneals through the evaluator directly, not through
    # analysis._quadrature.
    out_dir = tmp_path / "camp"
    assert run(capsys, *CAMPAIGN_ARGS, "--out-dir", str(out_dir))[0] == 0
    matrix = tmp_path / "matrix.csv"
    code, text, err = run(
        capsys, "mismatch", "--designs-dir", str(out_dir), "--eval-pnsd-list", "0,-1",
        "--output", str(matrix),
    )
    assert code == 3
    assert "pnsd_deg" in err and text == ""
    assert not matrix.exists()


def test_mismatch_without_a_manifest_is_a_file_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "mismatch", "--designs-dir", str(tmp_path / "empty"),
        "--output", str(tmp_path / "m.csv"),
    )
    assert code == 2


def test_mismatch_rejects_a_foreign_manifest_version(tmp_path, capsys):
    out_dir = tmp_path / "camp"
    out_dir.mkdir()
    (out_dir / "manifest.json").write_text(json.dumps({"version": "other-v9", "cells": []}))
    code, _, _ = run(
        capsys, "mismatch", "--designs-dir", str(out_dir), "--output", str(tmp_path / "m.csv")
    )
    assert code == 2


def _drop_file(manifest):
    cell = dict(manifest["cells"][0])
    del cell["file"]
    return {**manifest, "cells": [cell]}


def _with_cell(**fields):
    return lambda manifest: {**manifest, "cells": [{**manifest["cells"][0], **fields}]}


@pytest.mark.parametrize(
    "edit",
    [
        lambda manifest: [1, 2],
        _drop_file,
        lambda manifest: {**manifest, "cells": {"a": 1}},
        lambda manifest: {**manifest, "cells": [7]},
        _with_cell(pnsd_deg=None),
        _with_cell(snr_db="six"),
        _with_cell(snr_db=True),
        _with_cell(snr_db=float("nan")),
        _with_cell(file=3),
        lambda manifest: {**manifest, "cells": manifest["cells"] * 2},
        _with_cell(pnsd_deg=-5.0),
        _with_cell(snr_db=1e6),
        lambda manifest: "{not json",
        lambda manifest: {**manifest, "cells": []},
    ],
    ids=["root-list", "cell-without-file", "cells-object", "cell-number", "null-pnsd",
         "string-snr", "bool-snr", "nan-snr", "number-file", "repeated-cell",
         "negative-pnsd", "overflowing-snr", "not-json", "no-cells"],
)
def test_mismatch_refuses_a_malformed_manifest(edit, psk8, tmp_path, capsys):
    """A manifest that is not an object with a list of distinct cells, each
    with a file name and numbers snr_db and pnsd_deg that make a channel, is
    a file error that names the manifest: exit 2 and one error line."""
    out_dir = tmp_path / "camp"
    out_dir.mkdir()
    save_constellation(out_dir / "d.json", psk8)
    manifest = {
        "version": "phasecon-campaign-v1",
        "cells": [{"snr_db": 10.0, "pnsd_deg": 0.0, "file": "d.json"}],
    }
    path = out_dir / "manifest.json"
    args = ("mismatch", "--designs-dir", str(out_dir), "--output", str(tmp_path / "m.csv"))
    path.write_text(json.dumps(manifest))
    assert run(capsys, *args)[0] == 0
    edited = edit(manifest)  # a string is the manifest's raw text
    path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(path) in err
