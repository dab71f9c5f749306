"""Command-line interface: formats, exit codes, determinism."""

import hashlib
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from pairwell import solve
from pairwell.cli import _sweep_csv_lines, main
from pairwell.solver import SweepPoint, SweepResult
from pairwell.transcend import StateLabel

PI = np.pi
DATA = pathlib.Path(__file__).parent / "data"
# SHA-256 of `pairwell density` stdout, keyed by argv; written before the
# grid and the CSV were built per axis, and not to move by a byte.
DENSITY_SHA256 = json.loads((DATA / "density_sha256.json").read_text(encoding="utf-8"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_json_reference_root(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--U", "-1", "--n", "1", "--m", "1")
        assert code == 0
        record = json.loads(out)
        assert record["schema_version"] == "1"
        assert record["command"] == "solve"
        results = record["results"]
        assert round(results["re_k1"], 2) == 3.06
        assert round(results["im_k1"], 2) == 0.52
        assert results["case_sign"] == 1
        # JSON floats round-trip to the exact solver output.
        direct = solve(-1.0, 1, 1)
        assert results["re_k1"] == direct.k1.real
        assert results["im_k1"] == direct.k1.imag
        assert results["energy"] == direct.energy

    def test_zero_interaction(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--U", "0", "--n", "2", "--m", "1")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["re_k1"] == 2.0 * PI
        assert results["re_k2"] == PI

    def test_repulsive_pair(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--U", "1", "--n", "2", "--m", "2")
        assert code == 0
        results = json.loads(out)["results"]
        assert round(results["re_k1"], 2) == 6.80
        assert round(results["re_k2"], 2) == 5.84

    def test_csv_format_reparses(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--U", "-1", "--n", "1", "--m", "1", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        direct = solve(-1.0, 1, 1)
        assert float(fields["re_k1"]) == pytest.approx(direct.k1.real, rel=1e-11)
        assert float(fields["im_k1"]) == pytest.approx(direct.k1.imag, rel=1e-11)

    def test_unreachable_tolerance_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--U", "-1", "--n", "1", "--m", "1", "--tol", "1e-30")
        assert code == 2
        assert "numerical failure" in err

    def test_loose_tolerance_cannot_pass_the_seed(self, capsys):
        # Newton accepts the unrefined seed (residual ~1) at --tol 1e3, but
        # the acceptance gate's ceiling does not follow --tol.
        code, _, err = run_cli(
            capsys, "solve", "--U", "-1", "--n", "1", "--m", "1", "--tol", "1e3")
        assert code == 2
        assert "exceeds" in err

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1)])
    def test_zero_basis_is_usage_error(self, capsys, n, m):
        code, _, err = run_cli(capsys, "solve", "--U", "-1", "--n", str(n),
                               "--m", str(m), "--basis", "0")
        assert code == 1
        assert "basis cutoff must be a positive integer" in err

    def test_basis_override_on_reduced_path(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--U", "-1", "--n", "2", "--m", "1", "--basis", "16")
        assert code == 0
        results = json.loads(out)["results"]
        assert round(results["re_k1"], 2) == 6.05
        assert round(results["re_k2"], 2) == 3.27


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--U", "-1", "--n", "0", "--m", "1"),
            ("solve", "--U", "-1", "--n", "1", "--m", "1", "--tol", "-1"),
            ("solve", "--U", "-1", "--n", "1", "--m", "1", "--tol", "inf"),
            ("solve", "--U", "-1", "--n", "1", "--m", "1", "--tol", "nan"),
            ("solve", "--n", "1", "--m", "1"),
            ("solve", "--U", "x", "--n", "1", "--m", "1"),
            ("sweep", "--n", "1", "--m", "1", "--U-start", "-1", "--U-end", "0",
             "--steps", "1"),
            ("density", "--U", "-1", "--n", "1", "--m", "1", "--grid", "200"),
            ("density", "--U", "-1", "--n", "2", "--m", "2", "--symmetry", "triplet"),
            ("ci", "--U", "0", "--basis", "2", "--levels", "9"),
            ("ci", "--U", "0", "--basis", "2", "--levels", "0"),
            ("ci", "--U", "0", "--basis", "0", "--levels", "1"),
            ("sweep", "--n", "0", "--m", "1", "--U-start", "-1", "--U-end", "0",
             "--steps", "3"),
            ("density", "--U", "-1", "--n", "1", "--m", "0"),
            ("nonsense",),
            (),
        ],
    )
    def test_exit_code_one(self, capsys, argv):
        assert main(list(argv)) == 1
        capsys.readouterr()


class TestSweepCommand:
    def test_csv_shape_and_identities(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "1", "--m", "1",
            "--U-start", "-1", "--U-end", "0", "--steps", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "U,re_k1,im_k1,re_k2,im_k2,E,residual"
        assert len(lines) == 6
        for line in lines[1:]:
            u, re1, im1, re2, im2, energy, _ = (float(x) for x in line.split(","))
            assert energy == pytest.approx(re1**2 - im1**2 + re2**2 - im2**2, abs=1e-9)
        final = lines[-1].split(",")
        assert float(final[0]) == 0.0
        assert float(final[2]) == 0.0
        assert float(final[1]) == pytest.approx(PI, rel=1e-11)

    def test_golden_momenta(self, capsys):
        # The header, row count and U column of this sweep are pinned exactly;
        # the momenta and energies to 1e-11 relative, which leaves room for
        # last-digit rounding in libm.  The residual column sits at rounding
        # level and is left out.
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "1", "--m", "1",
            "--U-start", "-10", "--U-end", "0", "--steps", "200")
        assert code == 0
        rows = [line.split(",")[:6] for line in out.splitlines()]
        golden = [line.split(",") for line in
                  (DATA / "sweep_1_1_momenta.csv").read_text(encoding="utf-8").splitlines()]
        assert len(rows) == len(golden)
        assert rows[0] == golden[0]
        assert [row[0] for row in rows] == [row[0] for row in golden]
        values = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
        expected = np.array([[float(x) for x in row[1:]] for row in golden[1:]])
        np.testing.assert_allclose(values, expected, rtol=1e-11, atol=1e-12)

    def test_gap_rows_have_empty_momentum_fields(self):
        label = StateLabel(1, 1)
        result = SweepResult(
            label=label,
            points=[
                SweepPoint(-0.2, None, None, None),
            ],
        )
        lines = list(_sweep_csv_lines(result))
        assert lines[1] == "-0.2,,,,,,"

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["sweep", "--n", "1", "--m", "1",
                "--U-start", "-0.5", "--U-end", "0", "--steps", "3"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        target = tmp_path / "sweep.csv"
        assert main(argv + ["--out", str(target)]) == 0
        assert target.read_text(encoding="utf-8") == out

    def test_unwritable_out_exits_one(self, capsys, tmp_path):
        code = main(["sweep", "--n", "1", "--m", "1", "--U-start", "-0.5",
                     "--U-end", "0", "--steps", "3",
                     "--out", str(tmp_path / "missing" / "sweep.csv")])
        assert code == 1
        capsys.readouterr()


class TestDensityCommand:
    def test_singlet_grid_with_metadata(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--U", "-1", "--n", "2", "--m", "2", "--grid", "81")
        assert code == 0
        lines = out.strip().splitlines()
        comments = [line for line in lines if line.startswith("#")]
        assert any(line.startswith("# U = -1") for line in comments)
        assert any(line.startswith("# norm = ") for line in comments)
        assert lines[len(comments)] == "x1,x2,density"
        rows = [line.split(",") for line in lines[len(comments) + 1:]]
        assert len(rows) == 81 * 81
        densities = np.array([float(r[2]) for r in rows]).reshape(81, 81)
        assert np.all(densities[0] == 0.0)
        diagonal = np.mean(np.diag(densities))
        antidiagonal = np.mean(np.diag(np.fliplr(densities)))
        assert diagonal > antidiagonal

    @pytest.mark.parametrize("argv", list(DENSITY_SHA256))
    def test_golden_bytes(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DENSITY_SHA256[argv]

    def test_triplet_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--U", "-1", "--n", "1", "--m", "2",
            "--grid", "21", "--symmetry", "triplet")
        assert code == 0
        lines = [line for line in out.strip().splitlines() if not line.startswith("#")]
        rows = [line.split(",") for line in lines[1:]]
        on_diagonal = [float(r[2]) for r in rows if r[0] == r[1]]
        assert np.allclose(on_diagonal, 0.0, atol=1e-25)


class TestCiCommand:
    def test_noninteracting_levels(self, capsys):
        code, out, _ = run_cli(
            capsys, "ci", "--U", "0", "--basis", "10", "--levels", "4")
        assert code == 0
        rows = json.loads(out)["results"]["levels"]
        energies = [row["energy"] for row in rows]
        expected = [2 * PI**2, 5 * PI**2, 8 * PI**2, 10 * PI**2]
        assert energies == pytest.approx(expected, abs=1e-9)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "ci", "--U", "0", "--basis", "5", "--levels", "3",
            "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,energy,n,m,leading_coefficient"
        first = lines[1].split(",")
        assert first[2] == "1" and first[3] == "1"
        assert float(first[4]) == pytest.approx(1.0, abs=1e-10)

    def test_ground_energy_variational_in_basis(self, capsys):
        values = {}
        for basis in (5, 12):
            code, out, _ = run_cli(
                capsys, "ci", "--U", "-1", "--basis", str(basis), "--levels", "1")
            assert code == 0
            values[basis] = json.loads(out)["results"]["levels"][0]["energy"]
        assert values[12] <= values[5]

    def test_nonfinite_strength_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "ci", "--U", "nan", "--basis", "4", "--levels", "2")
        assert code == 1
        assert out == ""
        assert "interaction strength must be finite" in err


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys):
        argv = ("solve", "--U", "-1", "--n", "2", "--m", "2")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_module_entry_byte_identical(self):
        command = [sys.executable, "-m", "pairwell",
                   "solve", "--U", "-1", "--n", "1", "--m", "1"]
        first = subprocess.run(command, capture_output=True, check=True)
        second = subprocess.run(command, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.returncode == 0
