import json

import numpy as np
import pytest

from paulient import cli
from paulient.cli import main
from paulient.factorization import make_product_preserving
from paulient.mpu import mpu_zz_chain, pauli_power_mpu
from paulient.operators import Bipartition, haar_random_unitary
from paulient.paulis import clifford_to_dense, random_clifford
from paulient.serialize import (
    load_matrix,
    load_mpu,
    load_tableau,
    save_matrix,
    save_mpu,
    save_tableau,
    tableau_from_text,
    tableau_to_text,
)


class TestSerialize:
    def test_matrix_round_trip(self, tmp_path, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = tmp_path / "m.txt"
        save_matrix(str(path), m)
        assert np.allclose(load_matrix(str(path)), m, atol=1e-15)

    def test_matrix_bad_payload(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0 0 0\n")
        with pytest.raises(ValueError):
            load_matrix(str(path))

    def test_tableau_round_trip(self, tmp_path, rng):
        c = random_clifford(3, rng)
        path = tmp_path / "c.txt"
        save_tableau(str(path), c)
        assert load_tableau(str(path)) == c
        assert tableau_from_text(tableau_to_text(c)) == c

    def test_mpu_round_trip(self, tmp_path):
        t = mpu_zz_chain(0.3)
        path = tmp_path / "t.txt"
        save_mpu(str(path), t)
        loaded = load_mpu(str(path))
        assert loaded.chi == 2 and np.allclose(loaded.tensor, t.tensor)


def strip_wall_time(text: str) -> str:
    lines = text.splitlines()
    out = []
    for line in lines:
        if line.startswith("#") or "," not in line:
            out.append(line)
            continue
        cells = line.split(",")
        out.append(",".join(cells[:-1]))  # wall time is always the last column
    return "\n".join(out)


class TestCli:
    def test_pe_typical_prints_closed_form(self, capsys):
        assert main(["pe-typical", "--d", "16", "--da", "4"]) == 0
        out = capsys.readouterr().out
        assert "0.875347925101" in out
        assert abs(885600.0 / 1011712.0 - 0.875347925101) < 1e-12

    def test_pe_exact_and_determinism(self, tmp_path, rng):
        u = haar_random_unitary(8, rng)
        mfile = tmp_path / "u.txt"
        save_matrix(str(mfile), u)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["pe-exact", "--matrix", str(mfile), "--na", "1", "--nb", "2"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert strip_wall_time(out1.read_text()) == strip_wall_time(out2.read_text())
        assert "config_digest" in out1.read_text()

    def test_pe_sample_seeded(self, tmp_path, rng):
        u = haar_random_unitary(8, rng)
        mfile = tmp_path / "u.txt"
        save_matrix(str(mfile), u)
        args = ["pe-sample", "--matrix", str(mfile), "--na", "1", "--nb", "2",
                "--seed", "5", "--count", "200"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert strip_wall_time(out1.read_text()) == strip_wall_time(out2.read_text())
        assert "seed: 5" in out1.read_text()

    def test_pe_sample_rejects_unusable_counts(self, tmp_path, rng, capsys):
        u = haar_random_unitary(8, rng)
        mfile = tmp_path / "u.txt"
        save_matrix(str(mfile), u)
        args = ["pe-sample", "--matrix", str(mfile), "--na", "1", "--nb", "2",
                "--seed", "5"]
        for bad in (["--count", "0"], ["--min-samples", "1"]):
            out = tmp_path / "rows.csv"
            assert main(args + bad + ["--out", str(out)]) == 1
            assert not out.exists()
            assert main(args + bad) == 1
            assert capsys.readouterr().out == ""

    def test_thm1_check_true(self, tmp_path, rng):
        c = clifford_to_dense(random_clifford(2, rng))
        mfile = tmp_path / "c.txt"
        save_matrix(str(mfile), c)
        report = tmp_path / "report.txt"
        rc = main(["thm1-check", "--matrix", str(mfile), "--na", "1", "--nb", "1",
                   "--out", str(report)])
        assert rc == 0
        assert "product-preserving: true" in report.read_text()

    def test_thm1_check_false_with_witness(self, tmp_path, rng):
        u = haar_random_unitary(4, rng)
        mfile = tmp_path / "u.txt"
        save_matrix(str(mfile), u)
        report = tmp_path / "report.txt"
        assert main(["thm1-check", "--matrix", str(mfile), "--na", "1", "--nb", "1",
                     "--out", str(report)]) == 0
        text = report.read_text()
        assert "product-preserving: false" in text and "witness:" in text

    def test_thm1_factorize_report(self, tmp_path, rng):
        bp = Bipartition(1, 2)
        u, _, _, _ = make_product_preserving(bp, rng)
        mfile = tmp_path / "u.txt"
        save_matrix(str(mfile), u)
        report = tmp_path / "fac.txt"
        assert main(["thm1-factorize", "--matrix", str(mfile), "--na", "1",
                     "--nb", "2", "--out", str(report)]) == 0
        text = report.read_text()
        assert "[V]" in text and "[W]" in text and "[C]" in text
        residual = float([ln for ln in text.splitlines()
                          if ln.startswith("residual:")][0].split()[1])
        assert residual <= 1e-8

    def test_thm1_factorize_rejects_generic_input(self, tmp_path, rng):
        u = haar_random_unitary(4, rng)
        mfile = tmp_path / "u.txt"
        save_matrix(str(mfile), u)
        assert main(["thm1-factorize", "--matrix", str(mfile),
                     "--na", "1", "--nb", "1"]) == 1

    def test_mpu_pe_command(self, tmp_path):
        tfile = tmp_path / "tensor.txt"
        save_mpu(str(tfile), mpu_zz_chain(np.pi / 8))
        out = tmp_path / "out.csv"
        assert main(["mpu-pe", "--tensor", str(tfile), "--na", "2", "--nb", "2",
                     "--out", str(out)]) == 0
        value = float(out.read_text().splitlines()[-1].split(",")[4])
        assert abs(value - pauli_power_mpu(mpu_zz_chain(np.pi / 8), 2, 2)) < 1e-12

    def test_pe_bounds_command(self, tmp_path, rng):
        c = clifford_to_dense(random_clifford(2, rng))
        mfile = tmp_path / "c.txt"
        save_matrix(str(mfile), c)
        out = tmp_path / "b.csv"
        assert main(["pe-bounds", "--matrix", str(mfile), "--na", "1", "--nb", "1",
                     "--out", str(out)]) == 0
        row = out.read_text().splitlines()[-1].split(",")
        assert float(row[0]) < 1e-12 and float(row[1]) < 1e-12

    def test_haar_mc_command(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["haar-mc", "--d", "4", "--da", "2", "--n-unitaries", "60",
                     "--seed", "3", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[-1].split(",")
        assert abs(float(row[4])) < 4.0  # z-score against the closed form

    def test_haar_mc_rejects_too_few_unitaries(self, tmp_path, capsys):
        for count in ("0", "1"):
            args = ["haar-mc", "--d", "4", "--da", "2", "--n-unitaries", count,
                    "--seed", "3"]
            out = tmp_path / "mc.csv"
            assert main(args + ["--out", str(out)]) == 1
            assert not out.exists()
            assert main(args) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "at least 2" in captured.err

    def test_spinchain_run_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["spinchain-run", "--model", "xyz", "--sweep", "Jz=0:1:1",
                "--n", "3", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        header = [ln for ln in out1.read_text().splitlines() if not ln.startswith("#")][0]
        assert header == ("sweep_value,n_sites,mean_PE,mean_E,n_steps,total_samples,"
                          "converged,pe_half_width,e_half_width")

    def test_spinchain_run_writes_stdout_without_out(self, tmp_path, capsys):
        args = ["spinchain-run", "--model", "xyz", "--sweep", "Jz=0,1",
                "--n", "3", "--seed", "9", "--workers", "1"]
        out = tmp_path / "sweep.csv"
        assert main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(args) == 0
        text = capsys.readouterr().out
        assert text == out.read_text()
        lines = text.splitlines()
        assert lines[0] == "# command: spinchain-run"
        assert len([ln for ln in lines if not ln.startswith("#")]) == 3

    def test_spinchain_run_default_workers(self, monkeypatch, capsys):
        # one process per available core, at most one per sweep value
        seen = []
        monkeypatch.setattr(cli, "run_sweep_experiment",
                            lambda *a, workers, **kw: seen.append(workers) or [])
        args = ["spinchain-run", "--model", "xyz", "--sweep", "Jz=0,0.5,1", "--n", "3"]
        for cores in (8, 2):
            monkeypatch.setattr(cli, "available_cores", lambda: cores)
            assert main(args) == 0
        assert seen == [3, 2]

    def test_spinchain_run_rejects_zero_max_steps(self, tmp_path, capsys):
        args = ["spinchain-run", "--model", "xyz", "--sweep", "Jz=0",
                "--n", "3", "--max-steps", "0", "--workers", "1"]
        out = tmp_path / "sweep.csv"
        assert main(args + ["--out", str(out)]) == 1
        assert not out.exists()
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 1" in captured.err

    def test_sweep_parameter_validation(self, tmp_path):
        assert main(["spinchain-run", "--model", "tfim", "--sweep", "Jz=0:1:1",
                     "--n", "3"]) == 2

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 4, "da": 2}))
        out = tmp_path / "t.csv"
        assert main(["pe-typical", "--config", str(cfg), "--d", "16", "--da", "4",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1].startswith("16,4,")

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 4, "da": 2, "bogus": 1}))
        assert main(["pe-typical", "--config", str(cfg)]) == 2

    def test_missing_required_rejected(self):
        assert main(["pe-typical", "--d", "16"]) == 2

    def test_invalid_dimensions_exit_one(self):
        assert main(["pe-typical", "--d", "6", "--da", "2"]) == 1

    def test_selftest_green(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
