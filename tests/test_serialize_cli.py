import inspect
import itertools
import json
import re
import runpy
import sys

import numpy as np
import pytest

from paulient import acceptance, cli
from paulient.cli import main
from paulient.entpower import pauli_entangling_power
from paulient.factorization import (
    check_pauli_product_preserving,
    factorize,
    make_product_preserving,
)
from paulient.mpu import MPUTensor, mpu_zz_chain, pauli_power_mpu
from paulient.operators import Bipartition, haar_random_unitary
from paulient.paulis import (
    PauliString,
    clifford_from_generator_images,
    clifford_to_dense,
    random_clifford,
)
from paulient.serialize import (
    load_matrix,
    load_mpu,
    load_tableau,
    matrix_to_text,
    save_matrix,
    save_mpu,
    save_tableau,
    tableau_from_text,
    tableau_to_text,
)
from paulient.spinchain import run_sweep_experiment

# MPU tensor files with a bond dimension below 1
BOND_BELOW_ONE = ("0\n", "-1\n" + "0 " * 8 + "\n")


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

    def test_matrix_file_loads_to_equal_values(self, tmp_path, rng):
        # magnitudes across the float range, a subnormal, a signed zero, infinities
        shape = (6, 5)
        m = (rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
             + 1j * rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape))
        m[0, 0], m[0, 1], m[1, 1] = complex(np.inf, -np.inf), complex(-0.0, 5e-324), 1e308
        path = tmp_path / "m.txt"
        save_matrix(str(path), m)
        loaded = load_matrix(str(path))
        assert loaded.shape == shape and np.array_equal(loaded, m)
        assert np.signbit(loaded[0, 1].real)

    @pytest.mark.parametrize("body", ["1 0 0 0\n", "1 0 0 0\n0 0 1 0\n0 0 0 0\n"],
                             ids=["short", "long"])
    def test_matrix_float_count_names_the_file(self, tmp_path, body):
        path = tmp_path / "count.txt"
        path.write_text("2 2\n" + body)
        with pytest.raises(ValueError, match=r"expected 8 floats in .*count\.txt, got (4|12)"):
            load_matrix(str(path))

    @pytest.mark.parametrize("header", ["-1 -2", "-1 2", "2 -1"])
    def test_matrix_negative_dimensions_name_the_file(self, tmp_path, header):
        # -1 -2 matches the four floats below in count
        path = tmp_path / "neg.txt"
        path.write_text(header + "\n1 0 0 0\n")
        with pytest.raises(ValueError, match=r"neg\.txt: a matrix cannot have"):
            load_matrix(str(path))

    @pytest.mark.parametrize("body", ["1 0 x 0\n0 0 1 0\n", "1 0 0 0\n0 0 1 #\n",
                                      "1 0 0 0\n0 0\n1 0\n"], ids=["letter", "hash", "ragged"])
    def test_malformed_float_lines_name_the_file(self, tmp_path, body):
        path = tmp_path / "lines.txt"
        path.write_text("2 2\n" + body)
        with pytest.raises(ValueError, match=r"lines\.txt, after the header line"):
            load_matrix(str(path))
        path.write_text("1\n" + body)
        with pytest.raises(ValueError, match=r"lines\.txt, after the header line"):
            load_mpu(str(path))

    def test_matrix_text_is_the_saved_file(self, tmp_path, rng):
        m = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        path = tmp_path / "m.txt"
        save_matrix(str(path), m)
        assert path.read_text() == matrix_to_text(m)

    @pytest.mark.parametrize("text", ["", "1\n", "   \n"])
    def test_truncated_header_names_the_file(self, tmp_path, text):
        path = tmp_path / "short.txt"
        path.write_text(text)
        for load in (load_matrix, load_mpu):
            with pytest.raises(ValueError, match="short.txt"):
                load(str(path))

    def test_tableau_round_trip(self, tmp_path, rng):
        c = random_clifford(3, rng)
        path = tmp_path / "c.txt"
        save_tableau(str(path), c)
        assert load_tableau(str(path)) == c
        assert tableau_from_text(tableau_to_text(c)) == c

    def test_tableau_rejects_digits_other_than_bits(self):
        # reduced mod 2, this would be the one-qubit identity
        with pytest.raises(ValueError, match="other than 0 or 1"):
            tableau_from_text("1\n30\n03\n20\n")
        with pytest.raises(ValueError, match="other than 0 or 1"):
            tableau_from_text("1\n10\n01\n0x\n")

    def test_ragged_tableau_names_the_line_and_width(self):
        with pytest.raises(ValueError, match=r"line '1' has 1 bits, expected 2N = 2"):
            tableau_from_text("1\n10\n1\n00")
        with pytest.raises(ValueError, match=r"line '010' has 3 bits, expected 2N = 2"):
            tableau_from_text("1\n10\n01\n010\n")

    def test_tableau_text_is_the_binary_form_of_each_row(self):
        c = clifford_from_generator_images([(PauliString.from_label("Y"), -1),
                                            (PauliString.from_label("Z"), 1)])
        assert tableau_to_text(c) == "1\n11\n01\n10\n"
        assert tableau_from_text("1\n11\n01\n10\n") == c

    @pytest.mark.parametrize("text", ["", "  \n\n", "# a comment\n# another\n"])
    def test_tableau_missing_header(self, tmp_path, text):
        with pytest.raises(ValueError, match="missing its '<n_qubits>' header line"):
            tableau_from_text(text)
        path = tmp_path / "c.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="<n_qubits>"):
            load_tableau(str(path))

    @pytest.mark.parametrize("header", ["x", "1.0", "1 2"])
    def test_tableau_header_must_be_an_integer(self, tmp_path, header):
        text = header + "\n10\n01\n00\n"
        message = re.escape(f"tableau text: the '<n_qubits>' header takes integers, got '{header}'")
        with pytest.raises(ValueError, match="^" + message):
            tableau_from_text(text)
        path = tmp_path / "c.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_tableau(str(path))

    @pytest.mark.parametrize("header", ["x 1", "1 1.0"])
    def test_matrix_header_must_be_integers(self, tmp_path, header):
        path = tmp_path / "m.txt"
        path.write_text(header + "\n1 0\n")
        message = f"{path}: the '<rows> <cols>' header takes integers, got '{header}'"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            load_matrix(str(path))

    @pytest.mark.parametrize("header", ["x", "1.0"])
    def test_mpu_header_must_be_an_integer(self, tmp_path, header):
        path = tmp_path / "t.txt"
        path.write_text(header + "\n" + "1 0 " * 4 + "\n")
        message = f"{path}: the '<chi>' header takes integers, got '{header}'"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            load_mpu(str(path))

    def test_mpu_round_trip(self, tmp_path):
        t = mpu_zz_chain(0.3)
        path = tmp_path / "t.txt"
        save_mpu(str(path), t)
        loaded = load_mpu(str(path))
        assert loaded.chi == 2 and np.allclose(loaded.tensor, t.tensor)

    @pytest.mark.parametrize("text", BOND_BELOW_ONE, ids=["zero", "negative"])
    def test_mpu_bond_below_one_names_the_file(self, tmp_path, text):
        path = tmp_path / "bond.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="bond.txt.*at least 1"):
            load_mpu(str(path))

    @pytest.mark.parametrize("chi", [0, -1])
    def test_mpu_tensor_bond_below_one_rejected(self, chi):
        with pytest.raises(ValueError, match="at least 1"):
            MPUTensor(chi, np.zeros((0, 0, 2, 2)))


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

    def test_estimate_rows_say_whether_the_rule_fired(self, tmp_path, rng, capsys):
        mfile = tmp_path / "u.txt"
        save_matrix(str(mfile), haar_random_unitary(8, rng))
        matrix = ["--matrix", str(mfile), "--na", "1", "--nb", "2"]
        for args, converged in ((["pe-exact"], "true"),
                                (["pe-sample", "--seed", "5", "--count", "200"], "true"),
                                (["pe-sample", "--seed", "5", "--sem-target", "1e-6",
                                  "--max-samples", "40"], "false")):
            assert main(args + matrix) == 0
            columns, row = capsys.readouterr().out.splitlines()[-2:]
            assert columns == "value,sem,n_samples,converged,wall_time_s"
            assert row.split(",")[3] == converged, args

    @pytest.mark.parametrize("joined", [True, False])
    @pytest.mark.parametrize("value", ["-1e-3", "-inf"])
    def test_negative_float_words_reach_their_checks(self, tmp_path, rng, capsys, value,
                                                     joined):
        # argparse reads `--flag -1e-3` as two flags unless the value is joined on
        mfile = tmp_path / "u.txt"
        save_matrix(str(mfile), haar_random_unitary(8, rng))
        sample = ["pe-sample", "--matrix", str(mfile), "--na", "1", "--nb", "2", "--seed", "5"]
        chain = ["spinchain-run", "--model", "xyz", "--sweep", "Jz=0", "--n", "3",
                 "--workers", "1", "--mode", "sampled", "--seed", "1"]
        cases = ((sample, "--sem-target", "threshold must be positive"),
                 (chain, "--threshold", "threshold must be positive"),
                 (chain, "--dt", "dt must be finite and positive"),
                 (chain, "--pe-sem-target", "pe_sem_target must be positive"))
        for args, flag, message in cases:
            spelled = [f"{flag}={value}"] if joined else [flag, value]
            assert main(args + spelled) == 1, flag
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err, flag

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

    def test_unreachable_thresholds_rejected(self, tmp_path, rng, capsys):
        u = haar_random_unitary(8, rng)
        mfile = tmp_path / "u.txt"
        save_matrix(str(mfile), u)
        sample = ["pe-sample", "--matrix", str(mfile), "--na", "1", "--nb", "2", "--seed", "5"]
        chain = ["spinchain-run", "--model", "xyz", "--sweep", "Jz=0", "--n", "3",
                 "--workers", "1"]
        for args in (sample + ["--sem-target", "0"], sample + ["--sem-target", "nan"],
                     chain + ["--threshold", "0"], chain + ["--threshold", "-0.5"]):
            out = tmp_path / "rows.csv"
            assert main(args + ["--out", str(out)]) == 1
            assert not out.exists()
            assert main(args) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "threshold must be positive" in captured.err

    def test_empty_out_path_is_an_error(self, tmp_path, rng, capsys):
        mfile = tmp_path / "c.txt"
        save_matrix(str(mfile), clifford_to_dense(random_clifford(2, rng)))
        for argv in (["thm1-check", "--matrix", str(mfile), "--na", "1", "--nb", "1"],
                     ["pe-typical", "--d", "16", "--da", "4"]):
            assert main(argv + ["--out", ""]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")

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

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1", "-1e-3"])
    def test_thm1_commands_reject_unusable_tol(self, tmp_path, capsys, tol):
        # exp(-i pi/8 XX) is not product-preserving; the identity is
        xx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])
        for name, u in (("xx", np.cos(np.pi / 8) * np.eye(4) - 1j * np.sin(np.pi / 8) * xx),
                        ("eye", np.eye(4))):
            mfile = tmp_path / f"{name}.txt"
            save_matrix(str(mfile), u)
            for command, spelled in itertools.product(("thm1-check", "thm1-factorize"),
                                                      ([f"--tol={tol}"], ["--tol", tol])):
                assert main([command, "--matrix", str(mfile), "--na", "1", "--nb", "1",
                             *spelled]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "tol must be finite and positive" in captured.err, (command, name)

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

    @pytest.mark.parametrize("shape", [(4, 2), (4, 8)])
    def test_non_square_matrix_exits_one(self, tmp_path, capsys, shape):
        mfile = tmp_path / "m.txt"
        save_matrix(str(mfile), np.eye(*shape))  # orthonormal columns or rows
        for command in ("pe-exact", "thm1-check"):
            assert main([command, "--matrix", str(mfile), "--na", "1", "--nb", "1"]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
            assert "unitary" in captured.err, command

    def test_truncated_input_file_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        for argv in (["pe-exact", "--matrix", str(empty), "--na", "1", "--nb", "1"],
                     ["mpu-pe", "--tensor", str(empty), "--na", "1", "--nb", "1"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
            assert "empty.txt" in captured.err

    @pytest.mark.parametrize("mode", ["finite", "thermodynamic"])
    def test_mpu_pe_bond_below_one_exits_one(self, tmp_path, capsys, mode):
        tfile = tmp_path / "bond.txt"
        for text in BOND_BELOW_ONE:
            tfile.write_text(text)
            assert main(["mpu-pe", "--tensor", str(tfile), "--na", "1", "--nb", "1",
                         "--mode", mode]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
            assert "bond.txt" in captured.err

    @pytest.mark.parametrize("mode", ["finite", "thermodynamic"])
    def test_mpu_pe_bond_above_the_dense_limit_exits_one(self, tmp_path, capsys, mode):
        tfile = tmp_path / "chi3.txt"
        save_mpu(str(tfile), MPUTensor(3, np.zeros((3, 3, 2, 2))))
        assert main(["mpu-pe", "--tensor", str(tfile), "--na", "1", "--nb", "1",
                     "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "transfer-matrix limit 2" in captured.err

    @pytest.mark.parametrize("mode", ["finite", "thermodynamic"])
    def test_mpu_pe_non_unitary_tensor_exits_one(self, tmp_path, capsys, mode):
        tfile = tmp_path / "bad.txt"
        save_mpu(str(tfile), MPUTensor(2, np.random.default_rng(1).normal(size=(2, 2, 2, 2))))
        assert main(["mpu-pe", "--tensor", str(tfile), "--na", "2", "--nb", "2",
                     "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "not unitary" in captured.err

    def test_mpu_pe_scaled_unitary_tensor_exits_one_in_thermodynamic_mode(self, tmp_path,
                                                                          capsys):
        tfile = tmp_path / "half.txt"
        save_mpu(str(tfile), MPUTensor(2, 0.5 * mpu_zz_chain(0.3).tensor))
        out = tmp_path / "out.csv"
        assert main(["mpu-pe", "--tensor", str(tfile), "--na", "2", "--nb", "2",
                     "--mode", "thermodynamic", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and "not unitary" in captured.err

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

    @pytest.mark.parametrize("dims", [("12", "4"), ("16", "3")])
    def test_haar_mc_rejects_bad_dimensions(self, monkeypatch, capsys, dims):
        draws = []
        monkeypatch.setattr(cli, "haar_random_unitary",
                            lambda *a: draws.append(a) or haar_random_unitary(*a))
        assert main(["haar-mc", "--d", dims[0], "--da", dims[1], "--seed", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "need powers of two" in captured.err
        assert draws == []

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

    def test_spinchain_run_output_independent_of_workers(self, capsys):
        args = ["spinchain-run", "--model", "xyz", "--sweep", "Jz=0,1", "--n", "3",
                "--mode", "exact"]
        texts = []
        for workers in ("1", "2"):
            assert main(args + ["--workers", workers]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]

    def test_spinchain_run_csv_matches_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["spinchain-run", "--model", "xyz", "--sweep", "Jz=0,1", "--n", "4",
                     "--mode", "exact", "--seed", "7", "--workers", "1",
                     "--out", str(out)]) == 0
        rows = run_sweep_experiment("xyz", [0.0, 1.0], 4, mode="exact", seed=7)
        assert len(rows) == 2 and all(r.converged for r in rows)
        text = out.read_text().splitlines()
        assert text[:3] == ["# command: spinchain-run", text[1], "# seed: 7"]
        assert text[1].startswith("# config_digest: ")
        assert text[3] == ("sweep_value,n_sites,mean_PE,mean_E,n_steps,total_samples,"
                           "converged,pe_half_width,e_half_width")
        assert len(text) == 6
        for line, r in zip(text[4:], rows):
            cells = line.split(",")
            assert cells[6] == "true"
            assert float(cells[7]) == pytest.approx(r.pe_half_width, rel=1e-11)
            assert float(cells[8]) == pytest.approx(r.e_half_width, rel=1e-11)
            assert max(r.pe_half_width, r.e_half_width) < 2e-2

    def test_spinchain_run_exact_past_the_limit_exits_one(self, tmp_path, capsys):
        args = ["spinchain-run", "--model", "xyz", "--sweep", "Jz=0", "--n", "9",
                "--mode", "exact", "--workers", "1"]
        out = tmp_path / "sweep.csv"
        assert main(args + ["--out", str(out)]) == 1
        assert not out.exists()
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "limit is 8 qubits" in captured.err

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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_spinchain_run_rejects_workers_below_one(self, tmp_path, capsys, workers):
        args = ["spinchain-run", "--model", "xyz", "--sweep", "Jz=0",
                "--n", "3", "--workers", workers]
        out = tmp_path / "sweep.csv"
        assert main(args + ["--out", str(out)]) == 1
        assert not out.exists()
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "workers must be at least 1" in captured.err

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

    @pytest.mark.parametrize("sweep", ["Jz=", "Jz=a:b", "Jz=0,nan", "Jz=inf:1:2",
                                       "Jz=1:0.5:0", "Jz=0:1e-12:1",
                                       f"Jz=0:1:{cli.MAX_SWEEP_POINTS}"])
    def test_malformed_sweep_exits_two_before_any_run(self, monkeypatch, capsys, sweep):
        runs = []
        monkeypatch.setattr(cli, "run_sweep_experiment", lambda *a, **kw: runs.append(a) or [])
        assert main(["spinchain-run", "--model", "xyz", "--sweep", sweep, "--n", "3",
                     "--workers", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error:")
        assert runs == []  # no sweep started, so no Hamiltonian was built

    def test_longest_sweep_range_accepted(self, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run_sweep_experiment", lambda *a, **kw: runs.append(a) or [])
        last = cli.MAX_SWEEP_POINTS - 1
        assert main(["spinchain-run", "--model", "xyz", "--sweep", f"Jz=0:1:{last}",
                     "--n", "3", "--workers", "1"]) == 0
        assert runs[0][1] == [float(i) for i in range(cli.MAX_SWEEP_POINTS)]

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

    @pytest.mark.parametrize("content", [["d"], 7, None, "x"])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        assert main(["pe-typical", "--d", "16", "--da", "4", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must hold a JSON object" in captured.err

    def test_missing_required_rejected(self):
        assert main(["pe-typical", "--d", "16"]) == 2

    def test_invalid_dimensions_exit_one(self):
        assert main(["pe-typical", "--d", "6", "--da", "2"]) == 1

    def test_selftest_green(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert len(out.splitlines()) == len(acceptance.CRITERIA)

    @pytest.mark.parametrize("faulty, shown", [
        (lambda: [("worst residual", 1e-6, 1e-8)], "worst residual: 1e-06 > 1e-08"),
        (lambda: 1 / 0, "raised ZeroDivisionError"),
    ], ids=["above-bound", "raises"])
    def test_selftest_failing_criterion(self, capsys, monkeypatch, faulty, shown):
        label, _ = acceptance.CRITERIA[1]
        monkeypatch.setitem(acceptance.CRITERIA, 1, (label, faulty))
        assert main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" (")[0] for line in lines] == [f"criterion {k}"
                                                           for k in acceptance.CRITERIA]
        assert lines[0].startswith(f"criterion 1 ({label}): FAIL [") and shown in lines[0]
        assert all(": PASS [" in line for line in lines[1:])

    def test_python_dash_m_runs_the_cli(self, capsys, monkeypatch):
        argv = ["pe-typical", "--d", "16", "--da", "4"]
        assert main(argv) == 0
        direct = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["paulient", *argv])
        with pytest.raises(SystemExit) as stop:
            runpy.run_module("paulient", run_name="__main__")
        assert stop.value.code == 0 and capsys.readouterr().out == direct


# every CLI option whose value feeds a library parameter: (function, parameter)
_FEEDS = {
    ("pe-exact", "exact_limit"): (pauli_entangling_power, "exact_limit"),
    ("pe-sample", "sem_target"): (pauli_entangling_power, "sem_target"),
    ("pe-sample", "count"): (pauli_entangling_power, "n_samples"),
    ("pe-sample", "min_samples"): (pauli_entangling_power, "min_samples"),
    ("pe-sample", "max_samples"): (pauli_entangling_power, "max_samples"),
    ("thm1-check", "tol"): (check_pauli_product_preserving, "tol"),
    ("thm1-factorize", "tol"): (factorize, "tol"),
    ("mpu-pe", "mode"): (pauli_power_mpu, "mode"),
    ("spinchain-run", "mode"): (run_sweep_experiment, "mode"),
    ("spinchain-run", "dt"): (run_sweep_experiment, "dt"),
    ("spinchain-run", "threshold"): (run_sweep_experiment, "sem_threshold"),
    ("spinchain-run", "n_min"): (run_sweep_experiment, "n_min"),
    ("spinchain-run", "max_steps"): (run_sweep_experiment, "max_steps"),
    ("spinchain-run", "pe_sem_target"): (run_sweep_experiment, "pe_sem_target"),
    ("spinchain-run", "seed"): (run_sweep_experiment, "seed"),
}
# options with a default of their own that no library parameter takes
_CLI_ONLY = {("haar-mc", "n_unitaries")}


def test_cli_defaults_are_the_library_defaults():
    seen = set()
    for command, (_, opts) in cli._SCHEMAS.items():
        for opt in opts:
            key = (command, opt["flags"][0].lstrip("-").replace("-", "_"))
            if key in _FEEDS:
                func, param = _FEEDS[key]
                assert opt.get("default") == inspect.signature(func).parameters[param].default, key
                seen.add(key)
            elif opt.get("default") is not None:
                assert key in _CLI_ONLY, f"{key} has a default but feeds no listed parameter"
    assert seen == set(_FEEDS)


def test_config_values_reach_the_handler(tmp_path, monkeypatch, capsys):
    # for every option with a default, a config value other than the default
    # reaches the handler and a flag still wins over it; for every option, a
    # config value of another type is a config error
    wrong = {int: ["3", 2.5, True], float: ["0.5", False], str: [3, ["x"]]}
    cfg_file = tmp_path / "cfg.json"
    for command, (_, opts) in cli._SCHEMAS.items():
        seen = []
        monkeypatch.setitem(cli._SCHEMAS, command, (lambda cfg: seen.append(cfg) or 0, opts))

        def run(config, flags=(), skip=None):
            cfg_file.write_text(json.dumps(config))
            required = [arg for opt in opts if opt.get("required") and opt is not skip
                        for arg in (opt["flags"][0], str(opt.get("choices", [1])[0]))]
            return main([command, "--config", str(cfg_file), *required, *flags])

        for opt in opts:
            key = opt["flags"][0].lstrip("-").replace("-", "_")
            default, kind = opt.get("default"), opt["type"]
            if default is not None:
                if "choices" in opt:
                    value = next(c for c in opt["choices"] if c != default)
                else:
                    value = default + 1 if kind is int else default * 2 + 0.5
                assert run({key: value}) == 0 and seen[-1][key] == value, (command, key)
                assert type(seen[-1][key]) is kind
                assert run({key: value}, [opt["flags"][0], str(default)]) == 0
                assert seen[-1][key] == default, (command, key)
            if kind is float:
                assert run({key: 3}) == 0 and seen[-1][key] == 3.0
                assert type(seen[-1][key]) is float
            for bad in wrong[kind]:
                del seen[:]
                assert run({key: bad}, skip=opt) == 2, (command, key, bad)
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err.startswith("config error:")
                assert repr(key) in captured.err and seen == []
