import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from wfamin import aak
from wfamin.aak import hankel_norm, hankel_singular_values
from wfamin.cli import build_parser, main
from wfamin.errors import RankDeficiencyError
from wfamin.hankel import build_hankel
from wfamin.io import WfaDocument, load_document, save_document
from wfamin.wfa import random_stable_wfa
from wfamin.words import WordIndex

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_nilpotent_word(self, capsys):
        code, out, _ = run(capsys, "eval", str(FIXTURES / "nilpotent.wfa"), "ab")
        assert code == 0
        assert out.strip() == "1.0"

    def test_empty_word_gives_alpha_beta(self, capsys):
        code, out, _ = run(capsys, "eval", str(FIXTURES / "e1.wfa"), "")
        assert code == 0
        assert out.strip() == "1.0"

    def test_unknown_label_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", str(FIXTURES / "nilpotent.wfa"), "az")
        assert code == 2
        assert "unknown symbol" in err

    def test_unreadable_file_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", str(FIXTURES / "does-not-exist.wfa"), "a")
        assert code == 2


    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_weight_exits_2(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.wfa"
        path.write_text(
            (FIXTURES / "e2.wfa").read_text().replace("beta: 1 1", f"beta: 1 {bad}")
        )
        code, out, err = run(capsys, "eval", str(path), "a")
        assert code == 2
        assert out == ""
        assert err == f"error: line 6: weights must be finite (no NaN or inf), got '1 {bad}'\n"

    @pytest.mark.parametrize("old, new, message", [
        ("alphabet: a", "alphabet: a a", "line 3: symbol labels must be unique"),
        ("alphabet: a", "alphabet:", "line 3: alphabet must contain at least one label"),
        ("0 -0.3", "0 -0.3\ntransition b:\n1 0\n0 1",
         "line 10: transition 'b' is not in the alphabet"),
        ("alphabet: a", "alphabet: a b", "line 3: missing transition matrices for: b"),
        ("alphabet: a", "alphabet: a,b", "line 3: symbol labels must not contain ','"),
    ], ids=["repeated-label", "no-label", "unknown-transition", "missing-transition",
            "comma-in-label"])
    def test_alphabet_errors_name_their_line(self, capsys, tmp_path, old, new, message):
        path = tmp_path / "bad.wfa"
        path.write_text((FIXTURES / "e2.wfa").read_text().replace(old, new))
        code, out, err = run(capsys, "eval", str(path), "a")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_overflowing_value_exits_1(self, capsys, tmp_path):
        # alpha^T A_a A_a beta = 1e400 - 1e400: inf - inf, NaN
        path = tmp_path / "overflow.wfa"
        path.write_text(
            (FIXTURES / "e2.wfa").read_text()
            .replace("alpha: 1 1", "alpha: 1 -1")
            .replace("0.5 0\n0 -0.3", "1e200 0\n0 1e200")
        )
        assert run(capsys, "eval", str(path), "a")[:2] == (0, "0.0\n")
        code, out, err = run(capsys, "eval", str(path), "aa")
        assert code == 1
        assert out == ""
        assert "nan" in err and "overflow" in err


class TestApproximate:
    def test_e1_rank_zero_reports_four_thirds(self, capsys, tmp_path):
        out_file = tmp_path / "out.wfa"
        code, out, _ = run(
            capsys, "approximate", str(FIXTURES / "e1.wfa"), "0",
            "--mode", "aak", "--no-timestamp", "-o", str(out_file),
        )
        assert code == 0
        error_line = next(line for line in out.splitlines() if line.startswith("error:"))
        assert abs(float(error_line.split()[1]) - 4.0 / 3.0) < 1e-9
        assert out_file.exists()

    def test_e2_rank_one_certificate(self, capsys, tmp_path):
        out_file = tmp_path / "out.wfa"
        code, out, _ = run(
            capsys, "approximate", str(FIXTURES / "e2.wfa"), "1",
            "--mode", "aak", "--no-timestamp", "-o", str(out_file),
        )
        assert code == 0
        cert = next(line for line in out.splitlines() if line.startswith("certificate:"))
        deviation = float(re.search(r"within (\S+) relative", cert).group(1))
        assert deviation <= 1e-6
        assert load_document(out_file).wfa.num_states == 1

    def test_round_trip_reproduces_reported_error(self, capsys, tmp_path):
        out_file = tmp_path / "out.wfa"
        code, out, _ = run(
            capsys, "approximate", str(FIXTURES / "e2.wfa"), "1",
            "--mode", "aak", "--no-timestamp", "-o", str(out_file),
        )
        assert code == 0
        reported = float(
            next(line for line in out.splitlines() if line.startswith("achieved"))
            .split()[-1]
        )
        original = load_document(FIXTURES / "e2.wfa").wfa
        reloaded = load_document(out_file).wfa
        h = build_hankel(original, 63).entries
        g = build_hankel(reloaded, 63).entries
        assert abs(np.linalg.norm(h - g, 2) - reported) <= 1e-12

    def test_aak_reports_the_certificate_block(self, capsys, tmp_path):
        # the reported error is the certificate's own: the exact Hankel norm
        # of the input minus the written document, reproduced bit for bit
        out_file = tmp_path / "out.wfa"
        code, out, _ = run(
            capsys, "approximate", str(FIXTURES / "e2.wfa"), "1",
            "--no-timestamp", "-o", str(out_file),
        )
        assert code == 0
        assert "evaluation block" not in out
        reported = float(re.search(r"^achieved spectral-norm error: (\S+)$", out, re.MULTILINE).group(1))
        original = load_document(FIXTURES / "e2.wfa").wfa
        assert hankel_norm(original, load_document(out_file).wfa) == reported
        sigmas = [float(v) for v in re.search(r"^singular values: (.*)$", out, re.MULTILINE)
                  .group(1).split()]
        assert abs(reported - sigmas[1]) <= 1e-6 * sigmas[0]

    def test_minimal_input_of_low_block_rank_is_certified(self, capsys, tmp_path):
        # minimal, though its (8 x 8) Hankel block has numerical rank 6: a
        # block-rank minimality test refused it with exit 2
        out_file = tmp_path / "out.wfa"
        code, out, err = run(
            capsys, "approximate", str(FIXTURES / "near-rank-deficient.wfa"), "3",
            "--no-timestamp", "-o", str(out_file),
        )
        assert code == 0, err
        assert "certificate: attained sigma_3" in out
        original = load_document(FIXTURES / "near-rank-deficient.wfa").wfa
        written = load_document(out_file).wfa
        assert written.num_states == 3
        sigmas = hankel_singular_values(original)
        h = build_hankel(original, 199).entries
        g = build_hankel(written, 199).entries
        assert abs(np.linalg.norm(h - g, 2) - sigmas[3]) <= 1e-6 * sigmas[0]

    def test_non_normal_input_is_certified_at_every_k(self, capsys, tmp_path):
        # the observability Gramian, the extraction and the certificate of
        # this input each take the Bartels-Stewart fallback
        for k in range(8):
            code, out, err = run(
                capsys, "approximate", str(FIXTURES / "non-normal.wfa"), str(k),
                "--no-timestamp", "-o", str(tmp_path / f"out{k}.wfa"),
            )
            assert code == 0, err
            assert re.search(rf"^certificate: attained sigma_{k} within \S+ relative", out,
                             re.MULTILINE)

    def test_non_minimal_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "redundant.wfa"
        path.write_text(
            "alphabet: a\nstates: 2\nalpha: 0.5 0.5\nbeta: 1 1\ntransition a:\n0.5 0\n0 0.5\n"
        )
        code, out, err = run(capsys, "approximate", str(path), "1", "-o", str(tmp_path / "x.wfa"))
        assert code == 2
        assert out == ""
        assert "wfamin.minimize" in err
        assert not (tmp_path / "x.wfa").exists()

    @pytest.mark.parametrize("mode", [[], ["--mode", "aak"]])
    def test_length_in_aak_mode_exits_2(self, capsys, tmp_path, mode):
        out_file = tmp_path / "out.wfa"
        code, out, err = run(
            capsys, "approximate", str(FIXTURES / "e2.wfa"), "1", *mode,
            "--length", "2", "--no-timestamp", "-o", str(out_file),
        )
        assert code == 2
        assert out == ""
        assert "--length" in err
        assert not out_file.exists()

    def test_failed_certificate_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # e2 attains sigma_1 to ~8e-17 relative, which 1e-20 refuses
        monkeypatch.setattr(aak, "CERTIFY_RTOL", 1e-20)
        out_file = tmp_path / "out.wfa"
        code, out, err = run(
            capsys, "approximate", str(FIXTURES / "e2.wfa"), "1",
            "--no-timestamp", "-o", str(out_file),
        )
        assert code == 1
        assert out == ""
        assert "does not match the singular value" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("tol", ["1e-3", "-1", "0", "nan", "inf", "-inf", "x"])
    def test_tol_is_not_an_option(self, capsys, tmp_path, tol):
        # the certificate tolerance is the library's constant, not the caller's
        out_file = tmp_path / "out.wfa"
        code, out, err = run(
            capsys, "approximate", str(FIXTURES / "e2.wfa"), "1", "--tol", tol,
            "--no-timestamp", "-o", str(out_file),
        )
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --tol" in err
        assert not out_file.exists()

    def test_certificate_reports_the_library_tolerance(self, capsys, tmp_path, monkeypatch):
        # the report reads the constant the check used, when it runs
        monkeypatch.setattr(aak, "CERTIFY_RTOL", 1e-3)
        code, out, _ = run(
            capsys, "approximate", str(FIXTURES / "e2.wfa"), "1",
            "--no-timestamp", "-o", str(tmp_path / "out.wfa"),
        )
        assert code == 0
        assert out.splitlines()[-2].endswith("(tolerance 0.001)")
        code, out, _ = run(capsys, "approximate", "--help")
        assert code == 0
        assert "--output" in out and "--tol" not in out

    def test_svd_k_above_block_rank_exits_2(self, capsys, tmp_path):
        # a zero final vector makes every block zero, of rank 0 < k = 1
        path = tmp_path / "zero.wfa"
        path.write_text(
            (FIXTURES / "e2.wfa").read_text().replace("beta: 1 1", "beta: 0 0")
        )
        out_file = tmp_path / "out.wfa"
        code, out, err = run(
            capsys, "approximate", str(path), "1", "--mode", "svd",
            "--no-timestamp", "-o", str(out_file),
        )
        assert code == 2
        assert out == ""
        assert "numerical rank 0" in err
        assert not out_file.exists()

    def test_nilpotent_svd_reports_block_sigma(self, capsys, tmp_path):
        out_file = tmp_path / "out.wfa"
        code, out, _ = run(
            capsys, "approximate", str(FIXTURES / "nilpotent.wfa"), "1",
            "--mode", "svd", "--length", "5", "--no-timestamp", "-o", str(out_file),
        )
        assert code == 0
        block = build_hankel(load_document(FIXTURES / "nilpotent.wfa").wfa, 5)
        sigma_1 = np.linalg.svd(block.entries, compute_uv=False)[1]
        reported = float(
            next(line for line in out.splitlines() if line.startswith("truncated-block"))
            .split()[-1]
        )
        assert reported == pytest.approx(sigma_1, rel=1e-12)
        assert load_document(out_file).wfa.num_states == 1

    def test_svd_decomposes_no_block_sized_matrix(self, capsys, tmp_path, monkeypatch):
        # d = 3, --length 5: the block is 364 x 364, its state factors 364 x n
        n, k = 6, 2
        path = tmp_path / "d3n6.wfa"
        wfa = random_stable_wfa(3, n, seed=3, radius_bound=0.9)
        save_document(WfaDocument(labels=("a", "b", "c"), wfa=wfa), path)
        shapes = []

        def recording(function):
            def wrapper(matrix, *args, **kwargs):
                shapes.append(np.shape(matrix))
                return function(matrix, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd))
        monkeypatch.setattr(np.linalg, "norm", recording(np.linalg.norm))
        code, out, _ = run(
            capsys, "approximate", str(path), str(k), "--mode", "svd", "--length", "5",
            "--no-timestamp", "-o", str(tmp_path / "out.wfa"),
        )
        assert code == 0
        assert "evaluation block: 364 x 364" in out
        assert shapes
        assert max(shape[0] for shape in shapes) <= n + k

    def test_svd_guard_counts_the_state_factors(self, capsys, tmp_path, monkeypatch):
        # d = 2, n = 4: at --length 12 the block would be 8191 x 8191
        # (6.7e7 entries), the factors are 8191 x (n + k)
        path = tmp_path / "d2n4.wfa"
        wfa = random_stable_wfa(2, 4, seed=5, radius_bound=0.9)
        save_document(WfaDocument(labels=("a", "b"), wfa=wfa), path)
        code, out, _ = run(
            capsys, "approximate", str(path), "2", "--mode", "svd", "--length", "12",
            "--no-timestamp", "-o", str(tmp_path / "out.wfa"),
        )
        assert code == 0
        assert "evaluation block: 8191 x 8191" in out
        assert load_document(tmp_path / "out.wfa").wfa.num_states == 2

        # at --length 20 the factors have 2097151 x 5 > 10^7 entries: the
        # refusal comes before any state is computed
        def unreachable(*args):
            raise AssertionError("state factors built past the guard")

        monkeypatch.setattr("wfamin.hankel._state_factors", unreachable)
        code, out, err = run(
            capsys, "approximate", str(path), "1", "--mode", "svd", "--length", "20",
            "--no-timestamp", "-o", str(tmp_path / "big.wfa"),
        )
        assert code == 2
        assert out == ""
        assert "2097151 x 5 state factor" in err
        assert not (tmp_path / "big.wfa").exists()

    def test_svd_makes_one_qr_call_per_factor_pair(self, capsys, tmp_path, qr_calls):
        # one stacked QR for the block's [P, S], one for the difference pair
        code, _, _ = run(
            capsys, "approximate", str(FIXTURES / "nilpotent.wfa"), "1", "--mode", "svd",
            "--no-timestamp", "-o", str(tmp_path / "out.wfa"),
        )
        assert code == 0
        assert len(qr_calls) == 2

    def test_svd_failure_prints_one_error_line(self, capsys, tmp_path):
        # the fixture's states overflow to inf and NaN before the SVD fails;
        # numpy's warnings stay off stderr (any warning fails this test)
        out_file = tmp_path / "out.wfa"
        code, out, err = run(
            capsys, "approximate", str(FIXTURES / "nan-discrepancy.wfa"), "0",
            "--mode", "svd", "--no-timestamp", "-o", str(out_file),
        )
        assert code == 1
        assert out == ""
        assert re.fullmatch(r"error: SVD failed: [^\n]*\n", err)
        assert not out_file.exists()

    def test_overflowing_gramian_prints_one_error_line(self, capsys, tmp_path):
        # a stable input whose Gramian overflows is a numerical failure
        # (exit 1), not bad input; numpy's warnings stay off stderr.  At
        # 1e150 the Gramian is finite but its norm overflows.
        fixture = FIXTURES / "overflowing-gramian.wfa"
        finite = tmp_path / "overflowing-norm.wfa"
        finite.write_text(fixture.read_text().replace("1e200", "1e150"))
        for path in (fixture, finite):
            out_file = tmp_path / "out.wfa"
            code, out, err = run(
                capsys, "approximate", str(path), "1", "--no-timestamp", "-o", str(out_file),
            )
            assert code == 1
            assert out == ""
            assert re.fullmatch(r"error: [^\n]*overflowed[^\n]*\n", err)
            assert not out_file.exists()

    def test_failed_aak_recovery_exits_1(self, capsys, tmp_path, monkeypatch):
        # a minimal, stable input whose approximant loses rank at working
        # precision is a numerical failure, not bad input
        def rank_deficient(*args):
            raise RankDeficiencyError("requested 1 states but the block has numerical rank 0")

        monkeypatch.setattr("wfamin.aak.spectral_recover", rank_deficient)
        out_file = tmp_path / "out.wfa"
        code, out, err = run(
            capsys, "approximate", str(FIXTURES / "e2.wfa"), "1", "--no-timestamp",
            "-o", str(out_file),
        )
        assert code == 1
        assert out == ""
        assert re.fullmatch(r"error: recovery of the 1-state approximant failed: [^\n]*\n", err)
        assert not out_file.exists()

    @pytest.mark.parametrize("name, message", [
        ("jordan-tie.wfa", "Schmidt denominator has 0 zeros inside the unit disk, expected 1"),
        ("even-series.wfa", "Schmidt denominator vanishes at z = 0"),
    ])
    def test_known_false_refusals_exit_1(self, capsys, tmp_path, name, message):
        """Two stable, minimal two-state inputs that k = 1 refuses, though an
        optimal 1-state approximant exists: for jordan-tie (sigma_0 = sigma_1)
        the zero automaton attains sigma_1, and even-series has v(0) = 0.
        These refusals are a known defect of the extraction (ROADMAP item 5):
        this test pins the exit-code contract until that is fixed, and
        changes with the fix."""
        out_file = tmp_path / "out.wfa"
        code, out, err = run(
            capsys, "approximate", str(FIXTURES / name), "1", "--no-timestamp",
            "-o", str(out_file),
        )
        assert code == 1
        assert out == ""
        assert re.fullmatch(rf"error: {re.escape(message)}[^\n]*\n", err)
        assert not out_file.exists()

    def test_vanishing_sigma_exits_1(self, capsys, tmp_path):
        # stable and minimal, but sigma_1 / sigma_0 is about 1.5e-17: k = 1
        # has no Schmidt pair, while k = 0 is certified
        out_file = tmp_path / "out.wfa"
        code, out, err = run(
            capsys, "approximate", str(FIXTURES / "vanishing-sigma.wfa"), "1",
            "--no-timestamp", "-o", str(out_file),
        )
        assert code == 1
        assert out == ""
        assert re.fullmatch(r"error: the Hankel singular value sigma_1 is 0 at working "
                            r"precision [^\n]*\n", err)
        assert not out_file.exists()
        code, _, err = run(
            capsys, "approximate", str(FIXTURES / "vanishing-sigma.wfa"), "0",
            "--no-timestamp", "-o", str(out_file),
        )
        assert code == 0
        assert err == ""
        assert out_file.exists()

    def test_defaults_write_beside_the_input_with_a_timestamp(self, capsys, tmp_path):
        path = tmp_path / "e2.wfa"
        path.write_text((FIXTURES / "e2.wfa").read_text())
        code, out, err = run(capsys, "approximate", str(path), "1")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0].startswith("# generated: ")
        assert lines[-1] == f"output: {tmp_path / 'e2-aak1.wfa'}"
        assert load_document(tmp_path / "e2-aak1.wfa").wfa.num_states == 1

    def test_aak_on_multi_letter_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "approximate", str(FIXTURES / "nilpotent.wfa"), "1",
            "--mode", "aak", "-o", str(tmp_path / "x.wfa"),
        )
        assert code == 2
        assert "one-letter" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_weight_exits_2(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.wfa"
        path.write_text(
            (FIXTURES / "e2.wfa").read_text().replace("0.5 0", f"{bad} 0")
        )
        code, _, err = run(capsys, "approximate", str(path), "1", "-o", str(tmp_path / "x.wfa"))
        assert code == 2
        assert "finite" in err
        assert not (tmp_path / "x.wfa").exists()

    def test_undecodable_file_name_leaves_the_default_output_intact(self, capsys, tmp_path):
        # the file name b'\xff.wfa' is not UTF-8: its stem decodes to '\udcff',
        # and the derived name '\udcff-aak1' is refused before the default
        # output b'\xff-aak1.wfa', already there, is opened
        stem = os.fsdecode(b"\xff")
        if stem != "\udcff":
            pytest.skip(f"the file system encoding decodes b'\\xff' to {stem!r}")
        path = tmp_path / f"{stem}.wfa"
        path.write_text("".join((FIXTURES / "e2.wfa").read_text().splitlines(True)[2:]))
        existing = tmp_path / f"{stem}-aak1.wfa"
        existing.write_bytes(b"kept")
        code, out, err = run(capsys, "approximate", str(path), "1", "--no-timestamp")
        assert (code, out) == (2, "")
        assert err == "error: name must be UTF-8 text, got '\\udcff-aak1'\n"
        assert existing.read_bytes() == b"kept"

    def test_a_report_that_cannot_be_printed_writes_no_document(self, capsys, tmp_path):
        # the document's name: line names the output, but the input path
        # b'\xff.wfa' is not UTF-8: the report cannot be printed to pytest's
        # strict UTF-8 stdout, so the command exits 2 before writing anything
        stem = os.fsdecode(b"\xff")
        if stem != "\udcff":
            pytest.skip(f"the file system encoding decodes b'\\xff' to {stem!r}")
        path = tmp_path / f"{stem}.wfa"
        path.write_text((FIXTURES / "e2.wfa").read_text())
        code, out, err = run(capsys, "approximate", str(path), "1", "--no-timestamp")
        assert (code, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't encode character '\\udcff' ")
        assert list(tmp_path.iterdir()) == [path]

    def test_k_out_of_range_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "approximate", str(FIXTURES / "e2.wfa"), "5",
            "-o", str(tmp_path / "x.wfa"),
        )
        assert code == 2


class TestVerify:
    def test_hankel_eq_on_fixture(self, capsys):
        code, out, _ = run(
            capsys, "verify", str(FIXTURES / "nilpotent.wfa"),
            "--suite", "hankel-eq", "--no-timestamp",
        )
        assert code == 0
        assert "max discrepancy over fixtures: 0.0" in out
        assert out.strip().endswith("result: pass")

    def test_nan_discrepancy_fails(self, capsys):
        # f(bb) overflows to NaN, so the discrepancy of H S_b = R_b^* H is NaN
        # (and the one for a is 0.0); the overflow raises no warning
        code, out, _ = run(
            capsys, "verify", str(FIXTURES / "nan-discrepancy.wfa"),
            "--suite", "hankel-eq", "--degree", "2", "--no-timestamp",
        )
        assert code == 1
        assert "  max discrepancy: nan" in out
        assert "max discrepancy over fixtures: nan" in out
        assert out.strip().endswith("result: fail")

    def test_nan_discrepancy_all_suites_fail_with_exit_1(self, capsys):
        # the nc-rational trials cannot be evaluated (the spectral radius of
        # the substituted pencil is ~2e198): their ratio is inf, which fails
        # the suite; it is not bad input, so every suite prints its result and
        # the command exits 1
        code, out, err = run(
            capsys, "verify", str(FIXTURES / "nan-discrepancy.wfa"),
            "--degree", "2", "--no-timestamp",
        )
        assert code == 1
        results = [line for line in out.splitlines() if line.startswith("result: ")]
        assert results == ["result: fail", "result: pass", "result: pass", "result: fail"]
        assert "max |closed - series| / (tail bound + rounding bound): inf\n" in out
        assert "error: " not in out
        assert err == ""

    @pytest.mark.parametrize("suite", ["nc-rational", "all"])
    def test_unparsable_file_exits_2(self, capsys, tmp_path, suite):
        path = tmp_path / "bad.wfa"
        path.write_text("alphabet: a\nstates: 1\n")
        code, _, err = run(capsys, "verify", str(path), "--suite", suite, "--no-timestamp")
        assert code == 2
        assert err.startswith("error: ")

    def test_free_group_reports_violation(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "free-group", "--no-timestamp")
        assert code == 0
        assert "4.0 > 2.0" in out

    def test_shifts_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "shifts", "--degree", "4", "--no-timestamp",
        )
        assert code == 0
        assert "result: pass" in out

    @pytest.mark.parametrize("index_map, line", [
        ("prepend_indices", "collisions, left shifts: "),
        ("append_indices", "collisions, bilateral shifts: "),
    ])
    def test_colliding_shift_exits_1(self, capsys, monkeypatch, index_map, line):
        # one interior word per letter sent where another is sent: d collisions
        correct = getattr(WordIndex, index_map)

        def colliding(basis, symbol):
            indices = correct(basis, symbol).copy()
            indices[2] = indices[1]
            return indices

        monkeypatch.setattr(WordIndex, index_map, colliding)
        code, out, err = run(capsys, "verify", "--suite", "shifts", "--degree", "4",
                             "--no-timestamp")
        assert code == 1
        assert [text.strip() for text in out.splitlines() if line in text] == [f"{line}2", f"{line}3"]
        assert out.endswith("result: fail\n")
        assert err == ""

    def test_shifts_degree_past_the_block_bound_exits_2(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "shifts", "--degree", "30", "--no-timestamp",
        )
        assert code == 2
        assert out == ""
        assert re.fullmatch(r"error: refusing to build [^\n]*\n", err)

    @pytest.mark.parametrize("argv, message", [
        (["--suite", "shifts", "--degree", "0"], "degree must be >= 1, got 0"),
        ([str(FIXTURES / "e2.wfa"), "--suite", "hankel-eq", "--degree", "1"],
         "degree must be >= 2, got 1"),
    ])
    def test_degree_below_the_suite_minimum_exits_2(self, capsys, argv, message):
        # the degree is passed through as given, for one-letter files too
        code, out, err = run(capsys, "verify", *argv, "--no-timestamp")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_nc_rational_infinite_bound_fails(self, capsys):
        # ||K||_2 is about 1e150 in every trial although the spectral radius
        # stays below 0.5: no trial can be compared, so the suite fails
        code, out, err = run(
            capsys, "verify", str(FIXTURES / "overflowing-gramian.wfa"),
            "--suite", "nc-rational", "--no-timestamp",
        )
        assert code == 1
        assert "max |closed - series| / (tail bound + rounding bound): inf\n" in out
        assert out.endswith("result: fail\n")
        assert err == ""

    def test_nc_rational_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "nc-rational", "--seed", "3", "--no-timestamp",
        )
        assert code == 0
        assert "head coefficient exactly: True" in out
        assert "trials: 100 (matrix sizes 1 and 2, degree-8 series)" in out

    def test_nc_rational_rounding_is_not_a_failure(self, capsys):
        # seed 28 has trials whose exact tail bound (~1e-21) lies below the
        # roundoff of the two computations (~1e-16)
        code, out, _ = run(
            capsys, "verify", "--suite", "nc-rational", "--seed", "28", "--no-timestamp",
        )
        assert code == 0
        assert out.strip().endswith("result: pass")

    def test_nc_rational_perturbed_closed_form_fails(self, capsys, monkeypatch):
        from wfamin import fock

        exact = fock.nc_rational_eval

        def perturbed(realization, arguments):
            value = exact(realization, arguments)
            if any(np.any(z) for z in arguments):  # keep the zero-substitution check exact
                value = value + 1e-9 * np.linalg.norm(value, 2, axis=(-2, -1), keepdims=True)
            return value

        monkeypatch.setattr(fock, "nc_rational_eval", perturbed)
        code, out, _ = run(
            capsys, "verify", "--suite", "nc-rational", "--seed", "28", "--no-timestamp",
        )
        assert code == 1
        assert "head coefficient exactly: True" in out
        assert out.strip().endswith("result: fail")

    def test_all_suites_deterministic_output(self, capsys):
        runs = [
            run(capsys, "verify", "--suite", "all", "--seed", "7", "--no-timestamp")
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        code, out, _ = runs[0]
        assert code == 0
        assert out.count("result: pass") == 4

    @pytest.mark.parametrize("suite", ["hankel-eq", "shifts", "free-group", "nc-rational", "all"])
    def test_negative_seed_exits_2(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--seed=-1", "--no-timestamp")
        assert code == 2
        assert out == ""
        assert "argument --seed: must be >= 0, got -1" in err

    @pytest.mark.parametrize("argv", [
        ["--suite", "all"],
        [str(FIXTURES / "nilpotent.wfa"), "--suite", "hankel-eq"],
    ])
    def test_negative_degree_exits_2(self, capsys, argv):
        # refused by argparse, before a file is read or a block is built
        code, out, err = run(capsys, "verify", *argv, "--degree=-1", "--no-timestamp")
        assert code == 2
        assert out == ""
        assert "argument --degree: must be >= 0, got -1" in err

    def test_non_integer_seed_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--seed", "x", "--no-timestamp")
        assert code == 2
        assert out == ""
        assert "argument --seed: invalid int value: 'x'" in err

    def test_timestamp_line_present_by_default(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "free-group")
        assert code == 0
        assert out.startswith("# generated: ")

    def test_file_is_parsed_once(self, capsys, monkeypatch):
        calls = []

        def counting(path):
            calls.append(path)
            return load_document(path)

        monkeypatch.setattr("wfamin.cli.load_document", counting)
        code, out, _ = run(
            capsys, "verify", str(FIXTURES / "nilpotent.wfa"), "--suite", "all", "--no-timestamp",
        )
        assert code == 0
        assert out.count(f"file {FIXTURES / 'nilpotent.wfa'}") == 2  # hankel-eq, nc-rational
        assert calls == [str(FIXTURES / "nilpotent.wfa")]

    @pytest.mark.parametrize("suite", ["shifts", "free-group", "all"])
    def test_bad_file_exits_2_before_any_suite_prints(self, capsys, tmp_path, suite):
        path = tmp_path / "bad.wfa"
        path.write_text("alphabet: a\nstates: 1\n")
        for argv in ([str(path)], [str(tmp_path / "missing.wfa")]):
            code, out, err = run(capsys, "verify", *argv, "--suite", suite)
            assert code == 2
            assert out == ""  # not even the timestamp line
            assert re.fullmatch(r"error: [^\n]*\n", err)

    @pytest.mark.parametrize("suite", ["hankel-eq", "all"])
    def test_refused_block_prints_nothing(self, capsys, suite):
        # hankel-eq runs first and refuses the block; the timestamp is not printed
        code, out, err = run(capsys, "verify", str(FIXTURES / "nilpotent.wfa"), "--suite", suite,
                             "--degree", "63")
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: refusing to build [^\n]*\n", err)


class TestOversizedWordSets:
    """A word set past the entry bound is refused from its closed-form count,
    before any index is built: one error line, exit 2, at once."""

    @pytest.mark.parametrize("argv", [
        ["approximate", str(FIXTURES / "nilpotent.wfa"), "1", "--mode", "svd", "--length", "63"],
        ["approximate", str(FIXTURES / "nilpotent.wfa"), "1", "--mode", "svd",
         "--length", "40000"],
        ["verify", "--suite", "hankel-eq", "--degree", "63"],
        ["verify", "--suite", "shifts", "--degree", "63"],
    ], ids=["svd-length-63", "svd-length-40000", "hankel-eq-degree-63", "shifts-degree-63"])
    def test_refused_with_one_error_line(self, capsys, tmp_path, argv):
        if argv[0] == "approximate":
            argv = [*argv, "-o", str(tmp_path / "out.wfa")]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--no-timestamp")
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert out == ""
        assert re.fullmatch(r"error: refusing to build [^\n]*\n", err)
        assert not (tmp_path / "out.wfa").exists()

    def test_svd_length_below_one_has_one_message(self, capsys, tmp_path):
        errors = set()
        for length in ("0", "-1"):
            code, out, err = run(
                capsys, "approximate", str(FIXTURES / "nilpotent.wfa"), "1", "--mode", "svd",
                "--length", length, "--no-timestamp", "-o", str(tmp_path / "out.wfa"),
            )
            assert code == 2 and out == ""
            errors.add(err)
        assert errors == {"error: spectral recovery needs prefixes of length >= 1\n"}


class TestReproducibility:
    def test_promise_names_its_conditions(self, capsys):
        for command in ("approximate", "verify"):
            code, out, _ = run(capsys, command, "--help")
            assert code == 0
            text = " ".join(out.split()).replace("byte- ", "byte-")  # argparse wraps at hyphens
            assert "byte-reproducible for the same input" in text
            assert "numpy/BLAS build and BLAS thread count" in text

    def test_no_timestamp_runs_are_byte_identical(self, tmp_path):
        # one BLAS thread: another thread count may change the last bits
        doc = tmp_path / "n120.wfa"
        save_document(WfaDocument(labels=("a",), wfa=random_stable_wfa(1, 120, 3, 0.9)), doc)
        out = tmp_path / "out.wfa"
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        runs = []
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-m", "wfamin.cli", "approximate", str(doc), "1",
                 "--no-timestamp", "-o", str(out)],
                env=env, capture_output=True, timeout=120, check=False,
            )
            assert result.returncode == 0, result.stderr
            runs.append((result.stdout, out.read_bytes()))
            out.unlink()
        assert runs[0] == runs[1]


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2

    def test_parser_is_built_once_and_keeps_no_state(self, capsys, tmp_path):
        argv = ("approximate", str(FIXTURES / "e2.wfa"), "1", "--no-timestamp",
                "-o", str(tmp_path / "out.wfa"))
        first = run(capsys, *argv)
        assert first[0] == 0
        assert build_parser() is build_parser()
        assert run(capsys, "approximate", str(FIXTURES / "e2.wfa"), "1", "--mode", "bogus")[0] == 2
        assert run(capsys, *argv) == first
