import csv
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from countstrat import BinningConfig, build_histogram, ingest_counts, optimal_partition, smooth
from countstrat import jsonfmt, stratify
from countstrat.cli import main
from countstrat.stratify import partition_to_json_dict

FIXTURES = Path(__file__).parent / "fixtures"


def read(path):
    return Path(path).read_text(encoding="utf-8")


class TestBinCommand:
    def test_no_tune_matches_library_bytes(self, tmp_path):
        out = tmp_path / "part.json"
        rc = main(["bin", str(FIXTURES / "counts50.csv"), "--no-tune", "--gamma", "0.5", "-o", str(out)])
        assert rc == 0
        records = ingest_counts(read(FIXTURES / "counts50.csv"))
        cfg = BinningConfig(gamma=0.5)
        part = optimal_partition(smooth(build_histogram(records), cfg.beta), cfg, cfg.likelihood_kind)
        assert part.alpha == part.max_count + 1  # smoothed support is every cell
        assert read(out) == jsonfmt.dumps(partition_to_json_dict(part, 1))

    def test_missing_file_fails(self, capsys):
        rc = main(["bin", "definitely_missing.csv"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_gamma_without_no_tune_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bin", str(FIXTURES / "counts50.csv"), "--gamma", "0.5"])
        assert exc.value.code == 2

    def test_no_tune_without_gamma_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bin", str(FIXTURES / "counts50.csv"), "--no-tune"])
        assert exc.value.code == 2

    def test_alpha_without_no_tune_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bin", str(FIXTURES / "counts50.csv"), "--alpha", "3"])
        assert exc.value.code == 2
        assert "--no-tune" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--gammas", "0.2,0.3"), ("--ratios", "0.5"), ("--cv-seeds", "99"), ("--cv-seeds", "10")]
    )
    def test_grid_flag_with_no_tune_is_usage_error(self, flag, value, capsys):
        # a fixed-gamma fit runs no grid search, so a grid flag would be
        # ignored, also when it repeats the default
        with pytest.raises(SystemExit) as exc:
            main(["bin", str(FIXTURES / "counts50.csv"), "--no-tune", "--gamma", "0.5", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--no-tune",), "--no-tune requires --gamma"),
            (("--no-tune", "--gamma", "0.5", "--cv-seeds", "3"), "--cv-seeds is only honored"),
            (("--alpha", "3"), "only honored together with --no-tune"),
        ],
    )
    def test_usage_error_comes_before_file_error(self, flags, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bin", "definitely_missing.csv", *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_no_tune_alpha_caps_bins(self, capsys):
        rc = main(["bin", str(FIXTURES / "counts50.csv"), "--no-tune", "--gamma", "0.9", "--alpha", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] == 2 and len(doc["bins"]) <= 2

    def test_huge_beta_fails(self, capsys):
        rc = main(["bin", str(FIXTURES / "counts50.csv"), "--no-tune", "--gamma", "0.5", "--beta", "1000000000"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "exceeds the limit" in err and err.count("\n") == 1

    def test_failed_replace_keeps_existing_output(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "part.json"
        argv = ["bin", str(FIXTURES / "counts50.csv"), "--no-tune", "--gamma", "0.5", "-o", str(out)]
        out.write_text("previous\n", encoding="utf-8")

        def broken_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", broken_replace)
        assert main(argv) == 1
        assert "error: replace failed" in capsys.readouterr().err
        assert read(out) == "previous\n"
        assert list(tmp_path.iterdir()) == [out]
        monkeypatch.undo()
        assert main(argv) == 0
        assert read(out).startswith("{") and list(tmp_path.iterdir()) == [out]

    def test_output_through_a_symlink_keeps_the_link(self, tmp_path):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("previous\n", encoding="utf-8")
        link.symlink_to(real)
        argv = ["bin", str(FIXTURES / "counts50.csv"), "--no-tune", "--gamma", "0.5"]
        assert main(argv + ["-o", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert read(real) == read(link) != "previous\n"
        assert sorted(tmp_path.iterdir()) == [link, real]
        # a dangling link gets its target created
        real.unlink()
        assert main(argv + ["-o", str(link)]) == 0
        assert link.is_symlink() and read(real).startswith("{")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_to_a_fifo_writes_into_it(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        want = tmp_path / "want.json"
        argv = ["bin", str(FIXTURES / "counts50.csv"), "--no-tune", "--gamma", "0.5"]
        assert main(argv + ["-o", str(want)]) == 0
        # the reader is open first, so the write cannot block; the output fits the pipe's buffer
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(argv + ["-o", str(fifo)]) == 0
            got = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert got.decode("utf-8") == read(want)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_output_to_own_descriptor_writes_through_it(self, tmp_path):
        # /proc/self/fd/1 names the open file, which is neither replaced nor truncated
        want, log = tmp_path / "want.json", tmp_path / "log"
        argv = ["bin", str(FIXTURES / "counts50.csv"), "--no-tune", "--gamma", "0.5"]
        assert main(argv + ["-o", str(want)]) == 0
        run = [sys.executable, "-m", "countstrat", *argv, "-o", "/proc/self/fd/1"]
        log.write_text("previous\n", encoding="utf-8")
        with open(log, "a", encoding="utf-8") as out:  # as `countstrat ... >> log`
            assert subprocess.run(run, stdout=out).returncode == 0
        assert read(log) == "previous\n" + read(want)
        with open(log, "w", encoding="utf-8") as out:  # as `{ echo a; countstrat ...; echo b; } > log`
            out.write("a\n")
            out.flush()
            assert subprocess.run(run, stdout=out).returncode == 0
            out.write("b\n")
        assert read(log) == "a\n" + read(want) + "b\n"
        assert sorted(tmp_path.iterdir()) == [log, want]

    def test_stdout_default(self, capsys):
        rc = main(["bin", str(FIXTURES / "counts50.csv"), "--no-tune", "--gamma", "0.3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma"] == 0.3
        assert doc["bins"][0]["lo"] == 0


class TestPlanCommand:
    def test_deterministic_repeat(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            rc = main([
                "plan", str(FIXTURES / "counts50.csv"), str(FIXTURES / "golden_partition.json"),
                "--scheme", "rs", "--batch-size", "4", "--seed", "9", "-o", str(out),
            ])
            assert rc == 0
        assert read(a) == read(b)

    def test_bad_scheme_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "x.csv", "y.json", "--scheme", "zz", "--batch-size", "4"])
        assert exc.value.code == 2

    def test_negative_seed_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "plan", str(FIXTURES / "counts50.csv"), str(FIXTURES / "golden_partition.json"),
                "--scheme", "rr", "--batch-size", "4", "--seed", "-1",
            ])
        assert exc.value.code == 2
        assert "argument --seed" in capsys.readouterr().err

    def test_non_json_partition_fails(self, tmp_path, capsys):
        part = tmp_path / "part.json"
        part.write_text('{"gamma": 0.5,\n  oops\n')
        rc = main([
            "plan", str(FIXTURES / "counts50.csv"), str(part), "--scheme", "rr", "--batch-size", "4",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2:") and err.count("\n") == 1

    def test_zero_batch_size_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([
                "plan", str(FIXTURES / "counts50.csv"), str(FIXTURES / "golden_partition.json"),
                "--scheme", "rr", "--batch-size", "0",
            ])
        assert exc.value.code == 2

    def test_zero_batch_size_comes_before_file_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "missing.csv", "missing.json", "--scheme", "rr", "--batch-size", "0"])
        assert exc.value.code == 2
        assert "--batch-size must be >= 1" in capsys.readouterr().err

    def test_covers_every_id(self, tmp_path):
        out = tmp_path / "plan.json"
        main([
            "plan", str(FIXTURES / "counts50.csv"), str(FIXTURES / "golden_partition.json"),
            "--scheme", "rr", "--batch-size", "8", "--seed", "0", "-o", str(out),
        ])
        doc = json.loads(read(out))
        ids = sorted(s for b in doc["batches"] for s in b)
        want = sorted(r.id for r in ingest_counts(read(FIXTURES / "counts50.csv")))
        assert ids == want


class TestEvalCommand:
    def test_two_record_single_bin(self, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("id,count_true,count_pred\na,4,5\nb,4,7\n")
        part = tmp_path / "part.json"
        part.write_text(json.dumps({
            "gamma": 0.5, "alpha": 1, "beta": 0, "likelihood": "multinomial",
            "map_score": 0.0, "bins": [{"lo": 0, "hi": 9}],
        }))
        out = tmp_path / "rep.json"
        rc = main(["eval", str(preds), str(part), "-o", str(out)])
        assert rc == 0
        doc = json.loads(read(out))
        assert doc["per_bin"][0]["mae"] == 2.0
        assert doc["per_bin"][0]["std"] == 1.0
        assert doc["global_mae"] == 2.0

    def test_huge_prediction_fails(self, tmp_path, capsys):
        # the errors' squares would overflow the std
        preds = tmp_path / "p.csv"
        preds.write_text("id,count_true,count_pred\na,1,1\nb,2,1e300\n")
        part = tmp_path / "part.json"
        part.write_text(json.dumps({
            "gamma": 0.5, "alpha": 1, "beta": 0, "likelihood": "multinomial",
            "map_score": 0.0, "bins": [{"lo": 0, "hi": 9}],
        }))
        rc = main(["eval", str(preds), str(part)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line 3: prediction") and captured.err.count("\n") == 1

    def test_perfect_predictions_all_zero(self, tmp_path, capsys):
        preds = tmp_path / "p.csv"
        preds.write_text("id,count_true,count_pred\na,4,4\nb,7,7\n")
        part = tmp_path / "part.json"
        part.write_text(json.dumps({
            "gamma": 0.5, "alpha": 1, "beta": 0, "likelihood": "multinomial",
            "map_score": 0.0, "bins": [{"lo": 0, "hi": 9}],
        }))
        rc = main(["eval", str(preds), str(part)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pooled_mae"] == 0.0 and doc["global_std"] == 0.0


class TestLossCommand:
    def make_partition_file(self, tmp_path):
        part = tmp_path / "part.json"
        part.write_text(json.dumps({
            "gamma": 0.5, "alpha": 2, "beta": 0, "likelihood": "multinomial",
            "map_score": 0.0, "bins": [{"lo": 0, "hi": 39}, {"lo": 40, "hi": 50}],
        }))
        return part

    def test_fig3_rows(self, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("id,count_true,count_pred\nin,45,48\nout,45,60\n")
        out = tmp_path / "loss.csv"
        rc = main(["loss", str(preds), str(self.make_partition_file(tmp_path)), "-o", str(out)])
        assert rc == 0
        lines = read(out).splitlines()
        assert lines[0] == "id,y,y_hat,bin_lo,bin_hi,bin_loss"
        row_in = lines[1].split(",")
        row_out = lines[2].split(",")
        assert round(float(row_in[-1]), 4) == 1.3863
        assert round(float(row_out[-1]), 4) == 15.0
        assert row_in[3:5] == ["40", "50"]

    def test_ids_quoted_like_csv_writer(self, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text('id,count_true,count_pred\n"a,b",45,48\n"q""x",45,60\n"two\nlines",3,2.5\nplain,1,1\n')
        out = tmp_path / "loss.csv"
        rc = main(["loss", str(preds), str(self.make_partition_file(tmp_path)), "-o", str(out)])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(read(out))))
        assert [len(row) for row in rows] == [6] * 5
        assert [row[0] for row in rows[1:]] == ["a,b", 'q"x', "two\nlines", "plain"]
        assert read(out).splitlines()[-1].startswith("plain,1,1,")

    def test_empty_predictions_header_only(self, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("id,count_true,count_pred\n")
        out = tmp_path / "loss.csv"
        rc = main(["loss", str(preds), str(self.make_partition_file(tmp_path)), "-o", str(out)])
        assert rc == 0
        assert read(out) == "id,y,y_hat,bin_lo,bin_hi,bin_loss\n"

    def test_lambda2_scales_bin_loss(self, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("id,count_true,count_pred\nin,45,48\nout,45,60\n")
        part = self.make_partition_file(tmp_path)
        rows = {}
        for lam2 in ("1", "2"):
            out = tmp_path / f"loss{lam2}.csv"
            assert main(["loss", str(preds), str(part), "--lambda2", lam2, "-o", str(out)]) == 0
            rows[lam2] = [line.split(",") for line in read(out).splitlines()[1:]]
        for one, two in zip(rows["1"], rows["2"]):
            assert two[:-1] == one[:-1]
            assert float(two[-1]) == 2 * float(one[-1])

    @pytest.mark.parametrize("flag, value", [("--lambda1", "-1"), ("--lambda2", "nan"), ("--lambda2", "inf")])
    def test_bad_lambda_fails(self, flag, value, tmp_path, capsys):
        preds = tmp_path / "p.csv"
        preds.write_text("id,count_true,count_pred\nin,45,48\n")
        rc = main(["loss", str(preds), str(self.make_partition_file(tmp_path)), flag, value])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    @pytest.mark.parametrize(
        "row, flag",
        [("out,45,35.5", "--lambda2"), ("in,41,50", "--lambda1")],  # errors 9.5 and 9, log1p(9) > 2
    )
    def test_loss_overflow_fails(self, row, flag, tmp_path, capsys):
        preds = tmp_path / "p.csv"
        preds.write_text(f"id,count_true,count_pred\n{row}\n")
        out = tmp_path / "loss.csv"
        rc = main(["loss", str(preds), str(self.make_partition_file(tmp_path)), flag, "1e308", "-o", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--lambda2" in err and err.count("\n") == 1
        assert not out.exists()

    def test_malformed_predictions_fail(self, tmp_path, capsys):
        preds = tmp_path / "p.csv"
        preds.write_text("id,count_true,count_pred\na,oops,1\n")
        rc = main(["loss", str(preds), str(self.make_partition_file(tmp_path))])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSynthCommand:
    def test_deterministic_and_structured(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            rc = main(["synth", "--seeds", "2", "--n-samples", "160", "--epochs", "3", "-o", str(out)])
            assert rc == 0
        assert read(a) == read(b)
        doc = json.loads(read(a))
        assert doc["seeds"] == [0, 1]
        assert set(doc["win_counts"]) == {"rr", "rs"}
        assert len(doc["pooled_std_by_seed"]["none"]) == 2

    def test_max_count_above_limit_fails(self, capsys):
        rc = main(["synth", "--max-count", "1000001", "--seeds", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1000000" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--learning-rate", "nan"),
            ("--learning-rate", "inf"),
            ("--learning-rate", "1e300"),
            ("--learning-rate", "5e99"),  # a prediction past MAX_PREDICTION, before divergence
            ("--noise-bias", "nan"),
            ("--noise-spread", "nan"),
            ("--noise-spread", "inf"),
            ("--log-mean", "nan"),
            ("--log-mean", "inf"),
            ("--log-sigma", "nan"),
            ("--log-sigma", "inf"),
        ],
    )
    def test_non_finite_or_diverging_float_fails(self, flag, value, capsys):
        rc = main(["synth", "--seeds", "1", "--n-samples", "60", "--epochs", "2", flag, value])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ("--noise-spread", "1e308"),
            ("--noise-bias", "1e308"),
            ("--max-count", "1", "--noise-bias", "1e306"),  # finite features, an overflowing mean magnitude
        ],
    )
    def test_overflowing_features_fail(self, flags, capsys):
        # rejected before any training, without a RuntimeWarning
        rc = main(["synth", "--seeds", "1", *flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: noise_spread") and captured.err.count("\n") == 1 and captured.out == ""
        assert "make the features or their mean magnitude overflow" in captured.err

    def test_batch_larger_than_the_train_set_is_one_batch(self, capsys):
        # 45 of the 60 samples train at holdout 0.25; the batch buffers are
        # sized by them, not by --batch-size
        outs = []
        for batch_size in ("1000000000", "45"):
            rc = main(["synth", "--seeds", "1", "--n-samples", "60", "--epochs", "1", "--batch-size", batch_size])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_overflowing_log_mean_caps_counts(self, tmp_path):
        # exp(800) overflows to inf; every count lands on --max-count
        out = tmp_path / "s.json"
        rc = main(["synth", "--seeds", "1", "--n-samples", "60", "--epochs", "2", "--log-mean", "800", "-o", str(out)])
        assert rc == 0
        assert json.loads(read(out))["seeds"] == [0]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--seeds", "100000000"), "need 1 to 1000 seeds, got 100000000"),
            (("--seeds", "1", "--n-samples", "200000000"), "n_samples must be <= 1000000, got 200000000"),
        ],
    )
    def test_size_flags_bounded(self, flags, message, capsys):
        assert main(["synth", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_negative_seed_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--seed", "-1", "--seeds", "1"])
        assert exc.value.code == 2
        assert "argument --seed" in capsys.readouterr().err


class TestTuneCommand:
    def test_report_rank_sums(self, tmp_path):
        out = tmp_path / "tune.json"
        rc = main([
            "tune", str(FIXTURES / "counts50.csv"),
            "--gammas", "0.2,0.5,0.8", "--ratios", "0.2,0.25", "--cv-seeds", "2",
            "-o", str(out),
        ])
        assert rc == 0
        doc = json.loads(read(out))
        assert len(doc["table"]) == 6
        assert sum(doc["index_sums"].values()) == 2 * 3  # |ratios| * (0+1+2)
        assert str(doc["gamma_best"]) in {k for k in doc["index_sums"]} or doc["gamma_best"] in (0.2, 0.5, 0.8)

    @pytest.mark.parametrize("flag, value", [("--gammas", "abc"), ("--ratios", "0.1,x")])
    def test_bad_float_list_is_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tune", str(FIXTURES / "counts50.csv"), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--gammas", "0.5,0.5,0.2"), ("--ratios", "0.2,0.2")])
    def test_duplicate_grid_value_fails(self, flag, value, tmp_path, capsys):
        out = tmp_path / "tune.json"
        rc = main(["tune", str(FIXTURES / "counts50.csv"), flag, value, "--cv-seeds", "2", "-o", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{flag[2:]} must not repeat a value" in err
        assert not out.exists()

    def test_alpha_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["tune", str(FIXTURES / "counts50.csv"), "--alpha", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "counts, flags, message",
        [
            ([0, 1, 2, 3], ("--cv-seeds", "20000"), "n_seeds must be <= 1000, got 20000"),
            # 3 ratios x 11 seeds x 1,000,001 cells: one seed over the default grid at MAX_COUNT
            ([0, 1_000_000], ("--cv-seeds", "11"), "got 3 x 11 x 1000001"),
            # one seed over the default grid at MAX_COUNT, with fewer gammas: they count as nine
            ([0, 1_000_000], ("--gammas", "0.5", "--cv-seeds", "11"), "got 3 x 11 x 1000001 x 1"),
            # the default grid at MAX_COUNT with one gamma more
            ([0, 1_000_000], ("--gammas", ",".join(f"{k / 11:.6f}" for k in range(1, 11))), "got 3 x 10 x 1000001 x 10"),
            # inside the search bound, but 2,000 gammas of one histogram would need a 2,000 x 100,001 table
            (
                [*range(10), *[100_000] * 10],
                ("--ratios", "0.1", "--cv-seeds", "1", "--gammas", ",".join(f"{k / 2001:.6f}" for k in range(1, 2001))),
                "gammas x cells of a histogram must be <= 90000000, got 2000 x 100001",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["tune", "bin"])
    def test_search_size_bounded(self, command, counts, flags, message, tmp_path, capsys):
        csv_path = tmp_path / "counts.csv"
        csv_path.write_text("id,count\n" + "".join(f"r{i},{c}\n" for i, c in enumerate(counts)))
        assert main([command, str(csv_path), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestBadInputFiles:
    """Undecodable or oversized input ends in one error line, not a traceback."""

    def one_error_line(self, argv, capsys, where):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert where in err

    @pytest.mark.parametrize("command", ["bin", "eval", "plan"])
    def test_non_utf8_file_fails(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"id,count\na,1\nb,\xff\xfe2\n")
        counts, part = str(FIXTURES / "counts50.csv"), str(FIXTURES / "golden_partition.json")
        argv = {
            "bin": ["bin", str(bad), "--no-tune", "--gamma", "0.5"],
            "eval": ["eval", str(bad), part],
            "plan": ["plan", counts, str(bad), "--scheme", "rr", "--batch-size", "4"],
        }[command]
        self.one_error_line(argv, capsys, "line 3: not UTF-8")

    def test_oversized_counts_field_fails(self, tmp_path, capsys):
        counts = tmp_path / "c.csv"
        counts.write_text("id,count\na,1\n" + "b" * 200_000 + ",2\n", encoding="utf-8")
        self.one_error_line(["bin", str(counts), "--no-tune", "--gamma", "0.5"], capsys, "line 3: field larger")

    def test_capped_work_over_limit_fails(self, tmp_path, capsys, monkeypatch):
        # smoothing makes 60,001 cells: alpha * M(M + 1) / 2 is about 1.1e14
        # candidates, and the DP tables alone would need 13 GiB
        counts = tmp_path / "c.csv"
        counts.write_text("id,count\na,0\nb,60000\n", encoding="utf-8")

        def no_tables(*args):
            raise AssertionError("cell tables built for a fit over the work limit")

        monkeypatch.setattr(stratify, "_CellData", no_tables)
        tracemalloc.start()
        try:
            argv = ["bin", str(counts), "--no-tune", "--gamma", "0.5", "--alpha", "59999"]
            self.one_error_line(argv, capsys, "alpha 59999 over 60001 cells")
            assert tracemalloc.get_traced_memory()[1] < 64 * 2**20
        finally:
            tracemalloc.stop()

    def test_oversized_predictions_field_fails(self, tmp_path, capsys):
        preds = tmp_path / "p.csv"
        preds.write_text("id,count_true,count_pred\n" + "a" * 200_000 + ",1,1\n", encoding="utf-8")
        argv = ["eval", str(preds), str(FIXTURES / "golden_partition.json")]
        self.one_error_line(argv, capsys, "line 2: field larger")


    @pytest.mark.parametrize("command", ["eval", "loss"])
    def test_huge_count_true_fails(self, command, tmp_path, capsys):
        preds = tmp_path / "p.csv"
        preds.write_text("id,count_true,count_pred\na,1,1\nb,99999999999999999999,1\n")
        argv = [command, str(preds), str(FIXTURES / "golden_partition.json")]
        self.one_error_line(argv, capsys, "line 3: ground-truth count 99999999999999999999 exceeds the limit")

    # a reader that truncated these read "lo": 2.4 as the bin [2, 6]
    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda d: d["bins"][1].update(lo=2.4), "'lo' must be an integer, got 2.4", id="lo-float"),
            pytest.param(lambda d: d["bins"][1].update(hi="6"), "'hi' must be an integer, got '6'", id="hi-string"),
            pytest.param(lambda d: d.update(alpha=2.7), "'alpha' must be an integer, got 2.7", id="alpha-float"),
            pytest.param(lambda d: d.update(beta=1.5), "'beta' must be an integer, got 1.5", id="beta-float"),
            pytest.param(lambda d: d.update(beta=True), "'beta' must be an integer, got True", id="beta-bool"),
            pytest.param(lambda d: d["bins"][-1].update(hi=10**30), f"bin edge {10**30} exceeds the limit 1000000", id="hi-huge"),
            pytest.param(lambda d: d.update(gamma="0.5"), "'gamma' must be a number, got '0.5'", id="gamma-string"),
            pytest.param(lambda d: d.update(gamma=1.5), "gamma must lie in (0, 1), got 1.5", id="gamma-above-one"),
            pytest.param(lambda d: d.update(map_score=True), "'map_score' must be a number, got True", id="map_score-bool"),
            pytest.param(lambda d: d.update(map_score=float("nan")), "'map_score' must be finite, got nan", id="map_score-nan"),
            pytest.param(lambda d: d.update(map_score=10**400), "int too large to convert to float", id="map_score-huge-int"),
            pytest.param(lambda d: d.update(alpha=0), "alpha must be >= 1, got 0", id="alpha-zero"),
        ],
    )
    @pytest.mark.parametrize("command", ["plan", "loss", "eval"])
    def test_bad_partition_field_fails(self, command, edit, message, tmp_path, capsys):
        doc = json.loads(read(FIXTURES / "golden_partition.json"))
        edit(doc)
        part = tmp_path / "part.json"
        part.write_text(json.dumps(doc))
        argv = {
            "plan": ["plan", str(FIXTURES / "counts50.csv"), str(part), "--scheme", "rr", "--batch-size", "4"],
            "loss": ["loss", str(FIXTURES / "preds50.csv"), str(part)],
            "eval": ["eval", str(FIXTURES / "preds50.csv"), str(part)],
        }[command]
        self.one_error_line(argv, capsys, f"bad partition document: {message}")

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("[" * 100_000 + "]" * 100_000, "JSON nested too deeply", id="nested-deep"),
            pytest.param('{"alpha": ' + "9" * 5000 + "}", "integer literal over 4300 digits", id="int-over-digit-limit"),
        ],
    )
    @pytest.mark.parametrize("command", ["plan", "loss", "eval"])
    def test_unloadable_partition_document_fails(self, command, text, message, tmp_path, capsys):
        part = tmp_path / "part.json"
        part.write_text(text)
        argv = {
            "plan": ["plan", str(FIXTURES / "counts50.csv"), str(part), "--scheme", "rr", "--batch-size", "4"],
            "loss": ["loss", str(FIXTURES / "preds50.csv"), str(part)],
            "eval": ["eval", str(FIXTURES / "preds50.csv"), str(part)],
        }[command]
        self.one_error_line(argv, capsys, f"error: {message}")


class TestGoldenOutputs:
    def test_loss_reproduces_golden(self, tmp_path):
        out = tmp_path / "loss.csv"
        rc = main([
            "loss", str(FIXTURES / "preds50.csv"), str(FIXTURES / "golden_partition.json"),
            "-o", str(out),
        ])
        assert rc == 0
        assert out.read_bytes() == (FIXTURES / "golden_loss.csv").read_bytes()

    def test_tune_reproduces_golden(self, tmp_path):
        out = tmp_path / "tuning.json"
        rc = main([
            "tune", str(FIXTURES / "counts50.csv"),
            "--gammas", "0.2,0.5,0.8", "--ratios", "0.2,0.25", "--cv-seeds", "4",
            "-o", str(out),
        ])
        assert rc == 0
        assert out.read_bytes() == (FIXTURES / "golden_tuning.json").read_bytes()

    def test_synth_reproduces_golden(self, tmp_path):
        out = tmp_path / "synth.json"
        rc = main([
            "synth", "--seeds", "2", "--n-samples", "240", "--epochs", "6",
            "-o", str(out),
        ])
        assert rc == 0
        assert out.read_bytes() == (FIXTURES / "golden_synth.json").read_bytes()

    # sha256 of synth output written by the record-list trainer (ids, dicts,
    # split_records, fit_partition, evaluate) at two non-default settings
    @pytest.mark.parametrize(
        "flags, digest",
        [
            (("--likelihood", "poisson", "--alpha", "2"), "022805dcab49c225a8a42a5ea57c0e6aafa2aeff6a1143cbd03735bdd4d99bad"),
            (
                ("--noise-bias", "0.3", "--lambda2", "0", "--beta", "0", "--max-count", "50"),
                "68ca4ada9a2fb19adf01ddbd813a19e0d56478d556da6d70321d87610ad240f1",
            ),
        ],
    )
    def test_synth_pinned_digests(self, flags, digest, tmp_path):
        out = tmp_path / "synth.json"
        rc = main(["synth", "--seeds", "2", "--n-samples", "240", "--epochs", "6", *flags, "-o", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "part.json"
        proc = subprocess.run(
            [sys.executable, "-m", "countstrat", "bin", str(FIXTURES / "counts50.csv"),
             "--no-tune", "--gamma", "0.4", "-o", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert proc.stdout == ""  # data goes to the file, not stdout
