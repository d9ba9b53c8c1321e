"""CLI surface: subcommands, exit codes, printed summaries."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bandstack import cli
from bandstack import io as bio
from bandstack.cli import main
from bandstack.features import band_energies
from bandstack.model import MultiChannelRecord


@pytest.fixture
def record_csv(tmp_path):
    rng = np.random.default_rng(10)
    rec = MultiChannelRecord(rng.standard_normal((3, 40)), 32.0,
                             channel_names=("c1", "c2", "c3"))
    path = tmp_path / "in.csv"
    bio.write_multichannel(rec, path)
    return path, rec


def test_encode_decode_wav_roundtrip(tmp_path, record_csv, capsys):
    csv_path, rec = record_csv
    wav = tmp_path / "out.wav"
    assert main(["encode", str(csv_path), str(wav), "--target-rate", "192"]) == 0
    out = capsys.readouterr().out
    assert "f_band=32" in out
    assert "n_out=240" in out
    assert "lossless feasible (F_s >= p*f_s): yes" in out
    back_csv = tmp_path / "back.csv"
    assert main(["decode", str(wav), str(back_csv), "--compare", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "channel 3 rmse" in out
    back = bio.read_multichannel(back_csv)
    assert np.abs(back.channels - rec.channels).max() < 1e-6  # f32 path
    assert back.channel_names == rec.channel_names


def test_lone_surrogate_names_survive_decode_to_csv(tmp_path):
    # UTF-8 cannot encode the name, so the CSV carries it in the JSON comment
    names = ("\ud800", "b")
    rec = MultiChannelRecord(np.arange(16.0).reshape(2, 8), 32.0, channel_names=names)
    raw = tmp_path / "in.f64"
    bio.write_multichannel(rec, raw)
    wav = tmp_path / "w.wav"
    assert main(["encode", str(raw), str(wav), "--target-rate", "128"]) == 0
    out = tmp_path / "out.csv"
    assert main(["decode", str(wav), str(out)]) == 0
    back = bio.read_multichannel(out)
    assert back.channel_names == names
    assert np.abs(back.channels - rec.channels).max() < 1e-5  # f32 path


def test_encode_raw_is_exact(tmp_path, record_csv):
    csv_path, rec = record_csv
    raw = tmp_path / "out.f64"
    assert main(["encode", str(csv_path), str(raw), "--target-rate", "192"]) == 0
    back_csv = tmp_path / "back.csv"
    assert main(["decode", str(raw), str(back_csv)]) == 0
    back = bio.read_multichannel(back_csv)
    assert np.abs(back.channels - rec.channels).max() < 1e-9


def test_strict_infeasible_exit_code(tmp_path, record_csv, capsys):
    csv_path, _ = record_csv
    rc = main(["encode", str(csv_path), str(tmp_path / "x.wav"),
               "--target-rate", "64", "--mode", "strict-lossless"])
    assert rc == 3
    assert "F_s >= p*f_s = 96" in capsys.readouterr().err


def test_verify_json_and_threshold(tmp_path, record_csv, capsys):
    csv_path, _ = record_csv
    assert main(["verify", str(csv_path), "--target-rate", "192", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_abs_error"] < 1e-9
    assert report["collision_count"] >= 2
    assert report["rate_feasible"] is True
    # a destructive configuration exceeds the default threshold
    rc = main(["verify", str(csv_path), "--target-rate", "96"])
    assert rc == 2
    assert "exceeds threshold" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["real-hermitian", "paper-complex"])
def test_encode_overflowing_record_is_validation_error(tmp_path, capsys, mode):
    path = tmp_path / "huge.csv"
    bio.write_multichannel(MultiChannelRecord(np.full((2, 64), 1.5e308), 10.0), path)
    assert main(["encode", str(path), str(tmp_path / "out.f64"), "--target-rate", "40",
                 "--mode", mode]) == 2
    assert "spectrum overflows float64" in capsys.readouterr().err


def test_info_prints_header_fields(tmp_path, record_csv, capsys):
    csv_path, _ = record_csv
    wav = tmp_path / "out.wav"
    main(["encode", str(csv_path), str(wav), "--target-rate", "192"])
    capsys.readouterr()
    assert main(["info", str(wav) + ".sidecar"]) == 0
    out = capsys.readouterr().out
    assert "p: 3" in out
    assert "mode: real-hermitian" in out
    assert "source_rate_hz: 32.0" in out


def test_info_missing_file_is_io_error(tmp_path, capsys):
    assert main(["info", str(tmp_path / "nope.wav")]) == 1
    assert "no sidecar" in capsys.readouterr().err


# (p, n, f_s, F_s) that pass the sidecar's type table but that decode refuses:
# n_out > 2**48, 2p(n-1) * n_out past int64, grid steps below the normal range
@pytest.mark.parametrize("p, n, f_s, F_s, message", [
    (2, 8, 8.0, 2.0**49, "outside 2..281474976710656"),
    (64, 1001, 1.0, 1e14 / 1001, "overflows int64"),
    (2, 2, 2e-308, 4e-308, "normal float range"),
])
@pytest.mark.parametrize("command", ["info", "decode", "spectrogram"])
def test_a_sidecar_decode_would_refuse_is_refused_when_read(tmp_path, capsys, command,
                                                            p, n, f_s, F_s, message):
    data = tmp_path / "w.f64"
    data.write_bytes(b"")
    (tmp_path / "w.f64.sidecar").write_text(json.dumps({
        "format_version": 1, "kind": "wideband", "p": p, "n_samples": n,
        "source_rate_hz": f_s, "target_rate_hz": F_s, "mode": "real-hermitian",
        "stacking_order": list(range(1, p + 1)), "scale": 1.0, "collision_count": 0,
        "data_format": "raw-f64"}))
    args = [command, str(data)] + ([] if command == "info" else [str(tmp_path / "out.csv")])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "inconsistent wideband sidecar" in err and message in err


@pytest.mark.parametrize("threshold", ["nan", "-1", "-inf"])
def test_verify_refuses_a_bad_threshold(record_csv, capsys, threshold):
    csv_path, _ = record_csv
    assert main(["verify", str(csv_path), "--target-rate", "192",
                 f"--threshold={threshold}"]) == 2
    assert "bad --threshold" in capsys.readouterr().err


def test_decode_missing_sidecar_is_validation_error(tmp_path, record_csv, capsys):
    csv_path, _ = record_csv
    wav = tmp_path / "out.wav"
    main(["encode", str(csv_path), str(wav), "--target-rate", "192"])
    (tmp_path / "out.wav.sidecar").unlink()
    capsys.readouterr()
    assert main(["decode", str(wav), str(tmp_path / "y.csv")]) == 2
    assert "missing sidecar" in capsys.readouterr().err


def test_decode_truncated_sidecar_is_validation_error(tmp_path, record_csv, capsys):
    csv_path, _ = record_csv
    wav = tmp_path / "out.wav"
    main(["encode", str(csv_path), str(wav), "--target-rate", "192"])
    sc = tmp_path / "out.wav.sidecar"
    sc.write_bytes(sc.read_bytes()[: len(sc.read_bytes()) // 2])
    capsys.readouterr()
    assert main(["decode", str(wav), str(tmp_path / "y.csv")]) == 2
    assert "JSON" in capsys.readouterr().err


def test_decode_non_utf8_sidecar_is_validation_error(tmp_path, record_csv, capsys):
    csv_path, _ = record_csv
    wav = tmp_path / "out.wav"
    main(["encode", str(csv_path), str(wav), "--target-rate", "192"])
    (tmp_path / "out.wav.sidecar").write_bytes(b"\xff\xfe")
    capsys.readouterr()
    assert main(["decode", str(wav), str(tmp_path / "y.csv")]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_spectrogram_command_prints_shape(tmp_path, record_csv, capsys):
    csv_path, _ = record_csv
    wav = tmp_path / "out.wav"
    main(["encode", str(csv_path), str(wav), "--target-rate", "192"])
    capsys.readouterr()
    mat = tmp_path / "spec.csv"
    assert main(["spectrogram", str(wav), str(mat),
                 "--window", "16", "--overlap", "8"]) == 0
    assert capsys.readouterr().out.strip().endswith("9 x 29")
    assert main(["spectrogram", str(wav), str(mat),
                 "--window", "16", "--overlap", "8", "--paper-shape"]) == 0
    assert capsys.readouterr().out.strip().endswith("9 x 28")
    m, meta = bio.read_matrix(mat)
    assert m.shape == (9, 28)
    assert meta["window_fn"] == "hann-periodic"


def test_spectrogram_rejects_complex_input(tmp_path, record_csv, capsys):
    csv_path, _ = record_csv
    raw = tmp_path / "out.f64"
    main(["encode", str(csv_path), str(raw), "--target-rate", "192",
          "--mode", "paper-complex"])
    capsys.readouterr()
    assert main(["spectrogram", str(raw), str(tmp_path / "m.csv")]) == 2


def test_spectrogram_window_too_big(tmp_path, record_csv, capsys):
    csv_path, _ = record_csv
    wav = tmp_path / "out.wav"
    main(["encode", str(csv_path), str(wav), "--target-rate", "192"])
    capsys.readouterr()
    assert main(["spectrogram", str(wav), str(tmp_path / "m.csv"),
                 "--window", "4096"]) == 2


def test_synth_band_then_energies(tmp_path, capsys):
    out = tmp_path / "alpha.csv"
    assert main(["synth", str(out), "--band", "alpha", "-p", "2",
                 "-n", "500", "--rate", "250", "--seed", "5"]) == 0
    rec = bio.read_multichannel(out)
    for energies in band_energies(rec):
        assert energies["alpha"] / sum(energies.values()) > 0.99


def test_synth_tones(tmp_path):
    out = tmp_path / "tones.csv"
    assert main(["synth", str(out), "--tones", "1:10:1:0,2:25", "-p", "2",
                 "-n", "250", "--rate", "250"]) == 0
    rec = bio.read_multichannel(out)
    assert rec.p == 2
    assert np.abs(rec.channels).max() > 0.5


def test_synth_requires_exactly_one_source(tmp_path, capsys):
    assert main(["synth", str(tmp_path / "x.csv")]) == 2
    assert main(["synth", str(tmp_path / "x.csv"), "--band", "alpha",
                 "--tones", "1:5"]) == 2


def test_synth_empty_band_is_an_unknown_band(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["synth", str(out), "--band", ""]) == 2
    assert "unknown band ''" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tones", ["x:10", "1:ten"])
def test_synth_malformed_tones_is_validation_error(tmp_path, capsys, tones):
    assert main(["synth", str(tmp_path / "x.csv"), "--tones", tones]) == 2
    assert "bad tone" in capsys.readouterr().err


@pytest.mark.parametrize("tones, words", [
    ("1", "bad tone '1': expected CH:FREQ[:AMP[:PHASE]]"),
    ("1:5:1:0:0", "bad tone '1:5:1:0:0': expected CH:FREQ[:AMP[:PHASE]]"),
    ("3:5", "tone channel 3 out of range 1..2"),
    ("0:5", "tone channel 0 out of range 1..2"),
])
def test_synth_refuses_a_tone_spec_it_cannot_place(tmp_path, capsys, tones, words):
    out = tmp_path / "x.csv"
    assert main(["synth", str(out), "-p", "2", "--tones", tones]) == 2
    assert words in capsys.readouterr().err
    assert not out.exists()


def test_main_builds_its_parser_once(tmp_path):
    cli._parser.cache_clear()
    for _ in range(2):
        assert main(["synth", str(tmp_path / "x.csv"), "--tones", "1:5"]) == 0
    assert cli._parser.cache_info().misses == 1


def test_zero_record_encodes_to_zero_wav(tmp_path):
    csv_path = tmp_path / "zero.csv"
    bio.write_multichannel(MultiChannelRecord(np.zeros((2, 32)), 16.0), csv_path)
    wav = tmp_path / "zero.wav"
    assert main(["encode", str(csv_path), str(wav), "--target-rate", "64"]) == 0
    _, samples = bio.read_wav_f32(wav)
    assert np.all(samples == 0)
    back_csv = tmp_path / "back.csv"
    assert main(["decode", str(wav), str(back_csv)]) == 0
    assert np.all(bio.read_multichannel(back_csv).channels == 0)


@pytest.mark.parametrize("order, stored", [
    pytest.param("reverse", [3, 2, 1], id="reverse"),
    pytest.param("3,1,2", [3, 1, 2], id="3,1,2"),
])
def test_reverse_order_flag_roundtrip(tmp_path, record_csv, order, stored):
    csv_path, rec = record_csv
    raw = tmp_path / "r.f64"
    assert main(["encode", str(csv_path), str(raw), "--target-rate", "192",
                 "--order", order]) == 0
    assert json.loads((tmp_path / "r.f64.sidecar").read_text())["stacking_order"] == stored
    back_csv = tmp_path / "back.csv"
    assert main(["decode", str(raw), str(back_csv)]) == 0
    back = bio.read_multichannel(back_csv)
    assert np.abs(back.channels - rec.channels).max() < 1e-9


@pytest.mark.parametrize("order, message", [
    ("1,x", "bad --order '1,x'"),
    ("1,1,2", "stacking_order must be a permutation"),
])
def test_bad_order_flag_exits_2(tmp_path, record_csv, capsys, order, message):
    csv_path, _ = record_csv
    raw = tmp_path / "r.f64"
    assert main(["encode", str(csv_path), str(raw), "--target-rate", "192",
                 "--order", order]) == 2
    assert message in capsys.readouterr().err
    assert not raw.exists()


@pytest.mark.parametrize("order", ["1,1,2", "0,1,2", "1,2,3,4"])
def test_bad_order_flag_names_the_typed_numbers(tmp_path, record_csv, capsys, order):
    # the message quotes what was typed and the 1-based range, never the
    # library's 0-based translation of it
    csv_path, _ = record_csv
    assert main(["encode", str(csv_path), str(tmp_path / "r.f64"), "--target-rate", "192",
                 "--order", order]) == 2
    err = capsys.readouterr().err
    assert f"bad --order '{order}': stacking_order must be a permutation of 1..3 (1-based)" in err
    assert "0-based" not in err and "got (" not in err


def test_python_dash_m_runs_the_cli(tmp_path, record_csv):
    csv_path, _ = record_csv
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "bandstack", "encode", str(csv_path), str(tmp_path / "r.f64"),
         "--target-rate", "192", "--order", "0,1,2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert "bad --order '0,1,2'" in done.stderr


def test_encode_summary_at_reference_configuration(tmp_path, capsys):
    rng = np.random.default_rng(30)
    rec = MultiChannelRecord(rng.standard_normal((30, 10000)), 1000.0)
    raw_in = tmp_path / "eeg.f64"
    bio.write_multichannel(rec, raw_in, format="raw-f64")
    out = tmp_path / "wide.wav"
    assert main(["encode", str(raw_in), str(out), "--target-rate", "16000"]) == 0
    text = capsys.readouterr().out
    assert "f_band=266.667" in text
    assert "n_out=160000" in text
    assert "lossless feasible (F_s >= p*f_s): no" in text


@pytest.mark.parametrize("flags", [
    ["--tones", "1:10", "--rate", "0"],
    ["--band", "alpha", "--rate", "0"],
    ["--tones", "1:-inf"],
])
def test_synth_refuses_bad_rates_and_tones_without_warnings(tmp_path, capsys, flags):
    out = tmp_path / "s.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["synth", str(out), *flags]) == 2
    assert not caught
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # n_out = 5e18 fits intp but is past what the index arithmetic allows
    ["encode", "{csv}", "{out}.wav", "--target-rate", "4e18"],
    # 2p(n-1) * n_out = 128000 * 1.001e14 overflows int64
    ["encode", "{wide_csv}", "{out}.wav", "--rate", "1", "--target-rate", "1e11"],
])
def test_index_arithmetic_out_of_range_is_a_validation_error(tmp_path, record_csv,
                                                              capsys, argv):
    csv_path, _ = record_csv
    wide_csv = tmp_path / "wide.csv"
    bio.write_multichannel(MultiChannelRecord(np.zeros((64, 1001)), 1.0), wide_csv)
    argv = [a.format(csv=csv_path, wide_csv=wide_csv, out=tmp_path / "out") for a in argv]
    assert main(argv) == 2
    assert "error: " in capsys.readouterr().err
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("argv", [
    ["synth", "{out}.csv", "--band", "alpha", "-p", "0"],
    ["encode", "{csv}", "{out}.wav", "--rate", "0", "--target-rate", "192"],
    ["encode", "{csv}", "{out}.wav", "--target-rate", "1e300"],
    # the WAV byte-rate field holds rate * 4 in 32 bits
    ["encode", "{csv}", "{out}.wav", "--rate", "1e9", "--target-rate", "2e9"],
    ["synth", "{out}.csv", "--band", "alpha", "--seed", "-1"],
])
def test_malformed_flags_end_in_an_exit_code(tmp_path, record_csv, capsys, argv):
    csv_path, _ = record_csv
    out = tmp_path / "out"
    argv = [a.format(csv=csv_path, out=out) for a in argv]
    assert main(argv) in (1, 2, 3)
    assert "error: " in capsys.readouterr().err
    assert not list(tmp_path.glob("out.*"))


def _forge_strict_sidecar(tmp_path, capsys, **changes):
    rec = MultiChannelRecord(np.random.default_rng(2).standard_normal((2, 16)), 8.0)
    raw = tmp_path / "in.f64"
    bio.write_multichannel(rec, raw)
    wav = tmp_path / "w.wav"
    assert main(["encode", str(raw), str(wav), "--target-rate", "16"]) == 0
    assert "exact inversion: no" in capsys.readouterr().out
    sidecar = tmp_path / "w.wav.sidecar"
    payload = json.loads(sidecar.read_text())
    payload.update(mode="strict-lossless", **changes)
    sidecar.write_text(json.dumps(payload))
    return wav


def test_decode_refuses_lossy_sidecar_labelled_strict(tmp_path, capsys):
    # F_s = p*f_s meets the rate floor, but this plan is lossy
    wav = _forge_strict_sidecar(tmp_path, capsys)
    assert main(["decode", str(wav), str(tmp_path / "back.csv")]) == 3
    assert "strict-lossless" in capsys.readouterr().err


def test_strict_refusal_comes_before_the_collision_count_check(tmp_path, capsys):
    # the plan refuses the strict label before decode compares collision_count
    wav = _forge_strict_sidecar(tmp_path, capsys, collision_count=999)
    assert main(["decode", str(wav), str(tmp_path / "back.csv")]) == 3
    assert "strict-lossless stacking impossible" in capsys.readouterr().err


def test_missing_input_is_io_error(tmp_path, capsys):
    rc = main(["encode", str(tmp_path / "ghost.csv"), str(tmp_path / "o.wav"),
               "--target-rate", "100"])
    assert rc == 1


def test_out_of_memory_is_an_io_error(tmp_path, record_csv, capsys, monkeypatch):
    def encode(record, config):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "encode", encode)
    csv_path, _ = record_csv
    rc = main(["encode", str(csv_path), str(tmp_path / "o.wav"), "--target-rate", "192"])
    assert rc == 1
    assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB for an array\n"
    assert not (tmp_path / "o.wav").exists()


def test_encode_non_utf8_csv_is_validation_error(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"# rate_hz=32\nc1,c2\n1,2\n3,\xff\n")
    rc = main(["encode", str(path), str(tmp_path / "o.wav"), "--target-rate", "128"])
    assert rc == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_decode_compare_non_utf8_csv_is_validation_error(tmp_path, record_csv, capsys):
    csv_path, _ = record_csv
    wav = tmp_path / "out.wav"
    assert main(["encode", str(csv_path), str(wav), "--target-rate", "192"]) == 0
    bad = tmp_path / "orig.csv"
    bad.write_bytes(csv_path.read_bytes().replace(b"c2", b"c\xe92"))
    capsys.readouterr()
    rc = main(["decode", str(wav), str(tmp_path / "back.csv"), "--compare", str(bad)])
    assert rc == 2
    assert "not UTF-8" in capsys.readouterr().err
