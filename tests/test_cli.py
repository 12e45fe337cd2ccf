import contextlib
import io
import json
import math
import re

import numpy as np
import pytest

from nanotube_bands import ArmchairModel, ZigzagModel, cli, flat_field_amplitudes
from nanotube_bands.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--output", str(out)])
    return code, out.read_text(encoding="utf-8")


@pytest.fixture
def vfiles(tmp_path):
    v0 = tmp_path / "v0.json"
    v0.write_text("[0.0]")
    pm = tmp_path / "pm.json"
    pm.write_text("[1.0, -1.0]")
    return {"v0": str(v0), "pm": str(pm)}


def merged_union(doc):
    bands = [(b["lo"], b["hi"]) for b in doc["union"]["bands"]]
    out = []
    for lo, hi in sorted(bands):
        if out and lo <= out[-1][1] + 1e-9:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def test_bands_free_zigzag(tmp_path, vfiles):
    code, text = run(
        tmp_path, "bands", "--lattice", "zigzag", "--N", "3", "--b", "0",
        "--potential", vfiles["v0"], "--t", "0",
    )
    assert code == 0
    doc = json.loads(text)
    assert merged_union(doc) == [(-3.0, 3.0)]


def test_bands_armchair_hull_and_gap(tmp_path, vfiles):
    code, text = run(
        tmp_path, "bands", "--lattice", "armchair", "--N", "4", "--B", "0",
        "--potential", vfiles["pm"],
    )
    assert code == 0
    doc = json.loads(text)
    union = merged_union(doc)
    rt10 = math.sqrt(10)
    assert union[0][0] == pytest.approx(-rt10, abs=1e-6)
    assert union[-1][1] == pytest.approx(rt10, abs=1e-6)
    assert union[0][1] == pytest.approx(-1.0, abs=1e-6)
    assert union[-1][0] == pytest.approx(1.0, abs=1e-6)


def test_bands_csv_json_agree(tmp_path, vfiles):
    code, jtext = run(
        tmp_path, "bands", "--lattice", "zigzag", "--N", "4", "--b", "0.1",
        "--potential", vfiles["pm"],
    )
    assert code == 0
    doc = json.loads(jtext)
    code, ctext = run(
        tmp_path, "bands", "--lattice", "zigzag", "--N", "4", "--b", "0.1",
        "--potential", vfiles["pm"], "--format", "csv",
    )
    assert code == 0
    band_rows = []
    flat_rows = []
    for line in ctext.strip().splitlines():
        parts = line.split(",")
        if parts[0] == "flat":
            flat_rows.append((int(parts[1]), float(parts[2])))
        else:
            band_rows.append((int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3])))
    for ch in doc["channels"]:
        for idx, (lo, hi) in enumerate(ch["bands"], start=1):
            assert (ch["k"], idx, lo, hi) in band_rows
        for e in ch["flat_bands"]:
            assert (ch["k"], e) in flat_rows
    assert len(band_rows) == sum(len(ch["bands"]) for ch in doc["channels"])


def test_sweep_hits_flat_field(tmp_path, vfiles):
    (amp,) = flat_field_amplitudes(4, 1, [0])
    code, text = run(
        tmp_path, "sweep", "--lattice", "zigzag", "--N", "4",
        "--B-start", str(amp - 0.1), "--B-stop", str(amp + 0.1), "--B-steps", "3",
        "--potential", vfiles["pm"],
    )
    assert code == 0
    rows = [line.split(",") for line in text.strip().splitlines()]
    # row order: B ascending, then channel, then band index
    keys = [(float(r[0]), int(r[2]), int(r[3])) for r in rows]
    assert keys == sorted(keys)
    mid = [r for r in rows if abs(float(r[0]) - amp) < 1e-9 and r[2] == "1"]
    assert mid and all(abs(float(r[4]) - float(r[5])) < 1e-8 for r in mid)


def test_single_point_sweep_matches_bands(tmp_path, vfiles):
    code, sweep_text = run(
        tmp_path, "sweep", "--lattice", "zigzag", "--N", "3",
        "--B-start", "0.4", "--B-steps", "1", "--potential", vfiles["pm"],
    )
    assert code == 0
    code, jtext = run(
        tmp_path, "bands", "--lattice", "zigzag", "--N", "3", "--B", "0.4",
        "--potential", vfiles["pm"],
    )
    doc = json.loads(jtext)
    sweep_bands = {}
    for line in sweep_text.strip().splitlines():
        B, b, k, idx, lo, hi = line.split(",")
        sweep_bands.setdefault(int(k), []).append((float(lo), float(hi)))
    for ch in doc["channels"]:
        expect = [tuple(band) for band in ch["bands"]] + [(e, e) for e in ch["flat_bands"]]
        np.testing.assert_allclose(sweep_bands[ch["k"]], sorted(expect), atol=1e-12)


def test_verify_command(tmp_path, vfiles):
    code, text = run(
        tmp_path, "verify", "--lattice", "zigzag", "--N", "4", "--b", "0.3",
        "--potential", vfiles["pm"], "--L", "6",
    )
    assert code == 0
    doc = json.loads(text)
    assert set(doc) == {"dim", "max_abs_dev", "pass"}
    assert doc["pass"] is True and doc["max_abs_dev"] < 1e-8
    assert doc["dim"] == 48


def test_geometry_command(tmp_path):
    code, text = run(tmp_path, "geometry", "--N", "6", "--B", "0.5", "--cells", "3")
    assert code == 0
    doc = json.loads(text)
    assert isinstance(doc, list) and set(doc[0]) == {"n", "j", "k", "x", "y", "z"}
    sites = {(s["n"], s["j"], s["k"]): np.array([s["x"], s["y"], s["z"]]) for s in doc}
    base = sites[(1, 0, 2)]
    for other in ((1, 1, 2), (2, 1, 2)):
        assert np.linalg.norm(base - sites[other]) == pytest.approx(1.0, abs=1e-10)


def test_asym_command(tmp_path, vfiles):
    pot = tmp_path / "shrink.json"
    pot.write_text("[3.0, 0.0, -3.0, 1.0]")
    code, text = run(
        tmp_path, "asym", "--regime", "ck_to_zero", "--potential", str(pot),
        "--s", "1",
    )
    assert code == 0
    reports = json.loads(text)
    assert reports and all(r["pass"] for r in reports)
    assert set(reports[0]) == {"regime", "params", "predicted", "measured", "ratio", "tolerance", "pass"}


@pytest.mark.parametrize(
    "argv", ["bands --lattice zigzag --N 3 --b 0 --t 20", "sweep --lattice zigzag --N 3 --B-start 0 --t 20"]
)
def test_half_ck_model_exits_0(tmp_path, capsys, argv):
    # channels 1 and 2 have |c_k| = 1/2, so all their bonds are 1 and half
    # their gaps close; the discriminant validator of earlier versions lost
    # enough digits over the 18-step product at t = 20 to exit 3 here
    pot = tmp_path / "v9.json"
    pot.write_text("[-0.75, 0.93, 0.32, -0.14, 0.05, 0.75, -0.31, 0.18, 0.37]")
    code, text = run(tmp_path, *argv.split(), "--potential", str(pot))
    assert code == 0 and capsys.readouterr().err == ""
    assert text.count("\n") > 10


def test_bad_potential_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code = main([
        "bands", "--lattice", "zigzag", "--N", "3", "--b", "0", "--potential", str(bad),
    ])
    assert code == 2


def test_conflicting_field_flags_exit_2(tmp_path, vfiles):
    code = main([
        "bands", "--lattice", "zigzag", "--N", "3", "--b", "0", "--B", "1",
        "--potential", vfiles["v0"],
    ])
    assert code == 2


def test_byte_identical_reruns(tmp_path, vfiles):
    args = (
        "bands", "--lattice", "zigzag", "--N", "5", "--b", "0.2",
        "--potential", vfiles["pm"],
    )
    _, first = run(tmp_path, *args)
    _, second = run(tmp_path, *args)
    assert first == second


def test_precision_env_override(tmp_path, vfiles, monkeypatch):
    monkeypatch.setenv("NANOTUBE_BANDS_PRECISION", "4")
    _, text = run(
        tmp_path, "bands", "--lattice", "zigzag", "--N", "3", "--b", "0.1",
        "--potential", vfiles["pm"],
    )
    doc = json.loads(text)
    lo = doc["channels"][0]["bands"][0][0]
    assert lo == float(f"{lo:.4g}")


def test_asym_large_t_zigzag_command(tmp_path):
    pot = tmp_path / "v4.json"
    pot.write_text("[0.9, -0.3, 0.4, -1.1]")
    code, text = run(
        tmp_path, "asym", "--regime", "large_t_zigzag", "--N", "5", "--b", "0.2",
        "--potential", str(pot), "--t", "40",
    )
    assert code == 0
    reports = json.loads(text)
    checks = {r["params"].get("check") for r in reports if "check" in r["params"]}
    assert checks == {"windows_contain_bands", "same_rank_bands_disjoint"}
    assert all(r["pass"] for r in reports)


def test_asym_low_energy_window_command(tmp_path):
    pot = tmp_path / "v4.json"
    pot.write_text("[0.0476, -0.3159, 0.5842, -0.3159]")
    code, text = run(
        tmp_path, "asym", "--regime", "low_energy_window", "--N", "4", "--b", "0.02",
        "--potential", str(pot), "--t", "0.05",
    )
    assert code == 0
    reports = json.loads(text)
    assert reports and all(r["pass"] for r in reports)


def test_asym_small_t_sampled_potential(tmp_path):
    code, text = run(
        tmp_path, "asym", "--regime", "small_t", "--N", "5", "--b", "0.17",
        "--sample-period", "4", "--seed", "15", "--k", "1",
    )
    assert code == 0
    assert all(r["pass"] for r in json.loads(text))


def test_sweep_missing_stop_exits_2(tmp_path, vfiles):
    code = main([
        "sweep", "--lattice", "zigzag", "--N", "3", "--B-start", "0",
        "--B-steps", "3", "--potential", vfiles["pm"],
    ])
    assert code == 2


def test_asym_large_t_armchair_command(tmp_path, armchair_cluster_12):
    pot = tmp_path / "v12.json"
    pot.write_text(json.dumps(armchair_cluster_12))
    code, text = run(
        tmp_path, "asym", "--regime", "large_t_armchair", "--N", "4", "--B", "0",
        "--potential", str(pot), "--t", "40", "--k", "4",
    )
    assert code == 0
    assert all(r["pass"] for r in json.loads(text))


@pytest.mark.parametrize("k", [0, -3, 5])
def test_asym_large_t_armchair_refuses_channel_out_of_range(tmp_path, capsys, armchair_cluster_12, k):
    # k = 0 and -3 used to index channels 4 and 1 from the end; k = N + 1 raised IndexError
    pot = tmp_path / "v12.json"
    pot.write_text(json.dumps(armchair_cluster_12))
    code = main([
        "asym", "--regime", "large_t_armchair", "--N", "4", "--B", "0",
        "--potential", str(pot), "--t", "40", "--k", str(k),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: channel index k must lie in 1..4, got {k}\n"


@pytest.mark.parametrize("k, code", [(0, 2), (9, 2), (-3, 2), (100, 2), (1, 0), (4, 0)])
def test_asym_small_t_refuses_channel_out_of_range(tmp_path, capsys, k, code):
    # k = 0 used to report c_k = cos(b) = 0.995, which no channel k = 1..4 has
    argv = "asym --regime small_t --N 4 --b 0.1 --sample-period 4 --seed 15".split() + ["--k", str(k)]
    assert main(argv + ["--output", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    if code:
        assert not (tmp_path / "out").exists() and captured.out == ""
        assert captured.err == f"error: --k must lie in 1..N with N >= 2, got k = {k}, N = 4\n"
    else:
        reports = json.loads((tmp_path / "out").read_text(encoding="utf-8"))
        assert {r["params"]["c_k"] for r in reports} == {float(f"{math.cos(0.1 + math.pi * k / 4):.12g}")}


@pytest.mark.parametrize(
    "argv",
    [
        "--regime ck_to_zero --ck-values 0.02",
        "--regime small_t --k 1 --b 0.1",
        "--regime large_t_zigzag --b 0.1 --t 40",
        "--regime large_t_armchair --B 0 --t 40 --k 1",
        "--regime small_v_armchair",
        "--regime low_energy_window --b 0.1",
    ],
)
def test_asym_refuses_N_above_the_bound_before_building_a_model(tmp_path, monkeypatch, vfiles, argv):
    # small_v_armchair at N = 2048 used to build 2048 block channels and exit 0
    import tracemalloc

    def built(model):
        raise AssertionError(f"built a {type(model).__name__}")

    monkeypatch.setattr(ZigzagModel, "__post_init__", built)
    monkeypatch.setattr(ArmchairModel, "__post_init__", built)
    argv = ["asym", "--N", str(cli.MAX_N + 1), *argv.split(), "--potential", vfiles["pm"], "--output", str(tmp_path / "o")]
    cli._parser()  # built once per process, before the measurement
    with contextlib.redirect_stderr(io.StringIO()) as err:
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 2 and err.getvalue() == f"error: --N must be at most {cli.MAX_N}, got {cli.MAX_N + 1}\n"
    assert peak < 64 * 1024
    assert not (tmp_path / "o").exists()


def test_asym_small_v_armchair_command(tmp_path):
    j = np.arange(11)
    q = 0.01 * sum(
        c * np.cos(2 * np.pi * n * j / 11) for n, c in enumerate((1, 0.6, 0.3, 0.5, 0.4), 1)
    )
    pot = tmp_path / "paired.json"
    pot.write_text("[" + ", ".join(repr(float(x)) for x in np.repeat(q, 2)) + "]")
    code, text = run(
        tmp_path, "asym", "--regime", "small_v_armchair", "--N", "5", "--potential", str(pot),
    )
    assert code == 0
    assert all(r["pass"] for r in json.loads(text))



@pytest.mark.parametrize(
    "potential, argv",
    [
        ("[NaN, 1.0]", "bands --lattice zigzag --N 4 --b 0.1"),
        ("[NaN, 1.0]", "bands --lattice armchair --N 4 --B 0.3"),
        ("[Infinity, 1.0]", "bands --lattice zigzag --N 4 --b 0.1"),
        ("[Infinity, 1.0]", "bands --lattice armchair --N 4 --B 0.3"),
        ("[0.5, -0.5]", "bands --lattice zigzag --N 4 --b nan"),
        ("[0.5, -0.5]", "bands --lattice armchair --N 4 --b1 nan --b2 0 --b3 0"),
        ("[0.5, -0.5]", "bands --lattice zigzag --N 4 --B nan"),
        ("[0.5, -0.5]", "bands --lattice armchair --N 4 --B nan"),
        ("[0.5, -0.5]", "bands --lattice zigzag --N 4 --b 0.1 --t inf"),
        ("[0.5, -0.5]", "bands --lattice armchair --N 4 --B 0.3 --t inf"),
        ("[0.5, -0.5]", "sweep --lattice zigzag --N 4 --B-start 0 --B-stop nan --B-steps 3"),
        ("[0.5, -0.5]", "sweep --lattice armchair --N 4 --B-start 0 --B-stop nan --B-steps 3"),
        ("[0.5, -0.5]", "verify --lattice zigzag --N 4 --b 0.1 --tol nan"),
        ("[0.5, -0.5]", "verify --lattice zigzag --N 4 --b 0.1 --tol inf"),
        ("[0.5, -0.5]", "verify --lattice armchair --N 4 --B 0.3 --tol 0"),
        ("[0.5, -0.5]", "verify --lattice zigzag --N 4 --b 0.1 --tol -1e-8"),
        ("[0.5, -0.5]", "asym --regime small_t --ck nan"),
        ("[0.5, -0.5]", "asym --regime small_t --ck -inf"),
        ("[0.5, -0.5]", "asym --regime ck_to_zero --ck-values 0.01,inf"),
        ("[0.5, -0.5]", "asym --regime ck_to_zero --ck-values nan,0.01"),
        ("[0.5, -0.5]", "asym --regime ck_to_zero --ck-values 0.01,x"),
    ],
)
def test_non_finite_input_exits_2(tmp_path, capsys, potential, argv):
    pot = tmp_path / "v.json"
    pot.write_text(potential)
    code = main(argv.split() + ["--potential", str(pot)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "does not read" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # a bond of 2e-13, and one of exactly FLAT_CHANNEL_TOL: both are flat channels
        "asym --regime ck_to_zero --ck-values 1e-13",
        "asym --regime ck_to_zero --ck-values 5e-13",
        # zigzag commands never reach spectrum_block_stack; the CLI refuses the grid itself
        "bands --lattice zigzag --N 4 --b 0.1 --grid 100",
        "sweep --lattice zigzag --N 4 --B-start 0 --grid 100",
        # asym tolerances must be finite and positive, as verify --tol
        "asym --regime ck_to_zero --tolerance 0",
        "asym --regime ck_to_zero --tolerance nan",
        "asym --regime ck_to_zero --tolerance -1",
        "asym --regime ck_to_zero --tolerance inf",
        "asym --regime small_v_armchair --N 4 --tolerance 0",
        # p = 1 off the unit-hopping chain: small_t has no admissible gap, so no report
        "asym --regime small_t --ck 0.3",
    ],
)
def test_refused_input_exits_2_with_error_line(tmp_path, capsys, argv):
    pot = tmp_path / "v.json"
    pot.write_text("[0.5, -0.5]")
    code = main(argv.split() + ["--potential", str(pot)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "does not read" not in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        "bands --lattice zigzag --N 4 --b -2.220446049250313e-16",
        "bands --lattice zigzag --N 4 --B -1e-3 --t -1.5e0",
        "bands --lattice armchair --N 4 --b1 -1e-3 --b2 -2E-3 --b3 -3e-3 --grid 16",
        "bands --lattice armchair --N 4 --B -5e-1 --t -2e0 --grid 16",
        "sweep --lattice zigzag --N 4 --B-start -1e-1 --B-stop -2e-1 --B-steps 2",
        "sweep --lattice armchair --N 4 --B-start -1e-1 --B-steps 1 --grid 16",
        "asym --regime small_t --ck -1e-1",
        "asym --regime ck_to_zero --ck-values -2e-2,-1e-2",
        "verify --lattice zigzag --N 4 --b -1e-1 --t -2e0",
        "verify --lattice armchair --N 4 --B 0.3 --tol -1e-8",
    ],
)
def test_negative_exponent_option_values(tmp_path, capsys, argv):
    # argparse takes "-1e-3" for an option name; it must reach the option as
    # its value, exactly as the "--opt=-1e-3" spelling does.  The potential is
    # zero-mean with p = 3, so that small_t has gaps to report at c_k = -0.1
    pot = tmp_path / "v.json"
    pot.write_text("[0.5, -0.2, -0.3]")
    tail = ["--potential", str(pot)]
    code = main(argv.split() + tail)
    spaced = capsys.readouterr()
    joined = re.sub(r"(--[\w-]+) (-[\d.])", r"\1=\2", argv).split()
    assert main(joined + tail) == code
    assert capsys.readouterr().out == spaced.out
    assert "expected one argument" not in spaced.err
    assert code == (2 if "--tol" in argv else 0)


@pytest.mark.parametrize("potential, ck, code", [("[0.3]", "0.3", 2), ("[0.4, -0.4]", "0.5", 0)])
def test_asym_small_t_at_half_period_one(tmp_path, capsys, potential, ck, code):
    # only the unit-hopping chain (2|c_k| = 1) has a first-order central gap at p = 1
    pot = tmp_path / "v.json"
    pot.write_text(potential)
    assert main(["asym", "--regime", "small_t", "--ck", ck, "--potential", str(pot)]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == "" and captured.err.startswith("error: ")
    else:
        assert len(json.loads(captured.out)) == 1


def test_asym_tolerance_reaches_small_v_armchair(tmp_path):
    # --tolerance sets the edge-window reports; the set-equality report keeps its own
    pot = tmp_path / "paired.json"
    pot.write_text(
        "[0.016, 0.016, -0.001764, -0.001764, -0.006236, -0.006236,"
        " -0.006236, -0.006236, -0.001764, -0.001764]"
    )
    argv = ("asym", "--regime", "small_v_armchair", "--N", "2", "--potential", str(pot))
    code, text = run(tmp_path, *argv)
    assert code == 0
    assert [r["tolerance"] for r in json.loads(text)] == [0.1, 0.1, 1e-6]
    code, text = run(tmp_path, *argv, "--tolerance", "1e-30")
    assert code == 1
    reports = json.loads(text)
    assert [r["tolerance"] for r in reports] == [1e-30, 1e-30, 1e-6]
    assert [r["pass"] for r in reports] == [False, False, True]


@pytest.mark.parametrize(
    "argv",
    [
        "sweep --lattice zigzag --b 5 --B-start 0",
        "sweep --lattice zigzag --B 1 --B-start 0",
        "sweep --lattice armchair --b1 0.1 --b2 0.1 --b3 0.1 --B-start 0",
        "asym --regime large_t_zigzag --lattice zigzag --b 0.2",
    ],
)
def test_unread_options_exit_2(tmp_path, argv):
    pot = tmp_path / "v.json"
    pot.write_text("[0.9, -0.3, 0.4, -1.1]")
    with pytest.raises(SystemExit) as exc:
        main(argv.split() + ["--N", "4", "--potential", str(pot)])
    assert exc.value.code == 2


PRECISION_COMMANDS = [
    "bands --lattice zigzag --N 3 --b 0.1",
    "bands --lattice zigzag --N 3 --b 0.1 --format csv",
    "bands --lattice armchair --N 3 --B 0.2 --grid 16",
    "sweep --lattice zigzag --N 3 --B-start 0 --B-stop 1 --B-steps 2",
    "verify --lattice zigzag --N 3 --b 0.1",
    "asym --regime large_t_zigzag --N 3 --b 0.1 --t 40",
]


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
@pytest.mark.parametrize("argv", PRECISION_COMMANDS + ["geometry --N 3 --B 0.5"])
def test_invalid_precision_exits_2(tmp_path, capsys, monkeypatch, vfiles, argv, value):
    # these used to print 12 digits ("abc") or 1 digit ("0", "-3") and exit 0
    monkeypatch.setenv("NANOTUBE_BANDS_PRECISION", value)
    tail = [] if argv.startswith("geometry") else ["--potential", vfiles["pm"]]
    out = tmp_path / "out.txt"
    code = main(argv.split() + tail + ["--output", str(out)])
    assert code == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: NANOTUBE_BANDS_PRECISION must be an integer >= 1, got {value!r}\n"


@pytest.mark.parametrize("argv", PRECISION_COMMANDS)
def test_large_precision_is_accepted(tmp_path, monkeypatch, vfiles, argv):
    monkeypatch.setenv("NANOTUBE_BANDS_PRECISION", "60")
    code, text = run(tmp_path, *argv.split(), "--potential", vfiles["pm"])
    assert code == 0 and text.endswith("\n")


@pytest.mark.parametrize(
    "potential, argv, unread",
    [
        ("[0.2, 0.2]", "asym --regime small_v_armchair --N 4 --t 5 --B 3 --k 2 --s 3 --seed 4",
         "--t, --B, --k, --s, --seed"),
        ("[0.4, -0.4]", "asym --regime small_t --ck 0.65 --t 30 --seed 9 --sample-period 3",
         "--t, --sample-period, --seed"),
        ("[0.4, -0.4]", "asym --regime small_t --ck 0.5 --k 1 --b 0.2", "--b, --k"),
        ("[0.4, -0.4]", "asym --regime small_t --N 4 --k 1 --b 0.2 --B 0.1", "--B"),
        ("[3.0, 0.0, -3.0, 1.0]", "asym --regime ck_to_zero --b 0.3 --k 2", "--b, --k"),
        # --N is read only where a channel index or a tube is built
        ("[3.0, 0.0, -3.0, 1.0]", "asym --regime ck_to_zero --N 4 --s 1", "--N"),
        ("[0.4, -0.4]", "asym --regime small_t --N 4 --ck 0.5", "--N"),
        ("[0.4, -0.4]", "asym --regime small_t --N 4 --ck 0.5 --k 1", "--N, --k"),
        ("[0.9, -0.3, 0.4, -1.1]", "asym --regime large_t_zigzag --N 5 --b 0.2 --t 40 --k 2", "--k"),
        ("[0.9, -0.3, 0.4, -1.1]", "asym --regime large_t_armchair --N 4 --B 0 --t 40 --k 4 --ck 0.3", "--ck"),
        ("[0.9, -0.3, 0.4, -1.1]", "asym --regime low_energy_window --N 4 --b 0.02 --t 0.05 --s 2", "--s"),
    ],
)
def test_asym_refuses_options_the_regime_does_not_read(tmp_path, capsys, potential, argv, unread):
    # each used to print the same bytes as the run without the unread options
    pot = tmp_path / "v.json"
    pot.write_text(potential)
    assert main(argv.split() + ["--potential", str(pot)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    regime = argv.split()[2]
    assert captured.err == f"error: regime {regime} does not read {unread}\n"


@pytest.mark.parametrize("lattice", ["zigzag", "armchair"])
@pytest.mark.parametrize("N, L", [(17, 61), (512, 64), (1_000_000_000, 1)])
def test_verify_refuses_a_torus_above_the_dimension_cap_before_allocating(capsys, vfiles, lattice, N, L):
    # verify used to allocate the dense (2NL)^2 complex matrix of any N: about
    # 69 GB at N = 512, L = 64
    import tracemalloc

    field = ["--b", "0.3"] if lattice == "zigzag" else ["--B", "0.3"]
    argv = ["verify", "--lattice", lattice, "--N", str(N), "--L", str(L), *field, "--potential", vfiles["v0"]]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1_000_000
    assert capsys.readouterr().err == f"error: torus dimension 2NL = {2 * N * L} exceeds the dense-matrix cap 2048\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field", ["--lattice zigzag --b 0.3", "--lattice armchair --B 0.3"])
def test_verify_passes_near_the_float_maximum(tmp_path, field):
    # the torus's class sums of N on-site entries of t * v overflowed: exit 3
    # with "off-block norm nan" after three RuntimeWarnings
    pot = tmp_path / "v.json"
    pot.write_text("[0.3, -0.2, 0.5, -0.7]")
    code, text = run(tmp_path, "verify", *field.split(), "--N", "4", "--t", "1e308", "--potential", str(pot))
    assert code == 0 and json.loads(text)["pass"] is True


def test_verify_dimension_cap_admits_2048_levels():
    from nanotube_bands import PotentialProfile, ZigzagModel
    from nanotube_bands.oracle import MAX_DIM, _check_truncation

    assert MAX_DIM == 2048
    _check_truncation(ZigzagModel(16, 0.3, PotentialProfile([0.0]), t=1.0), 64)  # 2NL = 2048: no refusal


@pytest.mark.parametrize("lattice", ["zigzag", "armchair"])
@pytest.mark.parametrize(
    "argv, refused",
    [
        ("bands --N 2 --B 0.3 --grid 65536", None),
        ("bands --N 2 --B 0.3 --grid 131072", "--grid"),
        ("bands --N 2 --B 0.3 --grid 1099511627776", "--grid"),
        ("sweep --N 2 --B-start 0 --B-stop 1 --B-steps 1024 --grid 16", None),
        ("sweep --N 2 --B-start 0 --B-stop 1 --B-steps 1025 --grid 16", "--B-steps"),
        ("sweep --N 2 --B-start 0 --B-stop 1 --B-steps 10000000000000 --grid 16", "--B-steps"),
        ("sweep --N 2 --B-start 0 --B-steps 1 --grid 131072", "--grid"),
        ("bands --N 512 --B 0.3 --grid 16", None),
        ("bands --N 513 --B 0.3 --grid 16", "--N"),
        ("sweep --N 512 --B-start 0 --B-stop 1 --B-steps 2 --grid 16", None),
        ("sweep --N 513 --B-start 0 --B-steps 1 --grid 16", "--N"),
        ("sweep --N 65 --B-start 0 --B-stop 1 --B-steps 1024 --grid 16", "--N times --B-steps"),
        ("sweep --N 512 --B-start 0 --B-stop 1 --B-steps 129 --grid 16", "--N times --B-steps"),
    ],
)
def test_resolution_bounds(tmp_path, capsys, vfiles, lattice, argv, refused):
    # --grid at most 2**16, --B-steps at most 1024, --N at most 512 and
    # --N x --B-steps at most 2**16; beyond them a run used to end in a numpy
    # memory error and a traceback
    words = argv.split()
    out = tmp_path / "out.txt"
    code = main(words[:1] + ["--lattice", lattice] + words[1:] + ["--potential", vfiles["pm"], "--output", str(out)])
    captured = capsys.readouterr()
    if refused is None:
        assert code == 0
        assert out.read_text(encoding="utf-8").endswith("\n")
    else:
        assert code == 2
        assert not out.exists() and captured.out == ""
        assert captured.err.startswith(f"error: {refused} must be ")


def test_sweep_at_the_channel_bound(tmp_path, vfiles):
    # N x --B-steps = 2**16 zigzag channels, solved at once
    assert cli.MAX_SWEEP_CHANNELS == 64 * 1024 == 128 * 512
    code, text = run(tmp_path, *"sweep --lattice zigzag --N 512 --B-start 0 --B-stop 1 --B-steps 128".split(),
                     "--potential", vfiles["pm"])
    assert code == 0 and text.count("\n") == 2 * 512 * 128


@pytest.mark.parametrize("lattice", ["zigzag", "armchair"])
@pytest.mark.parametrize(
    "argv",
    [
        "bands --N 513 --B 0.3",
        "bands --N 1000000000 --B 0.3",
        "sweep --N 513 --B-start 0",
        "sweep --N 1000000 --B-start 0 --B-stop 1 --B-steps 1024",
        "sweep --N 65 --B-start 0 --B-stop 1 --B-steps 1024",
    ],
)
def test_size_refusal_allocates_nothing(tmp_path, vfiles, lattice, argv):
    # the bounds are checked before any array of the run is made: a refused
    # run traces about 9 kB, a zigzag bands run at N = 512 about 7 MB
    import tracemalloc

    words = argv.split()
    argv = words[:1] + ["--lattice", lattice] + words[1:] + ["--potential", vfiles["pm"], "--output", str(tmp_path / "o")]
    cli._parser()  # built once per process, before the measurement
    with contextlib.redirect_stderr(io.StringIO()) as err:
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 2 and err.getvalue().startswith("error: --N ")
    assert peak < 64 * 1024
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, q, refused",
    [
        ("geometry --N 3 --B 0.5 --cells 64", None, None),
        ("geometry --N 512 --B 0.5 --cells 1", None, None),
        ("geometry --N 3 --B 0.5 --cells 65", None, "--cells"),
        ("geometry --N 3 --B 0.5 --cells 0", None, "--cells"),
        ("geometry --N 3 --B 0.5 --cells -2", None, "--cells"),
        ("geometry --N 3 --B 0.5 --cells 1000000000000", None, "--cells"),
        ("geometry --N 513 --B 0.5", None, "--N"),
        ("bands --lattice zigzag --N 3 --b 0.3", 32, None),
        ("bands --lattice armchair --N 3 --B 0.3 --grid 16", 15, None),
        ("verify --lattice zigzag --N 3 --b 0.3", 32, None),
        ("bands --lattice zigzag --N 3 --b 0.3", 34, "the number of --potential values"),
        ("bands --lattice zigzag --N 3 --b 0.3", 17, "the number of --potential values"),
        ("bands --lattice armchair --N 3 --B 0.3 --grid 16", 1001, "the number of --potential values"),
        ("sweep --lattice zigzag --N 3 --B-start 0", 33, "the number of --potential values"),
        ("verify --lattice armchair --N 3 --B 0.3", 17, "the number of --potential values"),
        ("asym --regime small_t --ck 0.5", 17, "the number of --potential values"),
        ("asym --regime small_t --ck 0.5 --sample-period 17", None, "--sample-period"),
        ("asym --regime small_t --ck 0.5 --sample-period 1000000000", None, "--sample-period"),
    ],
)
def test_geometry_cells_and_potential_length_bounds(tmp_path, argv, q, refused):
    # geometry wrote any number of cells, and any potential length was solved:
    # a zigzag bands run on a million values ended in a numpy memory error.  The
    # period p is q/2 for an even q and q for an odd one, so 32 values pass and 17 do not
    import tracemalloc

    words = argv.split()
    if q is not None:
        potential = tmp_path / "v.json"
        potential.write_text(json.dumps(np.random.default_rng(q).uniform(-1.0, 1.0, q).tolist()))
        words += ["--potential", str(potential)]
    cli._parser()  # built once per process, before the measurement
    with contextlib.redirect_stderr(io.StringIO()) as err:
        tracemalloc.start()
        try:
            code = main(words + ["--output", str(tmp_path / "o")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    if refused is None:
        assert code == 0 and (tmp_path / "o").exists()
    else:
        assert code == 2 and err.getvalue().startswith(f"error: {refused} must be ")
        assert not (tmp_path / "o").exists()
        assert peak < 64 * 1024 + (0 if q is None else 100 * q)  # the parsed potential file, nothing else


def run_in_process(argv):
    """(exit code, stdout, stderr) of one ``main`` call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_built_once_gives_fresh_parser_results(monkeypatch, vfiles):
    sequence = [
        "bands --lattice armchair --N 3 --B 0.2 --grid 16 --potential {pm}",
        "sweep --lattice zigzag --N 3 --B-start 0 --B-stop 1 --B-steps 2 --potential {pm}",
        "asym --regime large_t_zigzag --N 3 --b 0.1 --t 40 --potential {pm}",
        "verify --lattice armchair --N 3 --B 0.4 --potential {pm}",
        "geometry --N 3 --B 0.5",
        "bands --lattice hexagonal --N 3 --potential {pm}",  # argparse usage error
        "asym --regime small_t --ck 0.5 --t 2 --potential {pm}",  # refused option
        "sweep --help",
        "--help",
        "bands --lattice zigzag --N 3 --b 0.1 --format csv --potential {pm}",
        "bands --lattice zigzag --N 3",  # missing --potential
        "geometry --N 3 --B 0.5 --cells",  # argparse: option without its value
        "verify --lattice zigzag --N 3 --b 0.1 --potential {pm}",
    ]
    argvs = [argv.format(pm=vfiles["pm"]).split() for argv in sequence]
    built = []
    make_parser = cli.make_parser
    monkeypatch.setattr(cli, "make_parser", lambda: built.append(1) or make_parser())
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run_in_process(argv))
    assert len(built) == len(argvs)
    cli._parser.cache_clear()
    built.clear()
    shared = [run_in_process(argv) for argv in argvs]
    assert built == [1]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 2, 2, 0]
    assert "usage: nanotube-bands sweep" in shared[7][1] and "invalid choice" in shared[5][2]


@pytest.mark.parametrize(
    "potential, argv",
    [
        ("[0.4, -0.4]", "asym --regime small_t --k 1 --b 0.2"),
        ("[0.9, -0.3, 0.4, -1.1]", "asym --regime large_t_zigzag --b 0.2 --t 40"),
        ("[0.9, -0.3, 0.4, -1.1]", "asym --regime large_t_armchair --B 0 --t 40 --k 1"),
        ("[0.2, 0.2]", "asym --regime small_v_armchair"),
        ("[0.9, -0.3, 0.4, -1.1]", "asym --regime low_energy_window --b 0.02 --t 0.05"),
    ],
)
def test_asym_regimes_that_read_N_exit_2_without_it(tmp_path, capsys, potential, argv):
    pot = tmp_path / "v.json"
    pot.write_text(potential)
    assert main(argv.split() + ["--potential", str(pot)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: regime {argv.split()[2]} needs --N\n"


@pytest.mark.parametrize(
    "potential, argv",
    [
        ("[3.0, 0.0, -3.0, 1.0]", "asym --regime ck_to_zero --s 1"),
        ("[3.0, 0.0, -3.0, 1.0]", "asym --regime ck_to_zero --ck-values 0.02,0.01 --t 2"),
        ("[0.4, -0.4]", "asym --regime small_t --ck 0.5"),
        ("[0.15, -0.05, -0.1]", "asym --regime small_t --ck 0.3"),
    ],
)
def test_asym_regimes_that_do_not_read_N_run_without_it(tmp_path, capsys, potential, argv):
    # --N used to be required by every regime, and any value was accepted and ignored
    pot = tmp_path / "v.json"
    pot.write_text(potential)
    assert main(argv.split() + ["--potential", str(pot)]) == 0
    assert json.loads(capsys.readouterr().out)


def test_bands_and_large_t_asym_agree_on_a_near_flat_channel(tmp_path, capsys):
    # c_1 = 7e-13: its odd bond 2|c_1| = 1.4e-12 lies above FLAT_CHANNEL_TOL, so
    # bands solves channel 1 as dispersive; asym used to skip it as flat (|c_k| < 1e-12)
    pot = tmp_path / "v.json"
    pot.write_text("[0.9, -0.3, 0.4, -1.1]")
    model = ["--N", "2", "--b", "-7e-13", "--t", "40", "--potential", str(pot)]
    assert main(["bands", "--lattice", "zigzag", *model]) == 0
    channel = json.loads(capsys.readouterr().out)["channels"][0]
    assert channel["k"] == 1 and channel["bands"] and not channel["flat_bands"]
    main(["asym", "--regime", "large_t_zigzag", *model])
    reports = json.loads(capsys.readouterr().out)
    assert {r["params"].get("k") for r in reports} >= {1}


def run_child(tmp_path, argv):
    """(exit code, stdout, stderr) of ``python -W error::RuntimeWarning -m nanotube_bands`` on a 4-value potential."""
    import subprocess
    import sys
    from pathlib import Path

    import nanotube_bands

    pot = tmp_path / "v.json"
    pot.write_text("[0.3, -0.2, 0.5, -0.7]")
    src = str(Path(nanotube_bands.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "nanotube_bands", *argv.split(), "--potential", str(pot)],
        capture_output=True, text=True, env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    return done.returncode, done.stdout, done.stderr


def test_asym_large_t_zigzag_past_the_float_range_has_no_traceback(tmp_path):
    # t ** (2p - 1) in the width prediction overflowed: exit 1 with an OverflowError traceback
    code, out, err = run_child(tmp_path, "asym --regime large_t_zigzag --N 4 --b 0.3 --t 1e103")
    assert code in (0, 1) and err == ""
    widths = [report for report in json.loads(out) if "check" not in report["params"]]
    assert widths and all(report["predicted"] == 0 for report in widths)


def test_armchair_sweep_past_the_float_range_exits_2_without_a_warning(tmp_path):
    # the field steps were numpy scalars, whose phases overflowed with a RuntimeWarning before the refusal
    code, out, err = run_child(
        tmp_path, "sweep --lattice armchair --N 3 --B-start 0 --B-stop 1e308 --B-steps 3 --t 1e300"
    )
    assert (code, out) == (2, "") and err == "error: b3 must be finite, got -inf\n"
