import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nanotube_bands import ArmchairModel, ZigzagModel, cli, flat_field_amplitudes
from nanotube_bands.cli import MAX_N, main
from nanotube_bands.core import half_period


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
        # zigzag commands never reach block_branch_ranges; the CLI refuses the grid itself
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
    assert capsys.readouterr().err == f"error: torus dimension 2NL = {2 * N * L} exceeds the oracle's torus cap 2048\n"


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


def run_child(tmp_path, argv, potential=(0.3, -0.2, 0.5, -0.7)):
    """(exit code, stdout, stderr) of ``python -W error::RuntimeWarning -m nanotube_bands`` on ``potential``."""
    import subprocess
    import sys
    from pathlib import Path

    import nanotube_bands

    pot = tmp_path / "v.json"
    pot.write_text(json.dumps(list(potential)))
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


@pytest.mark.parametrize("lattice", ["zigzag", "armchair"])
def test_sweep_span_past_the_float_range_exits_2_without_a_warning(tmp_path, lattice):
    # both ends are finite, their difference is not: np.linspace printed two overflow RuntimeWarnings
    code, out, err = run_child(tmp_path, f"sweep --lattice {lattice} --N 3 --B-start -1e308 --B-stop 1e308 --B-steps 3")
    assert (code, out) == (2, "") and err == "error: field range must have a finite span, got -1e+308 .. 1e+308\n"


CI_POTENTIAL = tuple(np.random.default_rng(5).uniform(-1.0, 1.0, 32).tolist())  # p = MAX_P, as in the CI steps


@pytest.mark.parametrize(
    "argv, potential, widths",
    [
        # 4 a^p / (sep * t**(2p - 1)) divided by a zero power: ZeroDivisionError traceback
        ("asym --regime large_t_zigzag --N 5 --b 0.2 --t 1e-300", (0.9, -0.3, 0.4, -1.1), "inf"),
        # t**(q/2 - 1) raised OverflowError, and a zero power ZeroDivisionError
        ("asym --regime large_t_armchair --N 4 --B 0 --k 4 --t 1e200", CI_POTENTIAL, 0),
        ("asym --regime large_t_armchair --N 4 --B 0 --k 4 --t 1e-300", CI_POTENTIAL, "inf"),
    ],
)
def test_cluster_widths_past_the_float_range_fail_without_a_traceback(tmp_path, argv, potential, widths):
    code, out, err = run_child(tmp_path, argv, potential)
    assert (code, err) == (1, "")
    reports = [report for report in json.loads(out) if "check" not in report["params"]]
    assert reports and all(report["predicted"] == widths for report in reports)


def test_armchair_clusters_that_share_a_band_are_measured_on_their_branches(tmp_path):
    # at t = 0.3 the channel has fewer bands than clusters: IndexError traceback
    code, out, err = run_child(tmp_path, "asym --regime large_t_armchair --N 4 --B 0 --k 4 --t 0.3", CI_POTENTIAL)
    assert (code, err) == (1, "")
    assert [report["params"]["j"] for report in json.loads(out)] == list(range(1, 33))


def test_flat_channel_levels_stay_finite_past_the_square_root_overflow(tmp_path):
    # sqrt((t v-)^2 + 1) overflowed above |t v-| ~ 1.3e154: channel 2 printed [-inf, -inf, inf, inf] at exit 0
    levels = {}
    for t in ("1e150", "1e160"):
        code, out, err = run_child(tmp_path, f"bands --lattice zigzag --N 4 --b 0 --t {t}")
        assert (code, err) == (0, "")
        (flat,) = [channel["flat_bands"] for channel in json.loads(out)["channels"] if channel["flat_bands"]]
        levels[t] = flat
    assert levels["1e150"] == [-7e149, -2e149, 3e149, 5e149]  # below the overflow the levels keep their bits
    assert levels["1e160"] == [-7e159, -2e159, 3e159, 5e159]
    code, out, err = run_child(tmp_path, "sweep --lattice zigzag --N 4 --B-start 0 --t 1e160")
    assert (code, err) == (0, "") and "inf" not in out
    code, out, err = run_child(tmp_path, "asym --regime ck_to_zero --t 1e200")  # predicted "nan"
    assert code in (0, 1) and err == "" and "nan" not in out


@pytest.mark.parametrize(
    "argv, potential",
    [
        ("bands --lattice zigzag --N 4 --b 0.3 --t 1e10", (1e300, -2e300, 3e300, -1e300)),
        ("bands --lattice armchair --N 4 --B 0.3 --t 1e10", (1e300, -2e300, 3e300, -1e300)),
        ("sweep --lattice zigzag --N 4 --B-start 0.3 --t 1e10", (1e300, -2e300, 3e300, -1e300)),
        ("verify --lattice zigzag --N 4 --b 0.3 --L 2 --t 1e10", (1e300, -2e300, 3e300, -1e300)),
        # finite energies whose differences overflow
        ("bands --lattice zigzag --N 4 --b 0.3", (1.5e308, -1.5e308)),
        ("asym --regime ck_to_zero", (1.5e308, -1.5e308)),
        ("asym --regime large_t_armchair --N 4 --B 0.3 --t 1e308", np.linspace(-0.99, 0.99, 12)),
    ],
)
def test_coupling_past_the_float_range_exits_2(tmp_path, argv, potential):
    # LinAlgError tracebacks at exit 1, verify's "residual nan" at exit 3, overflow RuntimeWarnings
    code, out, err = run_child(tmp_path, argv, potential)
    assert (code, out) == (2, "") and err.startswith("error: t * max|v| must be at most half the largest float")
    assert err.count("\n") == 1


def answers_or_refuses(argv, values=None) -> None:
    """Run ``argv`` in process, with ``values`` as its ``--potential``, and check the exit-code rules.

    Exit 2 refuses, with one error line and no output.  Otherwise the run
    answers with JSON and an empty stderr: ``asym`` exits 1 exactly when a
    report fails, any other command exits 0.  Exit 3, an exception escaping
    ``main`` (a traceback) or a RuntimeWarning (an error under the test
    settings) fails it.
    """
    import tempfile

    from hypothesis import event

    with tempfile.TemporaryDirectory() as tmp:
        if values is not None:
            argv = argv + ["--potential", f"{tmp}/v.json"]
            with open(argv[-1], "w") as fh:
                json.dump(values, fh)
        code, out, err = run_in_process(argv)
    event(f"exit {code}")
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (code, err)
    else:
        assert err == "", (code, err)
        doc = json.loads(out)
        assert code == (int(not all(report["pass"] for report in doc)) if argv[0] == "asym" else 0), (code, out)


# ---------------------------------------------------------------------------
# the strong-coupling regimes over the input box the CLI accepts


@st.composite
def large_t_argv(draw):
    """An ``asym large_t_*`` command line anywhere in the accepted box, N * p capped at 1024."""
    regime = draw(st.sampled_from(["large_t_zigzag", "large_t_armchair"]))
    q = draw(st.integers(1, 32).filter(lambda q: q % 2 == 0 or q < 16))
    if draw(st.integers(0, 3)):  # mostly a period the cluster law takes: the zigzag one repeats an odd period
        q = draw(st.sampled_from([12, 16, 20, 24, 28, 32] if regime == "large_t_armchair" else range(2, 33, 2)))
    p = q // 2 if q % 2 == 0 else q
    N = draw(st.integers(2, min(512, 1024 // p)))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, q)
    if q > 1 and draw(st.integers(0, 9)) == 0:
        values[-1] = values[0]  # repeated values: the cluster laws refuse them
    sign = draw(st.sampled_from([1.0] * 8 + [-1.0, 0.0]))  # t <= 0 is refused
    t = sign * 10.0 ** draw(st.floats(-300.0, 308.0))
    field = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-300.0, 308.0))
    field |= st.floats(-10.0, 10.0)
    argv = ["asym", "--regime", regime, "--N", str(N), "--t", repr(t)]
    if regime == "large_t_zigzag":
        k = draw(st.integers(1, N))
        flat = math.pi / 2 - math.pi * k / N  # channel k is flat there
        if draw(st.booleans()):
            argv += ["--b", repr(draw(st.just(flat) | field))]
        else:
            argv += ["--B", repr(draw(field))]
    else:
        if draw(st.booleans()):
            argv += ["--B", repr(draw(field))]
        else:
            argv += [f"--b{i}={draw(field)!r}" for i in (1, 2, 3)]
        if draw(st.booleans()):
            argv += ["--k", str(draw(st.integers(1, N)))]
    return argv, values.tolist()


@given(case=large_t_argv())
@settings(max_examples=60, deadline=None)
def test_large_t_regimes_answer_fail_or_refuse_over_the_accepted_box(case):
    answers_or_refuses(*case)


@pytest.mark.parametrize(
    "argv, codes",
    [
        # abs(2 c) ** p overflowed: exit 1 with an OverflowError traceback
        ("asym --regime ck_to_zero --ck-values 1e300", (2,)),
        # accepted, and a prediction "failed", for a channel constant no cosine takes
        ("asym --regime ck_to_zero --ck-values 1.5", (2,)),
        ("asym --regime ck_to_zero --ck-values 0.01,-1.0000001", (2,)),
        ("asym --regime small_t --ck 1.5", (2,)),
        ("asym --regime ck_to_zero --ck-values 1.0", (0, 1)),
        ("asym --regime ck_to_zero --ck-values -1.0", (0, 1)),
    ],
)
def test_channel_constants_outside_the_cosine_range_exit_2(tmp_path, argv, codes):
    code, out, err = run_child(tmp_path, argv)
    assert code in codes
    if code == 2:
        assert out == "" and err.startswith("error: channel constant is a cosine") and err.count("\n") == 1
    else:
        assert err == "" and json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        "asym --regime large_t_zigzag --N 4 --b 0.3 --t 1e-10",  # overflow in _check_distinct
        "asym --regime large_t_armchair --N 4 --B 0.3 --t 1e-10 --k 4",
        "asym --regime small_v_armchair --N 4",  # overflow in _rung_values
    ],
)
def test_raw_potential_values_at_the_float_limit_answer_or_refuse(tmp_path, argv):
    # each exited 1 with a RuntimeWarning traceback from the difference of two potential values
    for potential in ([1.7e308, -1.7e308, 1e308, -1e308], [1.7e308, 1.7e308, -1.7e308, -1.7e308]):
        code, out, err = run_child(tmp_path, argv, potential)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code in (0, 1) and err == "" and json.loads(out)


@st.composite
def raw_potential_argv(draw):
    """An ``asym`` command line of a cluster or weak-potential regime on raw potential values up to 1e308."""
    regime = draw(st.sampled_from(["large_t_zigzag", "large_t_armchair", "small_v_armchair"]))
    q = draw(st.sampled_from([2, 4, 6, 12, 16, 24, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.floats(-300.0, 308.0))
    values = rng.choice([-1.0, 1.0], q) * 10.0 ** rng.uniform(min(top, 0.0) - 10.0, top, q)
    if draw(st.booleans()):
        values[1::2] = values[0::2]  # rung-paired, as small_v_armchair requires
    N = draw(st.integers(2, 16))
    argv = ["asym", "--regime", regime, "--N", str(N)]
    if regime != "small_v_armchair":
        argv += ["--t", repr(10.0 ** draw(st.floats(-300.0, 308.0)))]
        argv += ["--b", repr(draw(st.floats(-3.0, 3.0)))] if regime == "large_t_zigzag" else ["--B", "0.3"]
    return argv, values.tolist()


@given(case=raw_potential_argv())
@settings(max_examples=60, deadline=None)
def test_asym_regimes_answer_fail_or_refuse_on_raw_potentials_up_to_the_float_limit(case):
    # the accepted-box property above draws potential values in [-1, 1]; this one draws their magnitudes up
    # to 1e308, where the difference of two values overflows
    answers_or_refuses(*case)


# ---------------------------------------------------------------------------
# bands and sweep over the input box the CLI accepts


@st.composite
def bands_sweep_argv(draw):
    """A ``bands`` (JSON or CSV) or ``sweep`` command line of either lattice anywhere in the accepted box.

    t is log-uniform from 1e-300 to 1e308 with either sign, the fields reach
    1e308 and the zigzag ones hit flat phases; N * p is capped at 256 for
    zigzag and at 32 for armchair, and a sweep takes 1 to 3 steps.
    """
    lattice = draw(st.sampled_from(["zigzag", "armchair"]))
    command = draw(st.sampled_from(["json", "csv", "sweep"]))
    q = draw(st.integers(1, 32).filter(lambda q: q % 2 == 0 or q < 16))
    p = q // 2 if q % 2 == 0 else q
    N = draw(st.integers(2, max(2, (256 if lattice == "zigzag" else 32) // p)))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, q)
    t = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-300.0, 308.0))
    field = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-300.0, 308.0))
    field |= st.floats(-10.0, 10.0)
    if lattice == "zigzag":  # B at channel k's first flat amplitude, or b on its flat phase
        k = draw(st.integers(1, N))
        field |= st.sampled_from(flat_field_amplitudes(N, k, [0, 1]))
    argv = ["--lattice", lattice, "--N", str(N), "--t", repr(t)]
    if command == "sweep":
        steps = draw(st.integers(1, 3))
        argv = ["sweep", *argv, "--B-start", repr(draw(field)), "--B-stop", repr(draw(field)), "--B-steps", str(steps)]
    else:
        argv = ["bands", *argv, "--format", command]
        if lattice == "zigzag" and draw(st.booleans()):
            argv += ["--b", repr(draw(st.just(math.pi / 2 - math.pi * k / N) | field))]
        elif lattice == "zigzag" or draw(st.booleans()):
            argv += ["--B", repr(draw(field))]
        else:
            argv += [f"--b{i}={draw(field)!r}" for i in (1, 2, 3)]
    return argv, values.tolist()


def printed_intervals(command: str, out: str) -> dict:
    """The intervals that a run printed, keyed by field (``None`` for ``bands``): the union bands of the
    JSON, the channel bands and flat levels of the CSV, the rows of each field step of a sweep."""
    if command == "bands" and out.startswith("{"):
        return {None: [(float(b["lo"]), float(b["hi"])) for b in json.loads(out)["union"]["bands"]]}
    found = {}
    for line in out.splitlines():
        fields = line.split(",")
        if command == "sweep":
            found.setdefault(float(fields[0]), []).append((float(fields[4]), float(fields[5])))
        else:
            lo, hi = (float(fields[2]),) * 2 if fields[0] == "flat" else (float(fields[2]), float(fields[3]))
            found.setdefault(None, []).append((lo, hi))
    return found


def modelled_runs(argv) -> list:
    """(field key, model) of each model that a ``bands`` or ``sweep`` command line solves, built as the CLI builds it."""
    from nanotube_bands.armchair import model_from_field
    from nanotube_bands.core import load_potential, magnetic_phase

    args = cli.make_parser().parse_args(cli._attach_negative_values(argv))
    if args.command == "bands":
        return [(None, cli.build_model(args, args.lattice))]
    fields = [args.B_start] if args.B_steps == 1 else np.linspace(args.B_start, args.B_stop, args.B_steps).tolist()
    profile = load_potential(args.potential)
    if args.lattice == "zigzag":
        return [(B, ZigzagModel(args.N, magnetic_phase(B, args.N), profile, t=args.t)) for B in fields]
    return [(B, model_from_field(args.N, B, profile, args.t)) for B in fields]


@given(case=bands_sweep_argv())
@settings(max_examples=80, deadline=None)
def test_bands_and_sweep_answer_or_refuse_over_the_accepted_box(case):
    # exit 0, or exit 2 with one error line; an exception escaping main (a traceback) or a
    # RuntimeWarning (an error under the test settings) fails it.  Exit 3 is allowed with its one
    # line, and noted as a finding.  Where the torus of L = p cells has 2NL <= 2048, each of its
    # levels lies within max(1e-8, VERIFY_FLOOR u scale) of an interval printed at 17 digits
    import tempfile
    from unittest import mock

    from hypothesis import event

    from nanotube_bands.core import UNIT_ROUNDOFF, VERIFY_FLOOR, energy_scale
    from nanotube_bands.oracle import build_full_hamiltonian

    argv, values = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict("os.environ", {"NANOTUBE_BANDS_PRECISION": "17"}):
        pot = f"{tmp}/v.json"
        with open(pot, "w") as fh:
            json.dump(values, fh)
        code, out, err = run_in_process(argv + ["--potential", pot])
        runs = modelled_runs(argv + ["--potential", pot]) if code == 0 else []
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        return
    if code == 3:
        assert out == "" and err.startswith("internal consistency failure: ") and err.count("\n") == 1
        event(f"exit 3: {err.strip()}")
        return
    assert code == 0 and err == "" and out.endswith("\n")
    printed = printed_intervals(argv[0], out)
    for key, model in runs:
        p = model.potential.p
        if 2 * model.N * p > 2048:
            continue
        torus = build_full_hamiltonian(model, p)
        intervals = np.array(printed[key])
        levels = torus.eigenvalues()[:, None]
        distance = np.min(np.maximum(np.maximum(intervals[:, 0] - levels, levels - intervals[:, 1]), 0.0), axis=1)
        tol = max(1e-8, VERIFY_FLOOR * UNIT_ROUNDOFF * float(energy_scale(torus.values)))
        assert np.max(distance) <= tol, (float(np.max(distance)), tol)


# ---------------------------------------------------------------------------
# verify over the input box the CLI accepts

VERIFY_COST = 1024  # N * L of a drawn torus: the oracle's own cap 2NL <= 2048, at about 10 ms a draw


def _log_int(draw, lo: int, hi: int) -> int:
    """An integer in [lo, hi], log-uniform."""
    return min(hi, int(math.exp(draw(st.floats(math.log(lo), math.log(hi + 1), exclude_max=True)))))


@st.composite
def verify_argv(draw):
    """A ``verify`` command line of either lattice anywhere in the accepted box, at N * L <= VERIFY_COST.

    N, the number of potential values q (an odd q above 15, whose period is
    refused, is taken one lower), t, the field and the cells L, a multiple of
    p with 2NL <= MAX_DIM and L <= MAX_CELLS (or no --L, for the default 3p,
    where it fits), are log-uniform; t and the fields reach 1e308 with
    either sign, and the zigzag fields hit flat phases.  Returns the argv,
    the potential values and L.
    """
    from nanotube_bands.oracle import MAX_CELLS, MAX_DIM

    lattice = draw(st.sampled_from(["zigzag", "armchair"]))
    q = _log_int(draw, 1, 32)
    if q % 2 and q > 15:
        q -= 1
    p = q // 2 if q % 2 == 0 else q
    N = _log_int(draw, 2, max(2, VERIFY_COST // p))
    multiples = min(MAX_CELLS, MAX_DIM // (2 * N), VERIFY_COST // N) // p
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, q)
    t = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-300.0, 308.0))
    field = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-300.0, 308.0))
    field |= st.floats(-10.0, 10.0)
    argv = ["verify", "--lattice", lattice, "--N", str(N), "--t", repr(t)]
    if multiples >= 3 and draw(st.booleans()):
        L = 3 * p
    else:
        L = p * _log_int(draw, 1, max(1, multiples))
        argv += ["--L", str(L)]
    if lattice == "zigzag":
        k = draw(st.integers(1, N))
        choice = draw(st.sampled_from(["b", "flat", "B"]))
        if choice == "b":
            argv.append(f"--b={draw(field)!r}")
        elif choice == "flat":
            argv.append(f"--b={math.pi / 2 - math.pi * k / N!r}")
        else:
            argv.append(f"--B={draw(field | st.sampled_from(flat_field_amplitudes(N, k, [0, 1])))!r}")
    elif draw(st.booleans()):
        argv.append(f"--B={draw(field)!r}")
    else:
        argv += [f"--b{i}={draw(field)!r}" for i in (1, 2, 3)]
    return argv, values.tolist(), L


@given(case=verify_argv())
@settings(max_examples=300, deadline=None)
def test_verify_answers_or_refuses_over_the_accepted_box(case):
    # exit 0 with a passing report of the drawn torus, or exit 2 with one error line; an exception
    # escaping main (a traceback) or a RuntimeWarning (an error under the test settings) fails it.
    # Exit 3 is allowed only with its one error line, and noted as a finding
    import tempfile

    from hypothesis import event

    argv, values, L = case
    with tempfile.TemporaryDirectory() as tmp:
        pot = f"{tmp}/v.json"
        with open(pot, "w") as fh:
            json.dump(values, fh)
        code, out, err = run_in_process(argv + ["--potential", pot])
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        return
    if code == 3:
        assert out == "" and err.startswith("internal consistency failure: ") and err.count("\n") == 1
        event(f"exit 3: {err.strip()}")
        return
    assert code == 0 and err == "", (code, out, err)
    report = json.loads(out)
    assert report["pass"] is True and report["dim"] == 2 * int(argv[4]) * L


@pytest.mark.parametrize(
    "argv, potential",
    [
        # exit 3, "not rotation invariant", at an off-block norm of 1.3e-12 to 2.2e-12 of the scale: the
        # rounding of the class sums of N ~ 1000 entries, against a fixed ROTATION_TOL of 1e-12
        ("verify --lattice zigzag --N 964 --t 1.0 --L 1 --B=0.038743682013675756", [-0.162273824339356]),
        ("verify --lattice armchair --N 1020 --t -1.0 --L 1 --B=6.92822727495584", [-0.059076429442959544]),
        ("verify --lattice armchair --N 900 --t -1.0 --L 1 --B=-6.184639703974711e+204", [0.9604973703772244]),
    ],
)
def test_verify_of_a_wide_torus_passes(tmp_path, argv, potential):
    pot = tmp_path / "v.json"
    pot.write_text(json.dumps(potential))
    code, out, err = run_in_process(argv.split() + ["--potential", str(pot)])
    assert (code, err) == (0, "") and json.loads(out)["pass"] is True


def test_verify_of_a_nearly_real_torus_passes(tmp_path):
    # exit 3 with max_abs_dev 1.16e-07: the kappa = 0 block's imaginary parts are
    # about 1.7e-159, and the complex eigensolve put its lowest level off by 1e-7
    pot = tmp_path / "v.json"
    pot.write_text("[0.13383367775873012]")
    argv = "verify --lattice armchair --N 7 --t 1e-149 --B=1e-159".split()
    code, out, err = run_in_process(argv + ["--potential", str(pot)])
    report = json.loads(out)
    assert (code, err) == (0, "") and report["pass"] is True and report["max_abs_dev"] < 1e-13


# ---------------------------------------------------------------------------
# the other asym regimes and geometry over the input box the CLI accepts

ASYM_COST = 1024  # N * p of a drawn zigzag model, as for the strong-coupling regimes
GEOMETRY_COST = 2048  # N * --cells of a drawn geometry: 2 N cells records, about 30 ms
LOG_FIELD = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-300.0, 308.0))
LOG_FIELD |= st.floats(-10.0, 10.0)


def _potential(draw, q: int) -> list:
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, q).tolist()


def _zigzag_field(draw, N: int) -> str:
    """--b or --B anywhere, or where a channel k is flat: its phase, or its first flat amplitudes."""
    k = draw(st.integers(1, N))
    choice = draw(st.sampled_from(["b", "flat", "B"]))
    if choice == "b":
        return f"--b={draw(LOG_FIELD)!r}"
    if choice == "flat":
        return f"--b={math.pi / 2 - math.pi * k / N!r}"
    return f"--B={draw(LOG_FIELD | st.sampled_from(flat_field_amplitudes(N, k, [0, 1])))!r}"


def _log_t(draw) -> float:
    return draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-300.0, 308.0))


def _log_ck(draw) -> float:
    """A channel constant: log-uniform in magnitude from 1e-300 to 1 (half of them above 1e-12, where a channel is
    not flat), either sign, or one of 0, 1/2 and 1."""
    sign = draw(st.sampled_from([1.0] * 4 + [-1.0] * 4 + [0.0]))
    return sign * draw(st.builds(lambda e: 10.0**e, st.floats(-300.0, 0.0) | st.floats(-12.0, 0.0)) | st.just(0.5))


def _log_q(draw) -> int:
    """A number of potential values, log-uniform in 1..32; an odd q above 15, whose period is refused, one lower."""
    q = _log_int(draw, 1, 32)
    return q - 1 if q % 2 and q > 15 else q


@st.composite
def low_energy_argv(draw):
    """An ``asym low_energy_window`` command line anywhere in the accepted box, N * p at most ASYM_COST.

    N and q are log-uniform, t log-uniform from 1e-300 to 1e308 with either
    sign, and the fields reach 1e308 and hit flat phases.
    """
    q = _log_q(draw)
    N = _log_int(draw, 2, min(MAX_N, ASYM_COST // half_period(q)))
    argv = ["asym", "--regime", "low_energy_window", "--N", str(N), "--t", repr(_log_t(draw)), _zigzag_field(draw, N)]
    return argv, _potential(draw, q)


@st.composite
def ck_to_zero_argv(draw):
    """An ``asym ck_to_zero`` command line anywhere in the accepted box.

    q is log-uniform, t log-uniform from 1e-300 to 1e308 with either sign, the
    band index s mostly in 1..2p and sometimes just outside it or left out,
    and one to four channel constants, or the default ones.
    """
    q = _log_q(draw)
    p = half_period(q)
    argv = ["asym", "--regime", "ck_to_zero", "--t", repr(_log_t(draw))]
    if draw(st.integers(0, 4)):
        argv.append(f"--s={draw(st.integers(1, 2 * p)) if draw(st.integers(0, 9)) else draw(st.sampled_from([0, 2 * p + 1]))}")
    if draw(st.integers(0, 4)):
        argv.append(f"--ck-values={','.join(repr(_log_ck(draw)) for _ in range(draw(st.integers(1, 4))))}")
    return argv, _potential(draw, q)


@st.composite
def small_t_argv(draw):
    """An ``asym small_t`` command line anywhere in the accepted box.

    The potential is sampled (a log-uniform --sample-period in 1..40, with or
    without --seed), zero-mean, or raw (mostly refused as not zero-mean); the
    channel is --ck, or --k of a log-uniform N with a zigzag field.
    """
    argv = ["asym", "--regime", "small_t"]
    values = None
    source = draw(st.sampled_from(["sample", "zero_mean", "raw"]))
    if source == "sample":
        argv.append(f"--sample-period={_log_int(draw, 1, 40)}")
        if draw(st.booleans()):
            argv.append(f"--seed={draw(st.integers(0, 2**32 - 1))}")
    else:
        values = np.array(_potential(draw, _log_q(draw)))
        p = half_period(values.size)
        values = (values - np.resize(values, 2 * p).mean() if source == "zero_mean" else values).tolist()
    if draw(st.booleans()):
        argv.append(f"--ck={_log_ck(draw)!r}")
    else:
        N = _log_int(draw, 2, MAX_N)
        argv += ["--N", str(N), "--k", str(draw(st.integers(1, N))), _zigzag_field(draw, N)]
    return argv, values


@st.composite
def geometry_argv(draw):
    """A ``geometry`` command line anywhere in the accepted box, N * --cells at most GEOMETRY_COST.

    N (at least 3) and the cells are log-uniform, and B reaches 1e308 with
    either sign or is not finite.
    """
    N = _log_int(draw, 3, MAX_N)
    cells = _log_int(draw, 1, max(1, min(cli.MAX_GEOMETRY_CELLS, GEOMETRY_COST // N)))
    B = draw(LOG_FIELD | st.sampled_from([math.inf, -math.inf, math.nan]))
    return ["geometry", "--N", str(N), f"--B={B!r}", "--cells", str(cells)]


@given(case=low_energy_argv())
@settings(max_examples=200, deadline=None)
def test_low_energy_window_answers_fails_or_refuses_over_the_accepted_box(case):
    answers_or_refuses(*case)


@given(case=ck_to_zero_argv())
@settings(max_examples=200, deadline=None)
def test_ck_to_zero_answers_fails_or_refuses_over_the_accepted_box(case):
    answers_or_refuses(*case)


@given(case=small_t_argv())
@settings(max_examples=300, deadline=None)
def test_small_t_answers_fails_or_refuses_over_the_accepted_box(case):
    answers_or_refuses(*case)


@given(argv=geometry_argv())
@settings(max_examples=100, deadline=None)
def test_geometry_answers_or_refuses_over_the_accepted_box(argv):
    answers_or_refuses(argv)
