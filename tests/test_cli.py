import json
import math

import numpy as np
import pytest

from nanotube_bands import flat_field_amplitudes
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
        tmp_path, "asym", "--regime", "ck_to_zero", "--N", "4", "--potential", str(pot),
        "--s", "1",
    )
    assert code == 0
    reports = json.loads(text)
    assert reports and all(r["pass"] for r in reports)
    assert set(reports[0]) == {"regime", "params", "predicted", "measured", "ratio", "tolerance", "pass"}


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


def test_asym_large_t_armchair_command(tmp_path):
    rng = np.random.default_rng(2)
    v = np.sort(rng.uniform(-1.2, 1.2, size=12))
    while np.min(np.diff(v)) < 0.14:
        v = np.sort(rng.uniform(-1.2, 1.2, size=12))
    rng.shuffle(v)
    pot = tmp_path / "v12.json"
    pot.write_text("[" + ", ".join(repr(float(x)) for x in v) + "]")
    code, text = run(
        tmp_path, "asym", "--regime", "large_t_armchair", "--N", "4", "--B", "0",
        "--potential", str(pot), "--t", "40", "--k", "4",
    )
    assert code == 0
    assert all(r["pass"] for r in json.loads(text))


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
        ("[NaN, 1.0]", "bands --lattice zigzag --b 0.1"),
        ("[NaN, 1.0]", "bands --lattice armchair --B 0.3"),
        ("[Infinity, 1.0]", "bands --lattice zigzag --b 0.1"),
        ("[Infinity, 1.0]", "bands --lattice armchair --B 0.3"),
        ("[0.5, -0.5]", "bands --lattice zigzag --b nan"),
        ("[0.5, -0.5]", "bands --lattice armchair --b1 nan --b2 0 --b3 0"),
        ("[0.5, -0.5]", "bands --lattice zigzag --B nan"),
        ("[0.5, -0.5]", "bands --lattice armchair --B nan"),
        ("[0.5, -0.5]", "bands --lattice zigzag --b 0.1 --t inf"),
        ("[0.5, -0.5]", "bands --lattice armchair --B 0.3 --t inf"),
        ("[0.5, -0.5]", "sweep --lattice zigzag --B-start 0 --B-stop nan --B-steps 3"),
        ("[0.5, -0.5]", "sweep --lattice armchair --B-start 0 --B-stop nan --B-steps 3"),
    ],
)
def test_non_finite_input_exits_2(tmp_path, capsys, potential, argv):
    pot = tmp_path / "v.json"
    pot.write_text(potential)
    code = main(argv.split() + ["--N", "4", "--potential", str(pot)])
    assert code == 2
    assert capsys.readouterr().out == ""
