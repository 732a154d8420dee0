"""Command line interface: exit codes, JSON contracts, determinism."""

import hashlib
import json

import pytest

from ealie.cli import main


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_list_constructions(capsys):
    rc, out, _ = _run(capsys, ["list-constructions"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0] == "quantum-torus: suites D,SERRE,EARS"
    assert lines[1] == "affinized: suites T,D,EARS,SERRE,TAME,PROPS"
    assert lines[4] == "cocycle-extension: suites CON"


def test_bad_q_entry(capsys):
    err = _usage_error(capsys, ["check", "--construction", "quantum-torus",
                                "--nu", "1", "--q", "2"])
    assert "q entries must be ±1" in err


def test_wrong_q_count(capsys):
    err = _usage_error(capsys, ["check", "--construction", "quantum-torus",
                                "--nu", "2", "--q", "-1,1"])
    assert "error" in err


def test_unknown_suite(capsys):
    err = _usage_error(capsys, ["check", "--suites", "BOGUS"])
    assert "unknown suite" in err


def test_inapplicable_suite(capsys):
    err = _usage_error(capsys, ["check", "--construction", "quantum-torus",
                                "--nu", "1", "--suites", "T"])
    assert "not applicable" in err


@pytest.mark.parametrize("command", ["check", "export", "serre", "ears"])
def test_negative_window_rejected(capsys, command):
    err = _usage_error(capsys, [command, "--construction", "quantum-torus",
                                "--nu", "1", "--window", "-1"])
    assert "--window" in err


def test_negative_nu_rejected(capsys):
    err = _usage_error(capsys, ["check", "--construction", "quantum-torus", "--nu", "-1"])
    assert "argument --nu: must be an integer >= 0" in err


@pytest.mark.parametrize("rank", ["0", "1"])
def test_rank_below_minimum_rejected(capsys, rank):
    err = _usage_error(capsys, ["check", "--construction", "sp-classical", "--rank", rank])
    assert "argument --rank: must be an integer >= 2" in err


def test_ell_below_minimum_rejected(capsys):
    err = _usage_error(capsys, ["check", "--construction", "cocycle-extension", "--ell", "1"])
    assert "argument --ell: must be an integer >= 2" in err


def test_cocycle_export_rejected(capsys):
    err = _usage_error(capsys, ["export", "--construction", "cocycle-extension"])
    assert "no windowed root data" in err


def test_export_torus_window(capsys):
    rc, out, _ = _run(capsys, ["export", "--construction", "quantum-torus",
                               "--nu", "2", "--q", "-1", "--window", "1"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 82
    first = json.loads(lines[0])
    assert list(first) == ["dim", "finite", "isotropic", "lattice", "norm"]
    footer = json.loads(lines[-1])
    assert footer == {"nullity": 2, "rank": 2, "type": "C", "window": 1}
    zero = next(r for r in map(json.loads, lines[:-1])
                if r["finite"] == [0, 0] and r["lattice"] == [0, 0])
    assert zero["isotropic"] is True and zero["norm"] == "0"


def test_export_affinized_counts(capsys):
    rc, out, _ = _run(capsys, ["export", "--construction", "affinized",
                               "--nu", "2", "--q", "-1", "--window", "1"])
    assert rc == 0
    records = [json.loads(l) for l in out.strip().splitlines()[:-1]]
    # 8 nonisotropic finite roots x 9 lattice points, plus 9 isotropic
    assert len(records) == 8 * 9 + 9
    assert sum(1 for r in records if r["isotropic"]) == 9


def test_export_classical(capsys):
    rc, out, _ = _run(capsys, ["export", "--construction", "sp-classical", "--ell", "2"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    dims = sorted(json.loads(l)["dim"] for l in lines[:-1])
    assert dims == [1] * 8 + [2]


def test_check_exit_zero(capsys):
    rc, out, _ = _run(capsys, ["check", "--construction", "sp-classical",
                               "--ell", "2", "--suites", "SERRE,EARS"])
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"instance", "suite_results", "witnesses"}
    assert payload["witnesses"] == {}
    assert set(payload["suite_results"]) == {"SERRE", "EARS"}
    assert payload["instance"]["construction"] == "sp-classical"


def test_check_exit_one_with_witnesses(capsys):
    rc, out, _ = _run(capsys, ["check", "--construction", "quantum-torus",
                               "--nu", "1", "--underived", "--suites", "D"])
    assert rc == 1
    payload = json.loads(out)
    names = [w["name"] for w in payload["witnesses"]["D"]]
    assert names == ["D8-zero-weight-spanned"]


def test_cocycle_suite(capsys):
    rc, out, _ = _run(capsys, ["check", "--construction", "cocycle-extension",
                               "--nu", "1"])
    assert rc == 0
    payload = json.loads(out)
    assert set(payload["suite_results"]) == {"CON"}
    assert payload["suite_results"]["CON"]["passed"] is True


def test_serre_command(capsys):
    rc, out, _ = _run(capsys, ["serre", "--construction", "quantum-torus",
                               "--nu", "1", "--q", ""])
    assert rc == 0
    payload = json.loads(out)
    assert payload["serre"]["cartan_matrix"] == [[2, -1], [-2, 2]]


def test_ears_command(capsys):
    rc, out, _ = _run(capsys, ["ears", "--construction", "quantum-torus",
                               "--nu", "1", "--q", ""])
    assert rc == 0
    payload = json.loads(out)
    assert payload["ears"]["passed"] is True
    assert payload["support"]["S"] == [[-1], [0], [1]]
    assert payload["support"]["E"] is None


def test_export_deterministic(tmp_path, capsys):
    argv = ["export", "--construction", "quantum-torus", "--nu", "2", "--q", "-1"]
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.stat().st_size > 0


def test_check_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = main(["check", "--construction", "sp-classical", "--ell", "2",
               "--suites", "SERRE", "--out", str(path)])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(path.read_text())
    assert payload["suite_results"]["SERRE"]["passed"] is True


# sha256 of the stdout bytes and the exit code; a refactor must leave both unchanged.
PINNED_REPORTS = [
    ("export --construction affinized --nu 2 --q -1 --window 1", 0,
     "8362102dabcaff39fb31da34bd9c6bb217eee60e47078ae91f5c606604f79e41"),
    ("check --construction sqrt-extension --rank 2 --primes 2,3", 0,
     "72472b46e312ce4d6fbe7b00e16e489c10aec5c5898c6e7079e3fe7dd7c6b310"),
    ("check --construction sp-classical --ell 2", 0,
     "d9f89ac686f4aa70917d4a246b0b176423a4a6cfb2455d5bd0f825336b18dd78"),
    ("check --construction affinized --nu 2 --q -1 --window 1 --suites T", 0,
     "dd1f04dc0c663efe3d489bf9b105b5e1af27da23664e8096afc04485ddafcfc4"),
    ("ears --construction quantum-torus --nu 2 --q -1 --window 1", 0,
     "c27c7ed5b4cbd8bc75ba382fe26efa9623bc531768a82c8f981afc9d187db97e"),
    # fails D8 with a witness, so the failing-witness bytes are pinned too
    ("check --construction quantum-torus --nu 2 --q -1 --underived --suites D,EARS", 1,
     "9a943205982a13553559346781c42f4cf5b3f84b0a9e40a716fb829c071482c5"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_REPORTS,
                         ids=["export-affinized", "check-sqrt-extension", "check-sp-classical",
                              "check-affinized-T", "ears-torus", "check-underived-D-EARS"])
def test_report_bytes_pinned(capsys, argv, code, digest):
    rc, out, _ = _run(capsys, argv.split())
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
