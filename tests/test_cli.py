"""Command line interface: exit codes, JSON contracts, determinism."""

import hashlib
import json

import pytest

from ealie import cli
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


@pytest.mark.parametrize("argv", [
    ["--construction", "affinized", "--nu", "1", "--type", "B", "--suites", "SERRE"],
    ["--construction", "sqrt-extension", "--type", "C"],
])
def test_type_option_rejected(capsys, argv):
    # every construction is type C; there is no finite type to choose
    err = _usage_error(capsys, ["check"] + argv)
    assert "unrecognized arguments: --type" in err


@pytest.mark.parametrize("argv, option", [
    (["--construction", "quantum-torus", "--nu", "1", "--primes", "7"], "primes"),
    (["--construction", "affinized", "--primes", "7", "--suites", "SERRE"], "primes"),
    (["--construction", "sp-classical", "--nu", "2", "--q", "-1", "--suites", "SERRE"], "nu"),
    (["--construction", "sqrt-extension", "--underived", "--suites", "SERRE"], "underived"),
    (["--construction", "cocycle-extension", "--window", "5"], "window"),
], ids=["quantum-torus", "affinized", "sp-classical", "sqrt-extension", "cocycle-extension"])
def test_option_a_construction_never_reads_rejected(capsys, argv, option):
    # the report would otherwise show a value the run never used
    err = _usage_error(capsys, ["check"] + argv)
    assert f"--{option} is not read by construction {argv[1]}" in err


def test_unread_option_at_its_default_accepted(capsys):
    argv = ["check", "--construction", "cocycle-extension", "--nu", "1"]
    assert _run(capsys, argv + ["--window", "1", "--seed", "0"]) == _run(capsys, argv)


# at nullity 0 the window is the single empty lattice degree at every --window
_NULLITY_ZERO = {
    "affinized": ["check", "--construction", "affinized", "--nu", "0"],
    "sqrt-extension": ["check", "--construction", "sqrt-extension", "--rank", "2"],
    "quantum-torus": ["ears", "--construction", "quantum-torus", "--nu", "0"],
    "sp-classical": ["export", "--construction", "sp-classical"],
}


@pytest.mark.parametrize("window", ["0", "3"])
@pytest.mark.parametrize("name", sorted(_NULLITY_ZERO))
def test_window_at_nullity_zero_rejected(capsys, name, window):
    err = _usage_error(capsys, _NULLITY_ZERO[name] + ["--window", window])
    assert "--window is not read at nullity 0" in err


def test_window_at_nullity_zero_default_accepted(capsys):
    argv = _NULLITY_ZERO["sp-classical"]
    assert _run(capsys, argv + ["--window", "1"]) == _run(capsys, argv)


# each error found after parsing: _parse_q (count, entry), _parse_suites,
# _parse_primes, _build_algebra, the unread-option rule, the nullity-0 window
@pytest.mark.parametrize("argv", [
    ["check", "--construction", "quantum-torus", "--nu", "1", "--q", "-1"],
    ["export", "--construction", "affinized", "--nu", "1", "--q", "2"],
    ["check", "--suites", "BOGUS"],
    ["serre", "--construction", "sqrt-extension", "--primes", "x"],
    ["ears", "--construction", "sqrt-extension", "--primes", "4"],
    ["ears", "--construction", "quantum-torus", "--primes", "7"],
    ["export", "--construction", "sp-classical", "--window", "0"],
], ids=["q-count", "q-entry", "suite", "primes", "build", "unread", "nullity-0-window"])
def test_errors_after_parsing_name_the_subcommand(capsys, argv):
    err = _usage_error(capsys, argv)
    assert err.startswith(f"usage: ealie {argv[0]} ")
    assert f"\nealie {argv[0]}: error: " in err


@pytest.mark.parametrize("value", ["", ",", " , "])
def test_suites_naming_no_suite_rejected(capsys, value):
    # an explicit empty list would otherwise run nothing and pass
    err = _usage_error(capsys, ["check", "--construction", "sp-classical", "--ell", "2",
                                "--suites", value])
    assert "argument --suites: names no suite" in err


@pytest.mark.parametrize("value", ["", ",", " "])
def test_primes_naming_no_prime_rejected(capsys, value):
    err = _usage_error(capsys, ["check", "--construction", "sqrt-extension", "--primes", value])
    assert "argument --primes: names no prime" in err


def test_primes_default_is_two_three(capsys):
    argv = ["serre", "--construction", "sqrt-extension", "--rank", "2"]
    rc, out, _ = _run(capsys, argv)
    assert (rc, out) == _run(capsys, argv + ["--primes", "2,3"])[:2]
    assert rc == 0
    assert json.loads(out)["instance"]["primes"] == "2,3"


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
    assert "argument --ell/--rank: must be an integer >= 2" in err


def test_rank_is_a_second_spelling_of_ell(capsys):
    argv = ["ears", "--construction", "sqrt-extension"]
    by_rank = _run(capsys, argv + ["--rank", "3"])
    assert by_rank == _run(capsys, argv + ["--ell", "3"])
    assert json.loads(by_rank[1])["instance"]["ell"] == 3


def test_ell_below_minimum_rejected(capsys):
    err = _usage_error(capsys, ["check", "--construction", "cocycle-extension", "--ell", "1"])
    assert "argument --ell/--rank: must be an integer >= 2" in err


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
     "d07ef674aef6948dabc86023ee14a879187922b24166dbc84a3327778697c909"),
    ("check --construction sp-classical --ell 2", 0,
     "87141b61aedb635607771209ab4b63b3548b74e37bd7c1feb9f082c46e45699a"),
    ("check --construction affinized --nu 2 --q -1 --window 1 --suites T", 0,
     "d9d57f85a41406ca3b133d1ba811ef356667248ec814654ba2422bf24393fc73"),
    ("ears --construction quantum-torus --nu 2 --q -1 --window 1", 0,
     "c27c7ed5b4cbd8bc75ba382fe26efa9623bc531768a82c8f981afc9d187db97e"),
    # fails D8 with a witness, so the failing-witness bytes are pinned too
    ("check --construction quantum-torus --nu 2 --q -1 --underived --suites D,EARS", 1,
     "a7c1ddad57f1fe55cda823ea496db7d2a3f6c35fb0f02390a3f3a59dca0c8378"),
    ("ears --construction quantum-torus --nu 2 --q -1 --window 2", 0,
     "a264731cf43bac312f7e879008f567237a74e57d9a1e697a447a5bd14f7b8d73"),
    # the full default check: every suite, TAME and PROPS on the affinized core
    ("check --construction affinized --nu 2 --q -1 --window 1", 0,
     "da7a03200f408e7c7c9de52e99c4f2f4e19df380c3695b538c6a426ee184118b"),
    # three primes: products such as sqrt6 * sqrt10 = 2 sqrt15 reach the report;
    # its T1 invariance is sampled (2,000 of 158,208 triples, seed 0)
    ("check --construction sqrt-extension --rank 3 --primes 2,3,5", 0,
     "e5472d76105eba48344351db15df6b32d3d7a171eceb922efae1d96a70aeb56a"),
    # underived at nullity 1: D8, TAME and PROPS witnesses from the affinized path
    ("check --construction affinized --nu 1 --window 1 --underived", 1,
     "7fd3f72b1ff138184e9b23aca478f483d630597ceb3d218a1ac6ea4f445689b1"),
    # nullity 0: the window is the single empty lattice degree
    ("check --construction sp-classical --ell 3", 0,
     "5763ce56a95d67bfd6196d2b9eae7765f72608fd76282566e963769e858149c7"),
    # the ears-torus-w3 benchmark workload: 441 roots, strings by finite pairs
    ("ears --construction quantum-torus --nu 2 --q -1 --window 3", 0,
     "3240d13e9388ab7ce577cdce882355c1414ab8fc8547f9e405d7e61275a2810e"),
    # mixed signs at nullity 3: the first pin whose parity classes of lattice
    # degrees carry different kappa signs
    ("ears --construction quantum-torus --nu 3 --q=-1,1,-1 --window 1", 0,
     "9bedd6f18b0dbf61e5b5ffd4d6c287c83ccd49dd07cd91e8d8c20e7234281801"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_REPORTS,
                         ids=["export-affinized", "check-sqrt-extension", "check-sp-classical",
                              "check-affinized-T", "ears-torus", "check-underived-D-EARS",
                              "ears-torus-w2", "check-affinized",
                              "check-sqrt-extension-3-primes", "check-affinized-underived",
                              "check-sp-classical-3", "ears-torus-w3",
                              "ears-torus-nu3-mixed"])
def test_report_bytes_pinned(capsys, argv, code, digest):
    rc, out, _ = _run(capsys, argv.split())
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_internal_error_exits_3_without_report(capsys, monkeypatch):
    def crash(alg, w):
        raise RuntimeError("decomposition blew up")

    monkeypatch.setattr(cli, "decompose_window", crash)
    argv = ["check", "--construction", "quantum-torus", "--nu", "1"]
    with pytest.raises(RuntimeError):
        main(argv)  # in-process callers see the exception itself
    capsys.readouterr()
    rc = cli.run(argv)
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err.startswith("Traceback")
    assert err.splitlines()[-1] == "ealie: internal error: RuntimeError: decomposition blew up"


def test_wrong_weight_zero_closed_form_exits_3_without_report(capsys, wrong_closed_form):
    # a closed form that spans less than the slice is refused, not used and
    # not reported as an axiom failure
    rc = cli.run(["check", "--construction", "quantum-torus", "--nu", "2", "--q", "-1"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err.splitlines()[-1].startswith("ealie: internal error: DecompositionError: weight-0 derived slice at ")
