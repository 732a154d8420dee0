"""Command line interface: exit codes, JSON contracts, determinism."""

import contextlib
import functools
import hashlib
import io
import json
from collections import Counter

import pytest

from ealie import cli, decomp
from ealie.cli import main


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


@functools.cache
def _pinned_run(argv):
    """(exit code, stdout) of ``main`` on the space-separated ``argv``, run
    once per argument string: the pin and projection tests share it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv.split())
    return rc, out.getvalue()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


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


def _count_windows_and_scans(monkeypatch):
    """Counts of ``cli.decompose_window`` calls, keyed by the algebra's class
    name, and of invariance class enumerations (``decomp._classes``, which
    ``RootSystemWindow.weyl_classes`` calls once per scanned window) under
    ``"class enumeration"``."""
    calls = Counter()
    decompose = cli.decompose_window
    classes = decomp._classes

    def counted_decompose(alg, w):
        calls[type(alg).__name__] += 1
        return decompose(alg, w)

    def counted_classes(*args):
        calls["class enumeration"] += 1
        return classes(*args)

    monkeypatch.setattr(cli, "decompose_window", counted_decompose)
    monkeypatch.setattr(decomp, "_classes", counted_classes)
    return calls


def _d_section(out):
    return json.dumps(json.loads(out)["suite_results"]["D"], sort_keys=True, indent=2)


def test_affinized_check_decomposes_once_and_scans_invariance_once(capsys, monkeypatch):
    """T1 scans the affinized window by its classes; D runs on its base
    view and reads that scan and those classes.  Alone, D scans the base
    view by its own classes, once, with the same D section."""
    calls = _count_windows_and_scans(monkeypatch)
    argv = "check --construction affinized --nu 2 --q -1 --window 1".split()
    rc, full, _ = _run(capsys, argv)
    assert rc == 0
    assert calls == {"AffinizedAlgebra": 1, "class enumeration": 1}
    calls.clear()
    rc, d_only, _ = _run(capsys, argv + ["--suites", "D"])
    assert rc == 0
    assert calls == {"AffinizedAlgebra": 1, "class enumeration": 1}
    assert _d_section(d_only) == _d_section(full)


@pytest.mark.parametrize("argv", [
    "check --construction sp-classical --ell 2",
    "check --construction quantum-torus --nu 1",
], ids=["sp-classical", "quantum-torus"])
def test_one_window_scans_invariance_once(capsys, monkeypatch, argv):
    # sp-classical runs T1 and D1 on one window; quantum-torus runs D1 alone
    calls = _count_windows_and_scans(monkeypatch)
    rc, _, _ = _run(capsys, argv.split())
    assert rc == 0
    assert calls == {"TorusMatrixAlgebra": 1, "class enumeration": 1}


def test_cocycle_suite(capsys):
    rc, out, _ = _run(capsys, ["check", "--construction", "cocycle-extension",
                               "--nu", "1"])
    assert rc == 0
    payload = json.loads(out)
    assert set(payload["suite_results"]) == {"CON"}
    assert payload["suite_results"]["CON"]["passed"] is True


def test_cocycle_metadata_names_no_unread_option(capsys):
    """CON reads neither ``--window`` nor ``--seed`` (``UNREAD_OPTIONS``), so
    neither the instance nor the CON metadata names them; a construction
    that reads them keeps ``window``, and ``seed`` only where a suite draws
    from it (T or D), which SERRE does not."""
    rc, out, _ = _run(capsys, "check --construction cocycle-extension --nu 2 --q -1".split())
    assert rc == 0
    payload = json.loads(out)
    con = payload["suite_results"]["CON"]["metadata"]
    assert {"window", "seed"} <= set(cli.UNREAD_OPTIONS["cocycle-extension"])
    assert payload["instance"] == {"construction": "cocycle-extension", "ell": 2, "nu": 2, "q_upper": "-1"}
    assert con == {**payload["instance"], "extension": "degree-derivations"}
    rc, out, _ = _run(capsys, "check --construction sp-classical --ell 2 --suites SERRE".split())
    assert rc == 0
    instance = json.loads(out)["instance"]
    assert instance["window"] == 1 and "seed" not in instance


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
     "b6acd61c1b310457984ccd85fb9fc81963a9a8eb9db86fe2e9e8a8a0796934f3"),
    ("check --construction sp-classical --ell 2", 0,
     "87141b61aedb635607771209ab4b63b3548b74e37bd7c1feb9f082c46e45699a"),
    ("check --construction affinized --nu 2 --q -1 --window 1 --suites T", 0,
     "d9d57f85a41406ca3b133d1ba811ef356667248ec814654ba2422bf24393fc73"),
    ("ears --construction quantum-torus --nu 2 --q -1 --window 1", 0,
     "c656ae89270e7ee72ebb228ad4aa3eadd70c405443da585c0d6b900b5278edd4"),
    # fails D8 with a witness, so the failing-witness bytes are pinned too
    ("check --construction quantum-torus --nu 2 --q -1 --underived --suites D,EARS", 1,
     "a7c1ddad57f1fe55cda823ea496db7d2a3f6c35fb0f02390a3f3a59dca0c8378"),
    ("ears --construction quantum-torus --nu 2 --q -1 --window 2", 0,
     "bd8af685bb9f372f4ed93a36d00df6e9dd167588290f0e7d8dc1ab91f0698507"),
    # the full default check: every suite, TAME and PROPS on the affinized core
    ("check --construction affinized --nu 2 --q -1 --window 1", 0,
     "da7a03200f408e7c7c9de52e99c4f2f4e19df380c3695b538c6a426ee184118b"),
    # three primes: products such as sqrt6 * sqrt10 = 2 sqrt15 reach the report;
    # its T1 invariance is exhaustive on all 158,208 zero-sum basis triples
    ("check --construction sqrt-extension --rank 3 --primes 2,3,5", 0,
     "67acd80cb2ef2c9726119c0991bd3138ec770abc5ec42120dcc13f6eaf3cfb54"),
    # underived at nullity 1: D8, TAME and PROPS witnesses from the affinized path
    ("check --construction affinized --nu 1 --window 1 --underived", 1,
     "7fd3f72b1ff138184e9b23aca478f483d630597ceb3d218a1ac6ea4f445689b1"),
    # nullity 0: the window is the single empty lattice degree
    ("check --construction sp-classical --ell 3", 0,
     "5763ce56a95d67bfd6196d2b9eae7765f72608fd76282566e963769e858149c7"),
    # the ears-torus-w3 benchmark workload: 441 roots, strings by finite pairs
    ("ears --construction quantum-torus --nu 2 --q -1 --window 3", 0,
     "b3b9e54aba66d3d04d97336f70d308d622f1549d737724ef5d7796aee2fdc13a"),
    # mixed signs at nullity 3: the first pin whose parity classes of lattice
    # degrees carry different kappa signs
    ("ears --construction quantum-torus --nu 3 --q=-1,1,-1 --window 1", 0,
     "996aee7f8b3706febf4a91bb0f912c8a827defd464f730c5f5a491e31c256ec1"),
    # D alone: the base view scans its own invariance by its own classes
    ("check --construction affinized --nu 2 --q -1 --window 1 --suites D", 0,
     "2d42de02fb6975de22cf6930135326e7500c2cbda470c123138d8451b697d55e"),
    # the default check at window 2: 620 invariance classes
    ("check --construction affinized --nu 2 --q -1 --window 2", 0,
     "b390ad32caf689a6f667ec6521570f4559e391d8fdd7c4529983b88c80f734e7"),
    # the check-sqrt benchmark workload: rank 4 over three primes
    ("check --construction sqrt-extension --rank 4 --primes 2,3,5", 0,
     "abd348c07edf67e1934b8ed49a0c75390f9e8c53e16f77bdd033073d0a27cdd6"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_REPORTS,
                         ids=["export-affinized", "check-sqrt-extension", "check-sp-classical",
                              "check-affinized-T", "ears-torus", "check-underived-D-EARS",
                              "ears-torus-w2", "check-affinized",
                              "check-sqrt-extension-3-primes", "check-affinized-underived",
                              "check-sp-classical-3", "ears-torus-w3",
                              "ears-torus-nu3-mixed", "check-affinized-D",
                              "check-affinized-w2", "check-sqrt-rank4"])
def test_report_bytes_pinned(argv, code, digest):
    rc, out = _pinned_run(argv)
    assert rc == code
    assert _sha256(out) == digest


# The T3 detail of a square-root check before each slice was decided as a
# line over the field, by its first basis vector.
SAMPLED_T3 = ("window-verified: every nonisotropic basis vector and sampled combinations"
              " solve [x, y] = t; every isotropic window root has a normalized pair")


def _sampled_t3(payload):
    (t3,) = (r for r in payload["suite_results"]["T"]["results"] if r["name"] == "T3-bracket-representatives")
    assert t3["detail"].endswith("decided by its first basis vector; every isotropic window root has a normalized pair")
    t3["detail"] = SAMPLED_T3


def _seeded(payload):
    assert "seed" not in payload["instance"] and "seed" not in payload["ears"]["metadata"]
    payload["instance"]["seed"] = payload["ears"]["metadata"]["seed"] = 0


# Pins that moved by design: each report's digest before the move, and the
# inverse of the move.  The square-root checks name the K-line rule in T3's
# detail; the ears reports no longer write a seed, since EARS draws nothing.
MOVED_REPORTS = [
    ("check --construction sqrt-extension --rank 2 --primes 2,3", _sampled_t3,
     "d07ef674aef6948dabc86023ee14a879187922b24166dbc84a3327778697c909"),
    ("check --construction sqrt-extension --rank 3 --primes 2,3,5", _sampled_t3,
     "5ba3e5a6ff0d0debcfb7d10091ac6b231a64876491df305cad159fa26e101eef"),
    ("check --construction sqrt-extension --rank 4 --primes 2,3,5", _sampled_t3,
     "bb0e330cb263a2e1c6544eff554c6e842ccea19fcafcc2423cff965a5f7b5bf6"),
    ("ears --construction quantum-torus --nu 2 --q -1 --window 1", _seeded,
     "c27c7ed5b4cbd8bc75ba382fe26efa9623bc531768a82c8f981afc9d187db97e"),
    ("ears --construction quantum-torus --nu 2 --q -1 --window 2", _seeded,
     "a264731cf43bac312f7e879008f567237a74e57d9a1e697a447a5bd14f7b8d73"),
    ("ears --construction quantum-torus --nu 2 --q -1 --window 3", _seeded,
     "3240d13e9388ab7ce577cdce882355c1414ab8fc8547f9e405d7e61275a2810e"),
    ("ears --construction quantum-torus --nu 3 --q=-1,1,-1 --window 1", _seeded,
     "9bedd6f18b0dbf61e5b5ffd4d6c287c83ccd49dd07cd91e8d8c20e7234281801"),
]


@pytest.mark.parametrize("argv, restore, digest", MOVED_REPORTS,
                         ids=["check-sqrt-extension", "check-sqrt-extension-3-primes", "check-sqrt-rank4",
                              "ears-torus", "ears-torus-w2", "ears-torus-w3", "ears-torus-nu3-mixed"])
def test_moved_report_is_its_former_bytes_but_for_the_move(argv, restore, digest):
    """Undoing the named change on the parsed report gives the former bytes
    exactly, so nothing else moved; the report is its own parse, dumped."""
    _, out = _pinned_run(argv)
    payload = json.loads(out)
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out
    restore(payload)
    assert _sha256(json.dumps(payload, sort_keys=True, indent=2) + "\n") == digest


def test_seed_is_written_only_where_t_or_d_ran(capsys):
    """``--seed`` reaches T3 and D12a alone, so only a run of T or D writes it."""
    rc, out, _ = _run(capsys, "ears --construction quantum-torus --nu 1 --seed 7".split())
    assert rc == 0 and '"seed"' not in out
    rc, out, _ = _run(capsys, "check --construction sp-classical --suites SERRE,EARS --seed 7".split())
    assert rc == 0 and '"seed"' not in out
    rc, out, _ = _run(capsys, "check --construction sp-classical --suites T,EARS --seed 7".split())
    payload = json.loads(out)
    assert rc == 0 and payload["instance"]["seed"] == payload["suite_results"]["EARS"]["metadata"]["seed"] == 7


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
