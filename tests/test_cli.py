"""Command line reports: schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from becochains.cli import main
from reference import weak_order_counts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_text_passes(capsys):
    code, out, _ = run(capsys, "dims", "--k", "3", "--t", "2")
    assert code == 0
    assert "verdict: PASS" in out
    assert "count-deg-3: expected=12 computed=12" in out


def test_dims_json_schema(capsys):
    code, out, _ = run(capsys, "dims", "--k", "2", "--t", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"version", "command", "params", "checks", "verdict"}
    assert payload["command"] == "dims"
    assert payload["params"] == {"k": 2, "t": 3, "max_degree": 2}
    for check in payload["checks"]:
        assert set(check) == {"name", "expected", "computed", "pass", "provenance"}
        assert check["provenance"] in ("paper", "derived")
    assert [c["computed"] for c in payload["checks"]] == [2, 2, 2]
    assert payload["verdict"] == "PASS"


def test_every_dims_count_has_a_reference(capsys):
    from becochains.cli import REFERENCE_COUNTS

    for (k, t), (provenance, reference) in REFERENCE_COUNTS.items():
        # no stored count lies past the top degree of its complex
        assert len(reference) - 1 <= (t - 1) * k * (k - 1) // 2, (k, t)
        # the default report checks every stored count, and no degree past them
        code, out, _ = run(capsys, "dims", "--k", str(k), "--t", str(t), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["max_degree"] == len(reference) - 1
        assert [c["computed"] for c in payload["checks"]] == reference, (k, t)
        assert {c["provenance"] for c in payload["checks"]} == {provenance}, (k, t)
        code, _, err = run(capsys, "dims", "--k", str(k), "--t", str(t),
                           "--max-degree", str(len(reference)))
        assert code == 2
        assert "max degree out of range" in err
    derived = {kt: counts for kt, (provenance, counts) in REFERENCE_COUNTS.items()
               if provenance == "derived"}
    assert derived == {(5, 2): weak_order_counts(5, 4)}


def test_dims_derived_miscount_fails(capsys, monkeypatch):
    from becochains import cli

    real_count = cli.count_by_degree

    def miscount(k, t, max_degree):
        counts = real_count(k, t, max_degree)
        return counts[:-1] + [counts[-1] + 1]

    monkeypatch.setattr(cli, "count_by_degree", miscount)
    code, out, _ = run(capsys, "dims", "--k", "5", "--t", "2")
    assert code == 1
    lines = out.splitlines()
    assert "FAIL count-deg-4: expected=- computed=3333121 [derived]" in lines
    assert "PASS count-deg-3: expected=- computed=1107840 [derived]" in lines
    assert lines[-1] == "verdict: FAIL"


def test_dims_reruns_byte_identical(capsys):
    _, out1, _ = run(capsys, "dims", "--k", "3", "--t", "2", "--format", "json")
    _, out2, _ = run(capsys, "dims", "--k", "3", "--t", "2", "--format", "json")
    assert out1 == out2


def test_dims_out_of_limits_usage_error(capsys):
    code, _, err = run(capsys, "dims", "--k", "9", "--t", "2")
    assert code == 2
    assert "unsupported" in err
    code, _, err = run(capsys, "dims", "--k", "4", "--t", "3", "--max-degree", "11")
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["dims", "--k", "3"])
    assert info.value.code == 2


def test_verify_basics_passes(capsys):
    code, out, _ = run(capsys, "verify-basics")
    assert code == 0
    assert "verdict: PASS" in out
    assert "dAr" in out
    assert "omega-support-k4" in out
    assert "coproduct-B12B23B13" in out


def test_verify_basics_json_check_names(capsys):
    code, out, _ = run(capsys, "verify-basics", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert "dAr" in names
    assert "omega-support-k4" in names
    assert "coproduct-B12B23B13" in names
    assert all(c["pass"] for c in payload["checks"])


def test_obstruct_text_verdict(capsys):
    code, out, _ = run(capsys, "obstruct")
    assert code == 0
    assert out.rstrip().endswith("verdict: NON-FORMAL CONFIRMED")
    assert "alpha-B12B24B14" in out


def test_obstruct_json_alpha_matrix(capsys, tmp_path):
    emit = tmp_path / "alpha.json"
    code, out, _ = run(capsys, "obstruct", "--format", "json", "--emit", str(emit))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NON-FORMAL CONFIRMED"
    matrix = payload["alpha_matrix"]
    assert len(matrix["rows"]) == 90
    assert len(matrix["cols"]) == 11
    assert all(len(bits) == 11 for bits in matrix["bits"])
    # emitted file holds the same report
    assert json.loads(emit.read_text()) == payload


def test_obstruct_emit_text(capsys, tmp_path):
    emit = tmp_path / "report.txt"
    code, out, _ = run(capsys, "obstruct", "--emit", str(emit))
    assert code == 0
    assert emit.read_text() == out


def test_emit_to_missing_directory_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "dims", "--k", "3", "--t", "2", "--emit", str(target))
    assert code == 2
    assert "verdict: PASS" in out
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_emit_to_empty_path_exits_two(capsys, tmp_path, monkeypatch):
    # An empty path names no file: it is an unwritable --emit target, not a missing option.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "dims", "--k", "3", "--t", "2", "--emit", "")
    assert code == 2
    assert "verdict: PASS" in out
    assert err.startswith("error: cannot write : ")
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_unwritable_stdout_exits_two():
    # A pipe whose read end is closed before the command starts: every write fails.
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = [sys.executable, "-m", "becochains.cli", "obstruct", "--format", "json"]
    try:
        proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env, text=True,
                              timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: Broken pipe\n"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every cold start pays its imports: dataclasses and the inspect it pulls in take 7-12 ms."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = "import sys, becochains.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout == "[]\n"


def test_flipped_alpha_bit_is_inconclusive(capsys, monkeypatch):
    from becochains import cli
    from becochains.algebras import HomWH, w_basis

    real_alpha = cli.alpha_hom
    row = w_basis(4, 2).index(((1, 2), (2, 3), (1, 3)))

    def flipped_alpha():
        a = real_alpha()
        rows = list(a.rows)
        rows[row] ^= 1
        return HomWH(a.k, a.level, a.qdeg, rows)

    monkeypatch.setattr(cli, "alpha_hom", flipped_alpha)
    code, out, err = run(capsys, "obstruct")
    assert code == 1
    assert "verdict: INCONCLUSIVE" in out.splitlines()
    assert err.startswith("consistency failure diagnostic\n")
    assert "failing check: alpha-B12B23B13 " in err
    assert "B12.B23.B13: " in err


def test_obstruct_gauge_seed_checks(capsys):
    code, out, _ = run(capsys, "obstruct", "--gauge-seed", "5")
    assert code == 0
    assert "gauge-alpha-shift" in out
    assert "gauge-pairing" in out
    assert "verdict: NON-FORMAL CONFIRMED" in out


# In a fresh interpreter every cache is cold, so a degree-2 coface mask table
# asked for once is built there, and the profiler sees the build.
CLOSEDNESS_CHILD = """
import contextlib, io, json, sys
from becochains import cochains
from becochains.cli import main

masks, coboundary = cochains._coface_masks.__wrapped__.__code__, cochains.coboundary.__code__
asked, degrees = set(), set()

def record(frame, event, arg):
    if event == "call" and frame.f_code is masks:
        cx = frame.f_locals["cx"]
        asked.add((cx.k, cx.t, frame.f_locals["deg"]))
    elif event == "call" and frame.f_code is coboundary:
        degrees.add(frame.f_locals["c"].degree)

sys.setprofile(record)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["obstruct", "--gauge-seed", "5"])
sys.setprofile(None)
print(json.dumps({"code": code, "masks": sorted(asked), "degrees": sorted(degrees)}))
"""


def test_obstruct_checks_its_cocycles_without_degree_two_coface_masks():
    """The 180 closedness checks of obstruct go through the bitsliced test, not coboundary."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", CLOSEDNESS_CHILD], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    seen = json.loads(proc.stdout)
    assert seen["code"] == 0
    # The recorder works: the coboundary space of the classes leg reads the degree-1 masks.
    assert [4, 2, 1] in seen["masks"]
    assert [4, 2, 2] not in seen["masks"]
    assert 2 not in seen["degrees"]


# Both commands in one fresh interpreter, then the hits of every module-level
# lru_cache of the library, keyed by module and function name.
CACHE_AUDIT_CHILD = """
import contextlib, importlib, io, json
from becochains.cli import main
from becochains.obstruction import gauge_shift, random_gauge

with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify-basics"]), main(["obstruct", "--gauge-seed", "42"])]
hits = {}
for mod in ("gf2", "perms", "complexes", "cochains", "algebras", "cycles", "obstruction"):
    module = importlib.import_module("becochains." + mod)
    for name, obj in vars(module).items():
        if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
            hits[f"{mod}.{name}"] = obj.cache_info().hits
image_cache = importlib.import_module("becochains.cochains")._image
image = image_cache.cache_info()
lookups = [image.hits + image.misses, image.misses]
# A library caller looping over gauges keeps a bounded number of images.
for seed in range(150):
    gauge_shift(random_gauge(seed))
held = image_cache.cache_info().currsize
print(json.dumps({"codes": codes, "hits": hits, "image": lookups, "held": held}))
"""


def test_every_library_cache_is_read_again_by_the_certificate():
    """A memo that the certificate never reads twice only costs memory: each one must hit."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", CACHE_AUDIT_CHILD], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    seen = json.loads(proc.stdout)
    assert seen["codes"] == [0, 0]
    # The audit sees the caches: the split tables, the solve matrix and the cup images.
    assert {"algebras._split_table", "obstruction.hochschild_matrix",
            "cochains._image"} <= set(seen["hits"])
    assert {name for name, hits in seen["hits"].items() if hits < 1} == set()
    # 308 cup-image lookups form 104 images: one per distinct cochain, degree pair and side.
    assert seen["image"] == [308, 104]
    assert seen["held"] <= 128


def test_obstruct_gauge_seed_deterministic(capsys):
    _, out1, _ = run(capsys, "obstruct", "--gauge-seed", "9", "--format", "json")
    _, out2, _ = run(capsys, "obstruct", "--gauge-seed", "9", "--format", "json")
    assert out1 == out2


def test_obstruct_negative_gauge_seed_usage_error(capsys):
    code, _, err = run(capsys, "obstruct", "--gauge-seed", "-3")
    assert code == 2


def test_non_cocycle_error_cochain_is_inconclusive(capsys, monkeypatch):
    from becochains import obstruction
    from becochains.algebras import w_basis
    from becochains.cochains import F2Cochain, coboundary

    # The table holds the error cocycles in w_basis(4, 2) order; break the last one.
    table = list(obstruction._phi_d_table())
    assert len(table) == len(w_basis(4, 2))
    table[-1] = table[-1] + F2Cochain(table[-1].cx, 2, 1)
    assert coboundary(table[-1])
    table = tuple(table)
    monkeypatch.setattr(obstruction, "_phi_d_table", lambda: table)
    code, out, err = run(capsys, "obstruct")
    assert code == 1
    assert "FAIL phi-d-cocycles: expected=90/90 computed=89/90 [derived]" in out.splitlines()
    assert out.splitlines()[-1] == "verdict: INCONCLUSIVE"
    assert err.startswith("consistency failure diagnostic\n")
    assert "failing check: phi-d-cocycles " in err
    assert "Traceback" not in err


def test_non_cocycle_error_cochain_under_a_gauge_is_inconclusive(capsys, monkeypatch):
    from becochains import obstruction
    from becochains.algebras import w_basis
    from becochains.cochains import F2Cochain

    real_phi1 = obstruction.phi1
    u = w_basis(4, 1)[-1]

    def broken_phi1(w):
        c = real_phi1(w)
        return c + F2Cochain(c.cx, 1, 1) if w == u else c

    # Both the plain and the gauge-shifted error cochains read the broken phi1.
    monkeypatch.setattr(obstruction, "phi1", broken_phi1)
    obstruction._phi_d_table.cache_clear()
    try:
        code, out, err = run(capsys, "obstruct", "--gauge-seed", "42")
    finally:
        obstruction._phi_d_table.cache_clear()
    assert code == 1
    lines = out.splitlines()
    assert any(line.startswith("FAIL phi-d-cocycles: ") for line in lines)
    assert "FAIL gauge-alpha-shift: expected=True computed=False [derived]" in lines
    assert lines[-1] == "verdict: INCONCLUSIVE"
    assert "failing check: gauge-alpha-shift " in err
    assert "Traceback" not in err


def test_non_closed_gauge_shift_is_inconclusive(capsys, monkeypatch):
    from becochains import cli
    from becochains.algebras import HomWH

    real_shift = cli.gauge_shift

    def broken_shift(f):
        shifted = real_shift(f)
        return shifted + HomWH(4, 2, 2, [1] + [0] * (len(shifted.rows) - 1))

    monkeypatch.setattr(cli, "gauge_shift", broken_shift)
    code, out, err = run(capsys, "obstruct", "--gauge-seed", "42")
    assert code == 1
    lines = out.splitlines()
    assert "FAIL gauge-alpha-shift: expected=True computed=False [derived]" in lines
    assert lines[-1] == "verdict: INCONCLUSIVE"
    assert "failing check: gauge-alpha-shift " in err
    assert "Traceback" not in err


def assert_inconclusive(code, out, err, *failing):
    """Exit 1, an INCONCLUSIVE verdict, and a diagnostic naming each failing check."""
    assert code == 1
    assert out.splitlines()[-1] == "verdict: INCONCLUSIVE"
    assert err.startswith("consistency failure diagnostic\n")
    for name in failing:
        assert f"failing check: {name} " in err
    assert "Traceback" not in err


def test_flipped_beta_bit_fails_the_pairing_leg(capsys, monkeypatch):
    from becochains import cli, obstruction
    from becochains.algebras import arnold_basis, w_basis

    # the one summand that pairs with alpha: B12.B24.B14 (x) A12.A14
    bit = (w_basis(4, 2).index(((1, 2), (2, 4), (1, 4))) * 11
           + arnold_basis(4, 2).index(((1, 2), (1, 4))))
    real_beta = obstruction.beta
    assert real_beta() >> bit & 1

    def flipped_beta():
        return real_beta() ^ 1 << bit

    monkeypatch.setattr(obstruction, "beta", flipped_beta)
    monkeypatch.setattr(cli, "beta", flipped_beta)
    code, out, err = run(capsys, "obstruct")
    assert "FAIL dual-beta-zero: expected=True computed=False [paper]" in out.splitlines()
    assert "FAIL pairing-alpha-beta: expected=1 computed=0 [paper]" in out.splitlines()
    assert_inconclusive(code, out, err, "dual-beta-zero", "pairing-alpha-beta",
                        "consistency-triangle")


def test_corrupt_anchor_value_fails_its_alpha_check(capsys, monkeypatch):
    from becochains import cli

    values = list(cli.ANCHOR_VALUES)
    values[3] ^= 1
    monkeypatch.setattr(cli, "ANCHOR_VALUES", tuple(values))
    code, out, err = run(capsys, "obstruct")
    lines = out.splitlines()
    assert "FAIL alpha-B23B13B24: expected=A12.A13 computed=0 [paper]" in lines
    assert sum(line.startswith("FAIL ") for line in lines) == 1
    assert_inconclusive(code, out, err, "alpha-B23B13B24")


def test_solvable_alpha_fails_the_solve_leg(capsys, monkeypatch):
    from becochains import obstruction
    from becochains.gf2 import BitMatrix

    real = obstruction.hochschild_matrix()

    def hits_alpha():
        # row 0 replaced by alpha itself, so alpha = d(elementary map 0)
        rows = [obstruction._packed(obstruction.alpha_hom())] + real.data[1:]
        return BitMatrix(real.rows, real.cols, rows)

    monkeypatch.setattr(obstruction, "hochschild_matrix", hits_alpha)
    code, out, err = run(capsys, "obstruct")
    lines = out.splitlines()
    assert "FAIL not-a-coboundary: expected=True computed=False [derived]" in lines
    assert "PASS pairing-alpha-beta: expected=1 computed=1 [paper]" in lines
    assert_inconclusive(code, out, err, "not-a-coboundary", "consistency-triangle")
