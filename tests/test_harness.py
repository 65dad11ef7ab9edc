import dataclasses
import decimal
import itertools
import json
import math

import numpy as np
import pytest

from qlattice.errors import ConfigurationError, DegeneracyError, DomainError
from qlattice import geometry as geo
from qlattice.harness import mesh
from qlattice.harness.cli import build_parser, main, suite_config
from qlattice.harness.report import Report, strip_timing, validate_report
from qlattice.harness.rng import case_rng
from qlattice.harness.suites import SUITES, SuiteConfig, run_suite


def test_case_rng_is_counter_based():
    a = case_rng(7, 3).uniform(size=4)
    b = case_rng(7, 3).uniform(size=4)
    c = case_rng(7, 4).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_unknown_suite_lists_available():
    with pytest.raises(ConfigurationError) as err:
        run_suite(SuiteConfig(suite="nope"))
    assert "classical-lybe" in str(err.value)


def test_single_worker_reports_byte_identical():
    cfg = SuiteConfig(suite="classical-lybe", samples=20, keep_cases=True)
    r1 = run_suite(cfg).to_dict()
    r2 = run_suite(cfg).to_dict()
    assert json.dumps(strip_timing(r1), sort_keys=True) == \
        json.dumps(strip_timing(r2), sort_keys=True)


def test_parallel_same_residual_multiset():
    base = SuiteConfig(suite="miquel", samples=8, keep_cases=True)
    seq = run_suite(base)
    par = run_suite(SuiteConfig(suite="miquel", samples=8, keep_cases=True, workers=2))
    assert sorted(r for _, r in seq.cases) == sorted(r for _, r in par.cases)


def test_report_schema_validation():
    rep = run_suite(SuiteConfig(suite="classical-lybe", samples=5, keep_cases=True))
    data = rep.to_dict()
    validate_report(data)
    bad = dict(data)
    del bad["max_residual"]
    with pytest.raises(Exception):
        validate_report(bad)


def test_pass_logic():
    rep = Report("x", {}, 1, 1e-6, 1e-8, {"cases": 1}, 0.0)
    assert rep.passed
    rep = Report("x", {}, 1, 1e-6, 1e-3, {"cases": 1}, 0.0)
    assert not rep.passed
    neg = Report("x", {}, 1, 1e-6, 0.5, {"cases": 1}, 0.0, negative_control=True)
    assert neg.passed
    # negative control must clear the 1e-3 floor, not just the tolerance
    neg = Report("x", {}, 1, 1e-6, 1e-4, {"cases": 1}, 0.0, negative_control=True)
    assert not neg.passed


@pytest.mark.parametrize("perturb", [False, True], ids=["check", "control"])
def test_non_finite_case_fails_the_suite(monkeypatch, perturb):
    # builtin max skips a NaN that is not first; any non-finite case must fail
    suite = SUITES["classical-lybe"]

    def case(cfg, idx):
        return math.nan if idx == 3 else (1.0 if cfg.perturb else 0.0)
    monkeypatch.setitem(SUITES, "classical-lybe", dataclasses.replace(suite, case=case))
    rep = run_suite(SuiteConfig(suite="classical-lybe", samples=6, perturb=perturb))
    assert math.isnan(rep.max_residual)
    assert not rep.passed
    assert not Report("x", {}, 1, 1e-6, math.inf, {"cases": 1}, 0.0,
                      negative_control=perturb).passed


def test_report_names_the_worst_case(monkeypatch, capsys, tmp_path):
    # the largest case residual, or the first NaN, which np.max reports too
    suite = SUITES["classical-lybe"]
    values = [0.1, 0.5, 0.2, math.nan, 0.9, math.nan]
    monkeypatch.setitem(SUITES, "classical-lybe",
                        dataclasses.replace(suite, case=lambda cfg, idx: values[idx]))
    rep = run_suite(SuiteConfig(suite="classical-lybe", samples=6))
    assert rep.worst_case == 3
    values[3] = values[5] = 0.3
    rep = run_suite(SuiteConfig(suite="classical-lybe", samples=6, workers=2))
    assert rep.worst_case == 4
    data = rep.to_dict()
    validate_report(data)
    assert data["worst_case"] == 4
    path = tmp_path / "rep.json"
    assert main(["verify", "classical-lybe", "--samples", "6", "--out", str(path)]) == 1
    assert main(["report", "--json", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "max residual 9.000e-01 at case 4" in out[0]
    assert "max residual 9.000e-01 at case 4" in out[1]


def test_modular_specfun_near_confluent_case():
    # seed 1403, case 26: a 2Psi2 case with c1 - c2 = -8.3e-6, where the two
    # residue families cancel; it read 6.2e-6 against the 1e-6 tolerance
    cfg = SuiteConfig(suite="modular-specfun", seed=1403, samples=20)
    assert SUITES["modular-specfun"].case(cfg, 26) < 1e-8


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SuiteConfig(suite="classical-lybe", tol=-1.0)
    with pytest.raises(ConfigurationError):
        SuiteConfig(suite="classical-lybe", n_cyclic=1)


def test_all_cli_suites_registered():
    expected = {"classical-lybe", "classical-fte", "symplectic", "geometry-flip",
                "miquel", "dodecahedron", "covariant", "fock-te", "fock-intertwine",
                "cyclic-intertwine", "cyclic-te-irc", "cyclic-te-vertex",
                "cyclic-cross-form", "modular-specfun", "modular-te-irc"}
    assert set(SUITES) == expected


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------

def test_mesh_single_cube(tmp_path):
    st = geo.affine_initial_state((1, 1, 1))
    geo.staircase_evolve(st)
    path = tmp_path / "cube.obj"
    mesh.export_obj(st, str(path))
    verts, faces = mesh.import_obj(str(path))
    assert len(verts) == 8
    assert len(faces) == 6
    assert all(len(f) == 4 for f in faces)


def test_mesh_roundtrip_exact_and_count(tmp_path):
    rng = case_rng(3, 0)
    st = geo.random_initial_state((3, 3, 3), rng, mode="circular")
    geo.staircase_evolve(st)
    path = tmp_path / "lattice.obj"
    mesh.export_obj(st, str(path))
    verts, faces = mesh.import_obj(str(path))
    assert len(faces) == mesh.expected_face_count((3, 3, 3)) == 108
    keys = sorted(st.vertices)
    for k, v in zip(keys, verts):
        assert np.max(np.abs(st.get(k) - v)) < 1e-12


def test_mesh_empty_state_rejected(tmp_path):
    st = geo.LatticeState((1, 1, 1))
    st.set((0, 0, 0), [0.0, 0, 0])
    with pytest.raises(DomainError):
        mesh.export_obj(st, str(tmp_path / "x.obj"))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_verify_writes_report(tmp_path):
    out = tmp_path / "rep.json"
    csv_out = tmp_path / "rep.csv"
    code = main(["verify", "classical-lybe", "--samples", "10",
                 "--out", str(out), "--csv", str(csv_out)])
    assert code == 0
    data = json.loads(out.read_text())
    validate_report(data)
    assert data["pass"] is True
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "case,residual"
    assert len(lines) == 11
    assert main(["report", "--json", str(out)]) == 0


def test_fock_intertwine_map_relations_at_reported_cutoff():
    # case 1 checks the flip-map relations in 50 digits at the cutoff the
    # report names, on the same R as the intertwining check (case 0)
    rep = run_suite(SuiteConfig(suite="fock-intertwine", cutoff=8, q=0.3, keep_cases=True))
    assert rep.parameters["cutoff"] == 8
    assert dict(rep.cases)[1] < 1e-30
    bad = run_suite(SuiteConfig(suite="fock-intertwine", cutoff=5, q=0.3, perturb=True,
                                keep_cases=True))
    assert [i for i, res in bad.cases if res > 1e-3] == [0, 1]


def test_cli_exit_code_on_failure(tmp_path):
    # an absurd tolerance fails the suite and the exit code says so
    code = main(["verify", "classical-lybe", "--samples", "5", "--tol", "1e-30"])
    assert code == 1


@pytest.mark.parametrize("option", [
    ["--tol", "-1"], ["--N", "1"], ["--workers", "0"], ["--samples", "-3"],
    ["--samples", "0"], ["--max-index", "-1"], ["--q", "0"], ["--q", "1"], ["--q", "-1"],
], ids=lambda option: "%s=%s" % (option[0].lstrip("-"), option[1]))
def test_cli_config_error_prints_error_for_each_suite(option, capsys):
    # a bad option is reported per suite as ERROR, not raised as a traceback,
    # and every named suite is still reported
    assert main(["verify", "classical-lybe", "fock-te", *option]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["classical-lybe", "ERROR"],
                                                    ["fock-te", "ERROR"]]


@pytest.mark.parametrize("name", ["classical-lybe", "fock-te", "covariant"])
def test_cli_defaults_are_suite_config_defaults(name):
    args = build_parser().parse_args(["verify", name])
    assert suite_config(args, name) == SuiteConfig(suite=name)


def test_cli_evolve(tmp_path):
    out = tmp_path / "m.obj"
    code = main(["evolve", "--size", "2x2x2", "--mode", "circular",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    verts, faces = mesh.import_obj(str(out))
    assert len(faces) == mesh.expected_face_count((2, 2, 2))


@pytest.mark.parametrize("failure", ["sampler", "flat lattice"])
def test_cli_evolve_reports_degenerate_data(failure, monkeypatch, tmp_path, capsys):
    def sampler(shape, rng, mode):
        if failure == "sampler":
            raise DegeneracyError("failed to sample admissible initial data")
        return geo.affine_initial_state(shape, matrix=np.diag([1.0, 1.0, 0.0]))

    monkeypatch.setattr(geo, "random_initial_state", sampler)
    assert main(["evolve", "--size", "2x2x2", "--out", str(tmp_path / "m.obj")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("ERROR ")
    if failure == "flat lattice":
        assert "flip failed at cube (0, 0, 0): input points are nearly coplanar" in out


def test_cli_evolve_fails_on_a_wrong_face_count(monkeypatch, tmp_path, capsys):
    # a staircase stopped after its first cube has the 12 wall faces and 3 more
    evolve = geo.staircase_evolve
    monkeypatch.setattr(geo, "staircase_evolve", lambda state: evolve(state, steps=1))
    assert main(["evolve", "--size", "2x2x2", "--out", str(tmp_path / "m.obj")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "ERROR face count 15 differs from the expected 36"


def test_fock_te_extended_path():
    # the 50-digit sum resolves the cancellation far below double precision
    from qlattice import rmatrices as rm
    ext = np.ones((12, 1), dtype=int)
    assert rm.fock_te_residual(rm.fock_te_gate(ext), 1, 0.3)[0] < 1e-30


FOCK_REPORT_PINS = [
    ({"q": 0.3}, "5.3901923261472137e-45"),
    ({"q": 0.5}, "0.0"),
    ({"q": 0.7}, "5.958082064398265e-49"),
    ({"q": 0.3, "max_index": 1, "perturb": True}, "0.0029984920127668555"),
    ({"suite": "fock-intertwine", "cutoff": 5, "q": 0.3}, "2.7592955705793748e-49"),
    ({"suite": "fock-intertwine", "cutoff": 5, "q": 0.3, "perturb": True},
     "0.04761904761904762"),
]


def _fock_report(params, **kw):
    cfg = SuiteConfig(keep_cases=True, **{"suite": "fock-te", **params}, **kw)
    return json.dumps(strip_timing(run_suite(cfg).to_dict()), sort_keys=True)


@pytest.mark.parametrize("params, max_residual", FOCK_REPORT_PINS)
def test_fock_te_reports_do_not_depend_on_worker_count(params, max_residual):
    # the sparse operator products too sum in one order in every process
    reports = [_fock_report(params, workers=workers) for workers in (1, 2)]
    assert reports[0] == reports[1]
    assert repr(json.loads(reports[0])["max_residual"]) == max_residual


@pytest.mark.parametrize("params", [params for params, _ in FOCK_REPORT_PINS] + [
    {"suite": "fock-intertwine", "cutoff": 8, "q": 0.3},
    {"suite": "fock-intertwine", "cutoff": 8, "q": 0.3, "perturb": True},
])
def test_fock_reports_do_not_depend_on_the_thread_decimal_context(params):
    # the checks enter their own context: a caller's 10 or 200 digits change
    # no byte of a report, elements recomputed under them included
    from qlattice import rmatrices as rm

    want = _fock_report(params)
    for prec in (10, 200):
        rm.fock_element_mp.cache_clear()
        with decimal.localcontext(decimal.Context(prec=prec)):
            assert _fock_report(params) == want
            assert decimal.getcontext().prec == prec


def test_fock_entry_points_do_not_depend_on_the_thread_decimal_context():
    # each function that computes in Decimals enters the checks' context
    # itself, also when it is called outside a suite
    from qlattice import qosc
    from qlattice import rmatrices as rm

    exts = np.array(list(itertools.product(range(2), repeat=12))[::7]).T
    terms = rm.fock_te_gate(exts)
    reps, mask, r = qosc.fock_r_sparse(5, 0.3, rm.fock_element_mp)

    def scaled_element(*args):  # element_fn runs in the checks' context
        return rm.fock_element_mp(*args) * decimal.Decimal("1.05")

    def values():
        rm.fock_element_mp.cache_clear()
        element = rm.fock_element_mp(2, 1, 2, 1, 2, 1, 0.3)
        return repr((element, qosc.fock_rep(4, rm.to_mp(0.3)).k.diagonal().tolist(),
                     qosc.fock_r_sparse(4, 0.3, scaled_element)[2].data.tolist(),
                     rm.fock_te_sides(terms, exts.shape[1], 0.7),
                     rm.fock_te_residual(terms, exts.shape[1], 0.3).tolist(),
                     qosc.fock_intertwine_extended(5, 0.3, rm.fock_element_mp),
                     qosc.map_operator_residuals(reps, r, eps=1, mask=mask),
                     qosc.map_operator_residuals(reps, r, eps=-1, mask=mask)))

    want = values()
    for prec in (10, 200):
        with decimal.localcontext(decimal.Context(prec=prec)):
            assert values() == want


@pytest.mark.parametrize("perturb, converted", [(False, [0.3, 0.3]),
                                                (True, [0.3, 0.3, 0.05])])
def test_fock_intertwine_converts_each_double_once(monkeypatch, perturb, converted):
    # q is taken into the 50-digit context once per case, not once per
    # element (2,023 elements at cutoff 8); the control converts its 0.05
    from qlattice import rmatrices as rm

    seen = []
    to_mp = rm.to_mp
    monkeypatch.setattr(rm, "to_mp", lambda x: (isinstance(x, float) and seen.append(x))
                        or to_mp(x))
    rm.fock_element_mp.cache_clear()
    rep = run_suite(SuiteConfig(suite="fock-intertwine", cutoff=8, q=0.3, perturb=perturb))
    assert rep.passed and (rep.max_residual > 1e-3) == perturb
    assert seen == converted


def test_fock_te_gates_each_block_once(monkeypatch):
    # the 729 cases at max_index 2 share one gate call per block of 27, which
    # sees only the 4,743 charge-consistent tuples; a second q at the same
    # max_index gates nothing again
    from qlattice import rmatrices as rm
    from qlattice.harness import suites

    gated = []
    gate = rm.fock_te_gate
    monkeypatch.setattr(rm, "fock_te_gate",
                        lambda exts: gated.append(exts.shape[1]) or gate(exts))
    suites._fock_te_block.cache_clear()
    run_suite(SuiteConfig(suite="fock-te", q=0.3, max_index=2))
    assert len(gated) == 27 and sum(gated) == 4743
    run_suite(SuiteConfig(suite="fock-te", q=0.7, max_index=2))
    assert len(gated) == 27


@pytest.mark.parametrize("args, noted", [
    (["fock-te", "--max-index", "1"], ["fock-te"]),
    (["fock-intertwine", "--cutoff", "3"], ["fock-intertwine"]),
    (["cyclic-te-irc", "cyclic-cross-form", "--N", "2"], ["cyclic-te-irc", "cyclic-cross-form"]),
    (["cyclic-te-irc", "cyclic-cross-form", "classical-lybe", "--N", "3"], []),
])
def test_cli_notes_samples_ignored_by_fixed_count_suites(args, noted, capsys):
    # one NOTE line per suite whose case count --samples cannot change; the
    # result lines and the exit code stay those of the run
    assert main(["verify", *args, "--samples", "5"]) == 0
    lines = [line.split(None, 2) for line in capsys.readouterr().out.splitlines()]
    assert [name for name, kind, _ in lines if kind == "NOTE"] == noted
    assert all(rest.startswith("--samples 5 ignored") for _, kind, rest in lines
               if kind == "NOTE")
    assert [kind for _, kind, _ in lines if kind != "NOTE"] == ["PASS"] * (len(args) - 2)


def test_cross_form_builds_the_weight_table_once(monkeypatch):
    # 256 cases and the sector fit share one cached table per CyclicRData
    from qlattice import rmatrices as rm
    from qlattice.harness import suites

    built = []
    table = rm.cyclic_weight_table
    monkeypatch.setattr(rm, "cyclic_weight_table", lambda data: built.append(1) or table(data))
    suites._cross_form_setup.cache_clear()
    rep = run_suite(SuiteConfig(suite="cyclic-cross-form", n_cyclic=2))
    suites._cross_form_setup.cache_clear()
    assert rep.passed and rep.extras["sector_scalar_fit"]
    assert len(built) == 1


@pytest.mark.parametrize("params", [
    {"suite": "cyclic-cross-form", "n_cyclic": 2},
    {"suite": "cyclic-te-irc", "n_cyclic": 3},
    {"suite": "cyclic-intertwine", "n_cyclic": 3, "samples": 2},
    {"suite": "cyclic-intertwine", "n_cyclic": 3, "samples": 2, "perturb": True},
    {"suite": "cyclic-te-irc", "n_cyclic": 2},
    {"suite": "cyclic-te-vertex", "n_cyclic": 3, "samples": 100},
    {"suite": "cyclic-te-vertex", "n_cyclic": 5, "samples": 20, "perturb": True},
])
def test_cyclic_reports_do_not_depend_on_worker_count(params):
    reports = [json.dumps(strip_timing(run_suite(SuiteConfig(
        workers=workers, keep_cases=True, **params)).to_dict()), sort_keys=True)
        for workers in (1, 2)]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("params", [
    {"suite": "geometry-flip", "samples": 10},
    {"suite": "geometry-flip", "samples": 3, "perturb": True},
    {"suite": "miquel", "samples": 10},
    {"suite": "miquel", "samples": 3, "perturb": True},
    {"suite": "dodecahedron", "samples": 10},
    {"suite": "dodecahedron", "samples": 3, "perturb": True},
])
def test_geometry_reports_do_not_depend_on_worker_count(params):
    reports = [json.dumps(strip_timing(run_suite(SuiteConfig(
        workers=workers, keep_cases=True, **params)).to_dict()), sort_keys=True)
        for workers in (1, 2)]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("n", [2, 4])
def test_cyclic_te_vertex_rejects_even_n(n):
    with pytest.raises(ConfigurationError, match="odd N"):
        run_suite(SuiteConfig(suite="cyclic-te-vertex", n_cyclic=n))
    assert main(["verify", "cyclic-te-vertex", "--N", str(n)]) == 1


def test_cyclic_te_vertex_control_clears_tolerance():
    # a 5% phase per index step on the fourth phi table of R356
    plain = run_suite(SuiteConfig(suite="cyclic-te-vertex", n_cyclic=3, samples=200))
    bad = run_suite(SuiteConfig(suite="cyclic-te-vertex", n_cyclic=3, samples=200,
                                perturb=True))
    assert plain.passed and plain.max_residual < 1e-12
    assert bad.passed and bad.max_residual > 1e6 * bad.tolerance
