import dataclasses
import decimal
import itertools
import json
import math
import os
import subprocess
import sys
import traceback

import numpy as np
import pytest

from qlattice.errors import ConfigurationError, DegeneracyError, DomainError
from qlattice import geometry as geo
from qlattice.harness import mesh
from qlattice.harness.cli import build_parser, main, suite_config
from qlattice.harness.report import Report, validate_report
from qlattice.harness import rng as rng_mod
from qlattice.harness.rng import case_integers, case_rng, case_rngs
from qlattice.harness.suites import SUITES, SuiteConfig, run_suite

import oracles


def test_case_rng_is_counter_based():
    a = case_rng(7, 3).uniform(size=4)
    b = case_rng(7, 3).uniform(size=4)
    c = case_rng(7, 4).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [20240501, -3])
def test_case_rngs_draw_what_case_rng_draws(seed):
    # the re-keyed generator starts each case afresh: the same uniform,
    # integer and normal draws, also after the previous case left part of a
    # Philox block buffered
    from qlattice.harness.suites import SETUP_STREAM

    cases = [0, 1, SETUP_STREAM, 2 ** 64 - 1]

    def draws(gen):
        return repr((gen.uniform(size=3), gen.integers(0, 5, 7),
                     gen.integers(0, 2 ** 31, dtype=np.uint32), gen.normal(0, 1, 3)))

    assert [draws(gen) for gen in case_rngs(seed, cases)] == \
        [draws(case_rng(seed, idx)) for idx in cases]


@pytest.mark.parametrize("seed", [7, 183, 20240501])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_case_integers_are_the_generators_integers_row_for_row(seed, n):
    cases = range(3000)
    for k in (8, 9, 14):
        got = case_integers(seed, cases, n, k)
        want = np.array([case_rng(seed, idx).integers(0, n, k) for idx in cases])
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), k


@pytest.mark.parametrize("k", [2, 9])
def test_case_integers_redraw_the_rows_lemire_rejects(monkeypatch, k):
    # at n = 3 * 2**30 + 1, 2**32 mod n is 2**30 - 1, so a quarter of the
    # 32-bit words fall below Lemire's threshold and their rows are drawn by
    # Generator.integers itself
    n = 3 * 2 ** 30 + 1
    cases = range(1000, 4000)
    redrawn = []
    monkeypatch.setattr(rng_mod, "case_rng", lambda seed, idx: redrawn.append(idx)
                        or case_rng(seed, idx))
    got = case_integers(183, cases, n, k)
    assert 0 < len(redrawn) < len(cases)
    assert np.array_equal(got, [case_rng(183, idx).integers(0, n, k) for idx in cases])


def test_case_rng_keys_every_seed_exactly():
    # a negative seed is taken mod 2**64 as a whole word, not through a
    # float: distinct seeds and indices near 2**64 give distinct streams
    keys = [(-1, 0), (-3, 0), (0, 0), (2 ** 64 - 3, 0), (5, 2 ** 64 - 1), (5, 2 ** 64 - 2)]
    draws = [case_rng(seed, idx).uniform() for seed, idx in keys]
    assert draws[1] == draws[3]
    assert len(set(draws)) == len(keys) - 1


def test_unknown_suite_lists_available():
    with pytest.raises(ConfigurationError) as err:
        run_suite(SuiteConfig(suite="nope"))
    assert "classical-lybe" in str(err.value)


def test_single_worker_reports_byte_identical():
    cfg = SuiteConfig(suite="classical-lybe", samples=20, keep_cases=True)
    r1 = run_suite(cfg).to_dict()
    r2 = run_suite(cfg).to_dict()
    assert json.dumps(oracles.strip_timing(r1), sort_keys=True) == \
        json.dumps(oracles.strip_timing(r2), sort_keys=True)


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


def test_report_validation_checks_the_schema_once(monkeypatch):
    # the validator is built once; every call raises the error that
    # jsonschema.validate, which checks the schema against its metaschema
    # each time, raises
    import jsonschema
    from qlattice.harness import report

    data = run_suite(SuiteConfig(suite="classical-lybe", samples=5, keep_cases=True)).to_dict()
    broken = [dict(data, seed="x"), dict(data, cases=[{"case": "a"}]),
              {k: v for k, v in data.items() if k != "suite"}]
    want = []
    for bad in broken:
        with pytest.raises(jsonschema.ValidationError) as exc:
            jsonschema.validate(bad, report.load_schema())
        want.append((exc.value.message, list(exc.value.path)))
    report._validator.cache_clear()
    validate_report(data)
    checks = []
    monkeypatch.setattr(type(report._validator()), "check_schema",
                        classmethod(lambda cls, schema: checks.append(schema)))
    for bad, (message, path) in zip(broken, want):
        with pytest.raises(jsonschema.ValidationError) as exc:
            validate_report(bad)
        assert (exc.value.message, list(exc.value.path)) == (message, path)
    validate_report(data)
    assert checks == []


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
    # a suite without a block function, so the runner loops these cases
    monkeypatch.setitem(SUITES, "classical-lybe",
                        dataclasses.replace(suite, case=case, block=None))
    rep = run_suite(SuiteConfig(suite="classical-lybe", samples=6, perturb=perturb))
    assert math.isnan(rep.max_residual)
    assert not rep.passed
    assert not Report("x", {}, 1, 1e-6, math.inf, {"cases": 1}, 0.0,
                      negative_control=perturb).passed


def test_report_names_the_worst_case(monkeypatch, capsys, tmp_path):
    # the largest case residual, or the first NaN, which np.max reports too
    suite = SUITES["classical-lybe"]
    values = [0.1, 0.5, 0.2, math.nan, 0.9, math.nan]
    monkeypatch.setitem(SUITES, "classical-lybe", dataclasses.replace(
        suite, case=lambda cfg, idx: values[idx], block=None))
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


@pytest.mark.parametrize("box", [(0, 2, 2), (2, 2), (2, 2, 2, 2), (2, -1, 2), (2, 2.0, 2)],
                         ids=["zero side", "two sides", "four sides", "negative side",
                              "float side"])
def test_covariant_box_must_be_three_positive_ints(box):
    # a zero side leaves no cube to check, so the suite would pass on nothing
    with pytest.raises(ConfigurationError, match="box must be three positive ints"):
        run_suite(SuiteConfig(suite="covariant", box=box))


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
    st = oracles.affine_initial_state((1, 1, 1))
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


def _same_vertices(st, ref):
    """Whether two states hold the same keys in the same insertion order,
    at equal positions."""
    return (list(st.vertices) == list(ref.vertices)
            and np.array_equal(st.positions(), np.array(list(ref.vertices.values()))))


@pytest.mark.parametrize("mode", ["circular", "quadrilateral"])
@pytest.mark.parametrize("shape, seed", [((8, 8, 8), seed) for seed in (20240501, 7, 183, 5, 9, 12)]
                         + [((2, 5, 3), 20240501)])
def test_mesh_round_trip_matches_the_one_face_oracle_draw_for_draw(mode, shape, seed, tmp_path):
    # The sampler draws each anti-diagonal of the walls at once and replays
    # a face whose first draw fails alone.  In circular mode seeds 183, 5, 9
    # and 12 meet a face that no draw closes, which starts the data anew,
    # and seed 5 closes a face on a later draw.
    rng, ref_rng = case_rng(seed, 0), case_rng(seed, 0)
    st = geo.random_initial_state(shape, rng, mode=mode)
    ref = oracles.random_initial_state(shape, ref_rng, mode)
    assert _same_vertices(st, ref)
    assert rng.uniform() == ref_rng.uniform()
    geo.staircase_evolve(st)
    oracles.staircase_evolve(ref, None)
    assert _same_vertices(st, ref)
    mesh.export_obj(st, str(tmp_path / "new.obj"))
    oracles.export_obj(ref, str(tmp_path / "ref.obj"))
    text = (tmp_path / "ref.obj").read_text()
    assert (tmp_path / "new.obj").read_text() == text
    verts, faces = mesh.import_obj(str(tmp_path / "new.obj"))
    assert np.array_equal(verts, [ref.get(k) for k in sorted(ref.vertices)])
    assert faces.tolist() == [[int(v) - 1 for v in line.split()[1:]]
                              for line in text.splitlines() if line.startswith("f ")]


@pytest.mark.parametrize("mode", ["circular", "quadrilateral"])
@pytest.mark.parametrize("shape", [(2, 5, 3), (8, 8, 8)])
def test_staircase_matches_the_oracle_after_every_number_of_steps(mode, shape):
    start = geo.random_initial_state(shape, case_rng(20240501, 0), mode=mode)
    for steps in range(sum(shape) - 1):  # the last number of steps completes the box
        st, ref = (geo.LatticeState(shape, dict(start.vertices)) for _ in range(2))
        geo.staircase_evolve(st, steps=steps)
        assert _same_vertices(st, oracles.staircase_evolve(ref, steps))
    assert len(st.vertices) == math.prod(n + 1 for n in shape)


def test_mesh_round_trip_imports_no_masked_arrays(tmp_path):
    # np.unique's first call imports numpy.ma, which raises a process's peak
    # memory by 1.5 to 2 MB; the mesh round trip must not pull it in
    code = ("import sys\n"
            "from qlattice import geometry as geo\n"
            "from qlattice.harness import mesh\n"
            "from qlattice.harness.rng import case_rng\n"
            "st = geo.random_initial_state((3, 3, 3), case_rng(1, 0), mode='circular')\n"
            "geo.staircase_evolve(st)\n"
            "mesh.export_obj(st, sys.argv[1])\n"
            "mesh.import_obj(sys.argv[1])\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "m.obj")], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout == "False\n"


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


@pytest.mark.parametrize("text, message", [
    ('{"suite": "x"}', "'parameters' is a required property"),
    ("[1]", "[1] is not of type 'object'"),
    ("not json", "Expecting value: line 1 column 1 (char 0)"),
    (None, "[Errno 2] No such file or directory: '{path}'"),
])
def test_cli_report_prints_an_error_for_an_invalid_file(text, message, tmp_path, capsys):
    # one ERROR line and exit 1, as verify and evolve do, not a traceback
    path = tmp_path / "rep.json"
    if text is not None:
        path.write_text(text)
    message = message.format(path=path)
    assert main(["report", "--json", str(path)]) == 1
    assert capsys.readouterr().out == "ERROR %s: %s\n" % (path, message)


def test_fock_intertwine_map_relations_at_reported_cutoff():
    # case 1 checks the flip-map relations at the cutoff the report names,
    # on the same R as the intertwining check (case 0), at roundoff
    rep = run_suite(SuiteConfig(suite="fock-intertwine", cutoff=8, q=0.3, keep_cases=True))
    assert rep.parameters["cutoff"] == 8
    assert dict(rep.cases)[1] < 1e-15
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


@pytest.mark.parametrize("mode, kind, bent", [("circular", "concyclicity", 1),
                                              ("quadrilateral", "planarity", 0)])
def test_cli_evolve_prints_its_face_residual_and_non_convex_cubes(mode, kind, bent, tmp_path,
                                                                  capsys):
    # one face and one cube at a time: the largest residual over the known
    # faces and the cubes with a reflex corner; the default seed's circular
    # 3x3x3 lattice has one such cube
    assert main(["evolve", "--size", "3x3x3", "--mode", mode, "--out",
                 str(tmp_path / "m.obj")]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    st = geo.random_initial_state((3, 3, 3), case_rng(SuiteConfig.seed, 0), mode=mode)
    geo.staircase_evolve(st)
    residual = geo.concyclicity_residual if mode == "circular" else geo.planarity_residual
    worst = max(residual([st.get(m) for m in quad]) for quad in st.known_faces())
    assert sum(any(geo.extract_angles(f).reflex for f in oracles.hexahedron(st, c).faces())
               for c in np.ndindex(3, 3, 3)) == bent
    assert last.startswith("largest %s residual " % kind)
    assert float(last.split()[3]) == pytest.approx(worst, rel=1e-3)
    assert worst < 1e-12
    assert last.endswith("over the faces; cubes with a non-convex face: %d" % bent)


@pytest.mark.parametrize("failure", ["sampler", "flat lattice"])
def test_cli_evolve_reports_degenerate_data(failure, monkeypatch, tmp_path, capsys):
    def sampler(shape, rng, mode):
        if failure == "sampler":
            raise DegeneracyError("failed to sample admissible initial data")
        return oracles.affine_initial_state(shape, matrix=np.diag([1.0, 1.0, 0.0]))

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
    assert rm.fock_te_residual(rm.fock_te_gate(ext), 1, 0.3, 0.3)[0] < 1e-30


FOCK_REPORT_PINS = [
    ({"q": 0.3}, "5.3901923261472137e-45"),
    ({"q": 0.5}, "0.0"),
    ({"q": 0.7}, "5.958082064398265e-49"),
    ({"q": 0.3, "max_index": 1, "perturb": True}, "0.0029984920127668555"),
    ({"suite": "fock-intertwine", "cutoff": 5, "q": 0.3}, "2.220446049250313e-16"),
    ({"suite": "fock-intertwine", "cutoff": 5, "q": 0.3, "perturb": True},
     "0.04761904761904766"),
]


# (config at seed 7, repr of max_residual, worst_case) of the check and the
# control of every suite whose residual the flip map's formulas or the
# masked operator comparison produce
MAP_REPORT_PINS = [
    ({"suite": "classical-lybe"}, "1.1579626146840383e-13", 959),
    ({"suite": "classical-lybe", "perturb": True}, "11.926444799652213", 959),
    ({"suite": "classical-fte"}, "2.6201263381153694e-14", 57),
    ({"suite": "classical-fte", "perturb": True}, "0.5647810101992476", 83),
    ({"suite": "symplectic"}, "6.616929226765933e-14", 76),
    ({"suite": "symplectic", "perturb": True}, "1.749649003209443", 10),
    ({"suite": "covariant"}, "4.440892098500626e-16", 0),
    ({"suite": "covariant", "perturb": True}, "0.028921972922766548", 1),
    ({"suite": "fock-intertwine", "cutoff": 8, "q": 0.5}, "2.220446049250313e-16", 0),
    ({"suite": "fock-intertwine", "cutoff": 8, "q": 0.5, "perturb": True},
     "0.04761904761904767", 1),
    ({"suite": "cyclic-intertwine", "n_cyclic": 3}, "1.1961375382846007e-15", 3),
    ({"suite": "cyclic-intertwine", "n_cyclic": 3, "perturb": True},
     "0.04147235203796177", 2),
    # the operator checks at the sizes of the cyclic and fock benchmark steps
    ({"suite": "cyclic-intertwine", "n_cyclic": 5, "samples": 5}, "1.454794987596722e-15", 1),
    ({"suite": "cyclic-intertwine", "n_cyclic": 5, "samples": 5, "perturb": True},
     "0.032259312484672696", 2),
    ({"suite": "cyclic-intertwine", "n_cyclic": 7, "samples": 5}, "1.4567543769280398e-15", 4),
    ({"suite": "cyclic-intertwine", "n_cyclic": 7, "samples": 5, "perturb": True},
     "0.03140488884433752", 2),
    ({"suite": "fock-intertwine", "cutoff": 8, "q": 0.3}, "3.700743415417188e-16", 1),
    ({"suite": "fock-intertwine", "cutoff": 8, "q": 0.3, "perturb": True},
     "0.04761904761904766", 1),
    ({"suite": "fock-intertwine", "cutoff": 10, "q": 0.3}, "3.700743415417188e-16", 1),
    ({"suite": "fock-intertwine", "cutoff": 10, "q": 0.3, "perturb": True},
     "0.04761904761904766", 1),
    # cyclic-intertwine beyond the benchmark's sizes
    ({"suite": "cyclic-intertwine", "n_cyclic": 9, "samples": 3}, "1.1772054902195073e-15", 2),
    ({"suite": "cyclic-intertwine", "n_cyclic": 9, "samples": 3, "perturb": True},
     "0.030658158251655077", 2),
    ({"suite": "cyclic-intertwine", "n_cyclic": 11, "samples": 1}, "1.5122896881189582e-15", 0),
    ({"suite": "cyclic-intertwine", "n_cyclic": 11, "samples": 1, "perturb": True},
     "0.027540082502166337", 0),
]


@pytest.mark.parametrize("params, max_residual, worst_case", MAP_REPORT_PINS)
def test_map_reports_are_pinned_at_seed_7(params, max_residual, worst_case):
    rep = run_suite(SuiteConfig(seed=7, **params))
    assert (repr(rep.max_residual), rep.worst_case) == (max_residual, worst_case)


def _clear_fock_sums():
    # the cached R of the intertwining checks (fock-te blocks are summed anew
    # per run)
    from qlattice import qosc

    qosc.fock_r_sparse.cache_clear()


def _fock_report(params, **kw):
    # every report sums anew, so each worker count and context computes its own
    _clear_fock_sums()
    cfg = SuiteConfig(keep_cases=True, **{"suite": "fock-te", **params}, **kw)
    return json.dumps(oracles.strip_timing(run_suite(cfg).to_dict()), sort_keys=True)


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
    # each function that computes in Decimals rounds in a context of its
    # own, also when it is called outside a suite: the 52-digit fock-te
    # sums, and the elements of the double R, 7 of which take more digits
    from qlattice import qosc
    from qlattice import rmatrices as rm

    exts = np.array(list(itertools.product(range(2), repeat=12))[::7]).T
    terms = rm.fock_te_gate(exts)

    def values():
        rm.fock_element_mp.cache_clear()
        qosc.fock_r_sparse.cache_clear()
        reps, mask, r = qosc.fock_r_sparse(8, 0.3)
        return repr((rm.fock_element_mp(2, 1, 2, 1, 2, 1, 0.3),
                     [(shift, c.tolist()) for shift, c in r.terms.items()],
                     rm.fock_te_sides(terms, exts.shape[1], 0.7),
                     rm.fock_te_residual(terms, exts.shape[1], 0.3, 0.3).tolist(),
                     qosc.fock_intertwine_extended(8, 0.3),
                     qosc.map_operator_residuals(reps, r, eps=1, mask=mask)))

    want = values()
    for prec in (10, 200):
        with decimal.localcontext(decimal.Context(prec=prec)):
            assert values() == want


@pytest.mark.parametrize("cutoff, parent", [
    (5, (0.04738474283591223, 0.04761904761904762)),
    (8, (0.04738472754896897, 0.04761904761904762)),
])
def test_fock_intertwine_controls_read_the_50_digit_products(cutoff, parent):
    # the control bumps and shifts the double R; it reads what it read with
    # every product in 52-digit Decimals (the values pinned here), to 1e-12
    _clear_fock_sums()
    rep = run_suite(SuiteConfig(suite="fock-intertwine", cutoff=cutoff, q=0.3,
                                perturb=True, keep_cases=True))
    assert rep.passed
    got = [res for _, res in rep.cases]
    assert len(got) == 2 and all(abs(g - p) <= 1e-12 * p for g, p in zip(got, parent))


def test_fock_te_gates_each_block_once(monkeypatch):
    # the 729 cases at max_index 2, 27 rows each, share one gate call per
    # block of BLOCK_ROWS // 27 cases (20 blocks of up to 37), which sees only
    # the 4,743 charge-consistent tuples; the 64 at max_index 1, 8 rows each,
    # take one block.  Each block is summed in one fock_te_residual call over
    # all its tuples, which sums both sides of the check in one fock_te_sides
    # call and each side of the control in one of its own; a second q gates
    # again
    from qlattice import rmatrices as rm
    from qlattice.harness import suites

    big = -(-729 // (suites.BLOCK_ROWS // 27))
    small = -(-64 // (suites.BLOCK_ROWS // 8))

    gated, summed = [], {"residual": 0, "sides": 0}
    gate, residual, sides = rm.fock_te_gate, rm.fock_te_residual, rm.fock_te_sides

    def count(name, fn):
        return lambda *args: summed.update({name: summed[name] + 1}) or fn(*args)

    monkeypatch.setattr(rm, "fock_te_gate",
                        lambda exts: gated.append(exts.shape[1]) or gate(exts))
    monkeypatch.setattr(rm, "fock_te_residual", count("residual", residual))
    monkeypatch.setattr(rm, "fock_te_sides", count("sides", sides))
    _clear_fock_sums()
    run_suite(SuiteConfig(suite="fock-te", q=0.3, max_index=2))
    assert (big, small) == (20, 1) and len(gated) == big and sum(gated) == 4743
    assert summed == {"residual": big, "sides": big}
    run_suite(SuiteConfig(suite="fock-te", q=0.7, max_index=2))
    assert len(gated) == 2 * big and summed == {"residual": 2 * big, "sides": 2 * big}
    run_suite(SuiteConfig(suite="fock-te", q=0.3, max_index=2, perturb=True))
    assert len(gated) == 3 * big and summed == {"residual": 3 * big, "sides": 4 * big}
    run_suite(SuiteConfig(suite="fock-te", q=0.3, max_index=1, perturb=True))
    n = 3 * big + small
    assert len(gated) == n and summed == {"residual": n, "sides": 4 * big + 2 * small}


def test_fock_te_residual_cache_keys_on_q_and_perturb():
    # one process, no cache cleared between runs (the element cache keys on
    # q; the blocks keep no sums): each run reads its own residuals, as
    # pinned and as the per-tuple sweep reads them
    from test_rmatrices import _fock_te_case_oracle

    _clear_fock_sums()
    q3, _, q7, control = FOCK_REPORT_PINS[:4]
    for params, max_residual in (q3, q7, control, q3):
        cfg = SuiteConfig(suite="fock-te", keep_cases=True, **params)
        rep = run_suite(cfg)
        assert repr(rep.max_residual) == max_residual
        assert [repr(res) for _, res in rep.cases] == \
            [repr(_fock_te_case_oracle(cfg, idx)) for idx in range(len(rep.cases))]


@pytest.mark.parametrize("idx", [40, 728])
def test_fock_te_case_on_its_own_reads_its_sweep_value(idx, monkeypatch):
    # a case run alone gates and sums only its own tuples, in one block of
    # one case, and reads what it reads in the full sweep
    from qlattice import rmatrices as rm

    cfg = SuiteConfig(suite="fock-te", q=0.3, max_index=2)
    gated, gate = [], rm.fock_te_gate
    monkeypatch.setattr(rm, "fock_te_gate", lambda exts: gated.append(exts) or gate(exts))
    alone = SUITES["fock-te"].case(cfg, idx)
    outer = [idx // 3 ** k % 3 for k in range(6)]
    assert len(gated) == 1 and (gated[0][:6].T == outer).all()
    swept = dict(run_suite(dataclasses.replace(cfg, keep_cases=True)).cases)[idx]
    assert type(alone) is float and repr(alone) == repr(swept)


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
    suites._cyclic_vertex_setup.cache_clear()
    rep = run_suite(SuiteConfig(suite="cyclic-cross-form", n_cyclic=2))
    suites._cyclic_vertex_setup.cache_clear()
    assert rep.passed and rep.extras["sector_scalar_fit"]
    assert len(built) == 1


@pytest.mark.parametrize("params", [
    {"suite": "cyclic-te-irc", "n_cyclic": 2},
    {"suite": "cyclic-te-irc", "n_cyclic": 3, "samples": 40},
    {"suite": "cyclic-te-irc", "n_cyclic": 4, "samples": 40},
    {"suite": "cyclic-te-irc", "n_cyclic": 3, "samples": 20, "perturb": True},
    {"suite": "cyclic-cross-form", "n_cyclic": 2},
    {"suite": "cyclic-cross-form", "n_cyclic": 3, "samples": 40},
    {"suite": "cyclic-cross-form", "n_cyclic": 3, "samples": 20, "perturb": True},
    {"suite": "fock-te", "max_index": 1},
    {"suite": "fock-te", "max_index": 2, "q": 0.3},
    {"suite": "fock-te", "max_index": 1, "q": 0.3, "perturb": True},
    {"suite": "classical-lybe", "samples": 40},
    {"suite": "classical-lybe", "samples": 5, "perturb": True},
    # eps = +1 for cases 0-19 and -1 for 20-39: the branch changes inside a
    # block of 7 and inside the default block of all 40 cases
    {"suite": "classical-fte", "samples": 20},
    {"suite": "classical-fte", "samples": 3, "perturb": True},
    {"suite": "symplectic", "samples": 20},
    {"suite": "symplectic", "samples": 5, "perturb": True},
    {"suite": "geometry-flip", "samples": 20},
    {"suite": "geometry-flip", "samples": 3, "perturb": True},
    {"suite": "miquel", "samples": 20},
    {"suite": "miquel", "samples": 3, "perturb": True},
    {"suite": "dodecahedron", "samples": 20},
    {"suite": "dodecahedron", "samples": 3, "perturb": True},
])
def test_block_suite_reports_do_not_depend_on_blocks(params, monkeypatch):
    # a block suite's report is the same at every block size and worker
    # count, and its block of one reads each case's residual: blocks of 1 and
    # 7 cases, and of the default budget
    from qlattice.harness import suites

    cfg = SuiteConfig(keep_cases=True, **params)
    rows = SUITES[cfg.suite].rows(cfg)
    assert suites.BLOCK_ROWS == 1024  # the default is one of the budgets below
    reports = set()
    for budget in (rows, 7 * rows, 1024):
        monkeypatch.setattr(suites, "BLOCK_ROWS", budget)
        for workers in (1, 2):
            rep = run_suite(dataclasses.replace(cfg, workers=workers))
            reports.add(json.dumps(oracles.strip_timing(rep.to_dict()), sort_keys=True))
    assert len(reports) == 1
    assert [repr(res) for _, res in rep.cases] == \
        [repr(SUITES[cfg.suite].case(cfg, idx)) for idx, _ in rep.cases]


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs, and a process pool that maps its blocks in this process:
    the max_workers of every pool opened, in order.  Starts no process."""
    import concurrent.futures
    import os

    opened = []

    class InProcessPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return opened


def _record_blocks(monkeypatch, name):
    """The cases of every block that suite name's block function gets."""
    blocks, suite = [], SUITES[name]
    monkeypatch.setitem(SUITES, name, dataclasses.replace(
        suite, block=lambda cfg, cases: blocks.append(cases) or suite.block(cfg, cases)))
    return blocks


def test_blocks_follow_the_row_budget(monkeypatch, two_cpus):
    # BLOCK_ROWS stacked rows per block: 27 per fock-te case at max_index 2,
    # 128 per cyclic-te-irc case at N = 2 and 1 per sampled classical case
    from qlattice import rmatrices as rm

    fock = _record_blocks(monkeypatch, "fock-te")
    _clear_fock_sums()
    run_suite(SuiteConfig(suite="fock-te", q=0.3, max_index=2))
    assert [len(b) for b in fock] == [37] * 19 + [729 - 19 * 37]

    shapes, irc = [], rm.irc_te_residual_cyclic
    monkeypatch.setattr(rm, "irc_te_residual_cyclic",
                        lambda tables, ext: shapes.append(ext.shape) or irc(tables, ext))
    run_suite(SuiteConfig(suite="cyclic-te-irc", n_cyclic=2))
    assert shapes == [(8, 128, 14)] * 16

    lybe = _record_blocks(monkeypatch, "classical-lybe")
    cfg = SuiteConfig(suite="classical-lybe", samples=1000, keep_cases=True)
    one = run_suite(cfg)
    assert lybe == [range(1000)] and two_cpus == []
    two = run_suite(dataclasses.replace(cfg, workers=2))
    assert lybe[1:] == [range(500), range(500, 1000)] and two_cpus == [2]
    assert oracles.strip_timing(two.to_dict()) == oracles.strip_timing(one.to_dict())


def test_the_pool_never_exceeds_the_cpus(two_cpus):
    # workers beyond the CPUs start no more processes and change no case
    cfg = SuiteConfig(suite="classical-lybe", samples=40, keep_cases=True)
    wide = run_suite(dataclasses.replace(cfg, workers=64))
    assert two_cpus and max(two_cpus) <= 2
    assert oracles.strip_timing(wide.to_dict()) == \
        oracles.strip_timing(run_suite(cfg).to_dict())


# (suite, seed, control, repr of max_residual, worst_case) of the six
# classical suites with blocks, at their default samples; every value read
# before the blocks sampled in rounds and dodecahedron ran on stacks
CLASSICAL_BLOCK_PINS = [
    ("classical-lybe", 7, False, "1.1579626146840383e-13", 959),
    ("classical-lybe", 7, True, "11.926444799652213", 959),
    ("classical-lybe", 20240501, False, "3.659295089164516e-13", 624),
    ("classical-lybe", 20240501, True, "17.98193050904998", 624),
    ("classical-lybe", 183, False, "1.4603029896420594e-10", 393),
    ("classical-lybe", 183, True, "5033.6472656343385", 393),
    ("classical-fte", 7, False, "2.6201263381153694e-14", 57),
    ("classical-fte", 7, True, "0.5647810101992476", 83),
    ("classical-fte", 20240501, False, "3.730349362740526e-13", 35),
    ("classical-fte", 20240501, True, "19.777320321810656", 35),
    ("classical-fte", 183, False, "6.252776074688882e-13", 68),
    # the control at seed 183 aborts: test_classical_fte_control_still_aborts_at_seed_183
    ("symplectic", 7, False, "6.616929226765933e-14", 76),
    ("symplectic", 7, True, "1.749649003209443", 10),
    ("symplectic", 20240501, False, "2.0650148258027912e-14", 94),
    ("symplectic", 20240501, True, "1.5641740277872764", 94),
    ("symplectic", 183, False, "2.8199664825478976e-14", 1),
    ("symplectic", 183, True, "1.389106521816139", 1),
    ("geometry-flip", 7, False, "1.88411095042053e-15", 2),
    ("geometry-flip", 7, True, "0.008297532219528713", 28),
    ("geometry-flip", 20240501, False, "2.220446049250313e-15", 9),
    ("geometry-flip", 20240501, True, "0.007916801625888663", 24),
    ("geometry-flip", 183, False, "2.0137621733714643e-15", 7),
    ("geometry-flip", 183, True, "0.00644620936662294", 21),
    ("miquel", 7, False, "2.5535129566378585e-15", 43),
    ("miquel", 7, True, "0.007759352485415365", 40),
    ("miquel", 20240501, False, "2.6645352591003765e-15", 7),
    ("miquel", 20240501, True, "0.005995391847059203", 47),
    ("miquel", 183, False, "3.774758283725542e-15", 20),
    ("miquel", 183, True, "0.008997785593510008", 40),
    ("dodecahedron", 7, False, "2.7555010819726127e-15", 21),
    ("dodecahedron", 7, True, "0.28390834121502534", 15),
    ("dodecahedron", 20240501, False, "2.2261632763337994e-15", 16),
    ("dodecahedron", 20240501, True, "0.3228207323291809", 18),
    ("dodecahedron", 183, False, "3.1046568547376115e-15", 7),
    ("dodecahedron", 183, True, "0.018765140923210927", 2),
]


@pytest.mark.parametrize("suite, seed, perturb, max_residual, worst_case", CLASSICAL_BLOCK_PINS)
def test_classical_block_reports_are_pinned(suite, seed, perturb, max_residual, worst_case):
    rep = run_suite(SuiteConfig(suite=suite, seed=seed, perturb=perturb))
    assert (repr(rep.max_residual), rep.worst_case) == (max_residual, worst_case)


def test_classical_fte_control_still_aborts_at_seed_183():
    # ROADMAP item 8: the control's a1 x 1.01 leaves the real domain at case
    # 68; its block raises the error the case raises alone
    message = ("domain exit at flip 2 on faces (2, 4, 6): negative radicand "
               "-0.001273133103135482 in real mode")
    cfg = SuiteConfig(suite="classical-fte", seed=183, perturb=True)
    for run in (lambda: SUITES[cfg.suite].case(cfg, 68), lambda: run_suite(cfg)):
        with pytest.raises(DomainError) as exc:
            run()
        assert str(exc.value) == message


def test_stack_map_drops_every_row_a_guard_flags_in_one_step():
    # one guard flags rows 2, 5 and 9 of a 12-row stack: they are dropped
    # together, so fn runs twice, not four times, and each kept row reads
    # what it reads mapped alone.  The guard's error is kept for row 2, the
    # first it flags, whose error alone it is
    from qlattice import classical_map as cm
    from qlattice.harness import suites

    calls = []

    def fn(rows):
        calls.append(rows.tolist())
        cm._guard(np.isin(rows, [2, 5, 9]), DomainError, "stand-in guard at row %d", rows)
        return np.sin(rows * 0.7 + 0.1).tolist()

    kept, res, errors = suites._stack_map(fn, range(12))
    assert len(calls) == 2 and calls[1] == [0, 1, 3, 4, 6, 7, 8, 10, 11]
    assert kept.tolist() == calls[1]
    assert res == [fn(np.array([row]))[0] for row in kept]
    with pytest.raises(DomainError) as alone:
        fn(np.array([2]))
    assert list(errors) == [2] and str(errors[2]) == str(alone.value) == "stand-in guard at row 2"


@pytest.mark.parametrize("rejected", [True, False])
def test_sample_raises_the_error_of_the_lowest_failing_row(rejected):
    # four rows, each drawing from its own generator: the value of row 3
    # fails a guard in round 1, and row 1 (with rejected) is rejected at
    # every attempt.  The error of the lower failing row raises: row 1's
    # cap error, else row 3's own guard error
    from qlattice import classical_map as cm
    from qlattice.harness import suites

    def stream(row):
        rng = np.random.default_rng(row)
        return [rng.uniform() for _ in range(5)]

    never, bad = set(stream(1)) if rejected else set(), stream(3)[0]

    def attempt(u):
        accepted = np.flatnonzero([x not in never for x in u])
        good = u[accepted]

        def value(at):
            cm._guard(good[at] == bad, DomainError, "value %r fails", good[at])
            return good[at].tolist()

        return accepted, value

    cap_error = DomainError("rejected in 5 attempts")
    with pytest.raises(DomainError) as exc:
        suites._sample([np.random.default_rng(row) for row in range(4)],
                       lambda rng: (rng.uniform(),), 5, attempt, cap_error)
    assert exc.value is cap_error if rejected else str(exc.value) == "value %r fails" % bad


def test_symplectic_block_maps_a_round_once_per_failing_guard(monkeypatch):
    # within a round, symplectic_admissible runs once per guard that fails
    # on its stack and once more: no guard, by its call path, fails twice
    from qlattice import classical_map as cm
    from qlattice.harness import suites

    admissible = cm.symplectic_admissible
    rounds = [[]]  # per round, the call path of each guard that failed

    def recording(x):
        try:
            out = admissible(x)
        except DomainError as exc:
            rounds[-1].append(tuple((f.filename, f.lineno)
                                    for f in traceback.extract_tb(exc.__traceback__)))
            raise
        rounds.append([])
        return out

    cfg = SuiteConfig(suite="symplectic", samples=32)
    with monkeypatch.context() as patch:
        patch.setattr(cm, "symplectic_admissible", recording)
        block = suites._symplectic_block(cfg, range(32))
    assert block == [SUITES[cfg.suite].case(cfg, idx) for idx in range(32)]
    failed = rounds[:-1]
    assert len(failed) >= 3 and any(failed)
    assert all(len(set(paths)) == len(paths) for paths in failed)


def _first_attempt_rejected(cfg, idx):
    """Whether case idx's first sampling attempt fails, from the samplers'
    own draws and attempts."""
    from qlattice import classical_map as cm

    rng = case_rng(cfg.seed, idx)
    try:
        if cfg.suite == "classical-lybe":
            cm.map_r123(*cm.triples(cm.draw_angles(rng, 3)))
        elif cfg.suite == "classical-fte":
            cm.fte_sides(cm.triples(cm.draw_angles(rng, 6)), 1 if idx < cfg.samples else -1)
        elif cfg.suite == "symplectic":
            return not cm.symplectic_admissible(cm.draw_symplectic(rng))
        elif cfg.suite == "geometry-flip":
            return not geo.quad_attempt(*geo.quad_draws(rng))[1]
        else:
            return not geo.circular_attempt(*geo.circular_draws(rng))[1]
    except (DomainError, DegeneracyError):
        return True
    return False


def _run_recording_retries(cfg, monkeypatch):
    """The report of cfg and the cases its blocks sampled alone, each from
    a stream that case_rng draws anew."""
    from qlattice.harness import suites

    retried = []
    monkeypatch.setattr(suites, "case_rng",
                        lambda seed, idx: retried.append(idx) or case_rng(seed, idx))
    return run_suite(cfg), retried


@pytest.mark.parametrize("suite, samples", [
    ("classical-lybe", 64), ("classical-fte", 20), ("symplectic", 32), ("miquel", 100)])
def test_blocks_retry_rejected_first_attempts_as_one_case(suite, samples, monkeypatch):
    # the blocks draw every later attempt in rounds of stacks, each case's
    # stream resumed: no case is sampled alone, and every row reads
    # case(cfg, idx).  At seeds 7 and 20240501 the rejected cases here are
    # 10 and 4 of 64, 9 and 7 of 40, 17 and 17 of 32, and 1 and 2 of 100.
    for seed in (7, 20240501):
        cfg = SuiteConfig(suite=suite, seed=seed, samples=samples, keep_cases=True)
        with monkeypatch.context() as patch:
            rep, retried = _run_recording_retries(cfg, patch)
        rejected = [idx for idx, _ in rep.cases if _first_attempt_rejected(cfg, idx)]
        assert rejected and retried == []
        assert [repr(res) for _, res in rep.cases] == \
            [repr(SUITES[suite].case(cfg, idx)) for idx, _ in rep.cases]


@pytest.mark.parametrize("seed", [7, 183])
def test_miquel_rows_are_the_hexahedra_sampled_one_at_a_time(seed):
    # at these seeds one case of 50 has its first attempt rejected; every
    # row, that one's too, reads the hexahedron random_circular_hexahedron
    # samples alone from the case's stream
    cfg = SuiteConfig(suite="miquel", seed=seed, keep_cases=True)
    rep = run_suite(cfg)
    assert sum(_first_attempt_rejected(cfg, idx) for idx, _ in rep.cases) == 1
    assert [repr(res) for _, res in rep.cases] == [
        repr(float(geo.miquel_check(geo.random_circular_hexahedron(case_rng(seed, idx)))
                   .max_residual))
        for idx, _ in rep.cases]


@pytest.mark.parametrize("seed", [7, 183, 20240501])
@pytest.mark.parametrize("perturb", [False, True])
def test_dodecahedron_rows_are_the_surfaces_sampled_one_at_a_time(seed, perturb):
    # every row, check and control, reads dodecahedron_consistency on the
    # surface the scalar oracle samples alone from the case's stream
    cfg = SuiteConfig(suite="dodecahedron", seed=seed, perturb=perturb, keep_cases=True)
    rep = run_suite(cfg)
    probe = np.array([1e-2, 0.0, 0.0]) if perturb else None
    assert [repr(res) for _, res in rep.cases] == [repr(geo.dodecahedron_consistency(
        oracles.dodeca_initial_surface(oracles.dodeca_vertices_from_projective(
            case_rng(seed, idx), dim=3 if perturb else 4)), perturb=probe))
        for idx, _ in rep.cases]


@pytest.mark.parametrize("perturb", [False, True])
def test_a_dodecahedron_case_whose_first_deformation_is_near_a_pole_reads_its_next(
        perturb, monkeypatch):
    # a deformation near a pole is rare (under 1e-4 of them), so a stand-in
    # marks case 3's first deformation, known by its t, as near a pole.
    # The block draws the case's second deformation in its next round,
    # where the case's stream was left, and its row reads the oracle's
    # surface drawn from the stream with the first deformation skipped;
    # every other row reads the oracle's surface as drawn
    cfg = SuiteConfig(suite="dodecahedron", samples=6, perturb=perturb, keep_cases=True)
    rng = case_rng(cfg.seed, 3)
    marked = geo.projective_draws(rng)[1][0]
    attempt, seen = geo.projective_vertices, []

    def stand_in(a, t, c):
        verts, admissible = attempt(a, t, c)
        near = t[..., 0] == marked
        seen.append(int(near.sum()))
        return verts, admissible & ~near

    monkeypatch.setattr(geo, "projective_vertices", stand_in)
    rep = run_suite(cfg)
    assert seen == [1, 0]
    probe = np.array([1e-2, 0.0, 0.0]) if perturb else None
    dim = 3 if perturb else 4
    want = []
    for idx, _ in rep.cases:
        stream = rng if idx == 3 else case_rng(cfg.seed, idx)
        want.append(repr(geo.dodecahedron_consistency(oracles.dodeca_initial_surface(
            oracles.dodeca_vertices_from_projective(stream, dim=dim)), perturb=probe)))
    assert [repr(res) for _, res in rep.cases] == want


@pytest.mark.parametrize("suite", [
    "classical-lybe", "classical-fte", "symplectic", "miquel", "dodecahedron"])
def test_a_case_rejected_at_every_attempt_raises_its_samplers_error(suite, monkeypatch):
    # a stand-in rejects every attempt of case 3, which it knows by a key
    # of each of the cap attempts of the case's stream: the first face's k,
    # on which the stand-in map leaves the real domain, x0's direction, on
    # which the stand-in circular attempt is not accepted, or t, on which
    # the stand-in deformation is near a pole.  The block's rounds reach
    # the sampler's cap, each drawing case 3's next attempt where its
    # stream was left, so the case draws each of its cap attempts once (not
    # its k - 1 earlier ones again in round k, cap (cap + 1) / 2 draws).
    # The block raises the sampler's error, of its type and text, that
    # names the cap, which case 3 raises alone
    from qlattice import classical_map as cm

    def first_k(d):
        return cm.triples(d)[0].k

    classical = (DomainError, "could not sample", "attempts")
    cap, module, name, args, key, (error, prefix, unit) = {
        "classical-lybe": (cm.FRONT_ATTEMPTS, cm, "draw_angles", (3,), first_k, classical),
        "classical-fte": (cm.SIX_ATTEMPTS, cm, "draw_angles", (6,), first_k, classical),
        "symplectic": (cm.SYMPLECTIC_ATTEMPTS, cm, "draw_symplectic", (), first_k, classical),
        "miquel": (geo.CIRCULAR_ATTEMPTS, geo, "circular_draws", (),
                   lambda d: np.asarray(d[0])[..., 0],
                   (DegeneracyError, "failed to sample a circular hexahedron", "attempts")),
        "dodecahedron": (geo.PROJECTIVE_DRAWS, geo, "projective_draws", (),
                         lambda d: np.asarray(d[1])[..., 0],
                         (DegeneracyError, "no projective deformation", "draws")),
    }[suite]
    cfg = SuiteConfig(suite=suite, samples=6)
    draw = getattr(module, name)
    rng = case_rng(cfg.seed, 3)
    marked = [key(draw(rng, *args)) for _ in range(cap)]
    drawn = []

    def counting(rng, *args):
        out = draw(rng, *args)
        if key(out) in marked:
            drawn.append(out)
        return out

    if module is cm:
        target, flip = "map_r123", cm.map_r123

        def stand_in(t1, t2, t3, eps=1):
            cm._guard(np.isin(t1.k, marked), DomainError, "stand-in rejection")
            return flip(t1, t2, t3, eps=eps)
    else:
        target = {"miquel": "circular_attempt", "dodecahedron": "projective_vertices"}[suite]
        attempt = getattr(geo, target)

        def stand_in(*draws):
            out, accepted = attempt(*draws)
            return out, accepted & ~np.isin(key(draws), marked)

    monkeypatch.setattr(module, name, counting)
    monkeypatch.setattr(module, target, stand_in)
    with pytest.raises(error) as blocked:
        run_suite(cfg)
    assert len(drawn) == cap
    with pytest.raises(error) as alone:
        SUITES[suite].case(cfg, 3)
    assert str(alone.value).startswith(prefix)
    assert str(alone.value).endswith(" in %d %s" % (cap, unit))
    assert (type(blocked.value), str(blocked.value)) == (type(alone.value), str(alone.value))
    if suite == "miquel":
        # the one-at-a-time sampler gives up the same way
        with pytest.raises(DegeneracyError) as scalar:
            geo.random_circular_hexahedron(case_rng(cfg.seed, 3))
        assert str(scalar.value) == str(alone.value)


def test_geometry_flip_block_drops_and_retries_failed_first_attempts(monkeypatch):
    # no first attempt of a quadrilateral hexahedron failed in the first 1,500
    # cases at seed 20240501, so a stand-in attempt raises on case 3's first
    # draws, as a degenerate flip does, and rejects case 9's.  Both draw
    # their second attempt in the block's second round, and no case runs
    # alone
    cfg = SuiteConfig(suite="geometry-flip", samples=20, keep_cases=True)
    plain = run_suite(cfg)
    first_x0 = {idx: geo.quad_draws(case_rng(cfg.seed, idx))[0][0] for idx in (3, 9)}
    attempt = geo.quad_attempt

    def stand_in(offsets, coefficients):
        h, accepted = attempt(offsets, coefficients)
        raised, rejected = (np.all(np.asarray(offsets)[..., 0, :] == first_x0[idx], axis=-1)
                            for idx in (3, 9))
        if raised.any():
            raise DegeneracyError("stand-in", index=np.unravel_index(np.argmax(raised),
                                                                     raised.shape),
                                  flags=raised)
        return h, accepted & ~rejected

    monkeypatch.setattr(geo, "quad_attempt", stand_in)
    rep, retried = _run_recording_retries(cfg, monkeypatch)
    assert retried == []
    assert [repr(res) for _, res in rep.cases] == \
        [repr(SUITES[cfg.suite].case(cfg, idx)) for idx, _ in rep.cases]
    changed = [idx for (idx, res), (_, old) in zip(rep.cases, plain.cases) if res != old]
    assert changed == [3, 9]


def test_dodecahedron_flips_a_block_as_one_stack(monkeypatch):
    # four hex_flip calls per block, each on the (2, B) stack of both
    # dissections of every case; the 40 cases take one block
    shapes, flip = [], geo.hex_flip
    monkeypatch.setattr(geo, "hex_flip", lambda *x: shapes.append(x[0].shape[:-1]) or flip(*x))
    rep = run_suite(SuiteConfig(suite="dodecahedron", samples=40))
    assert rep.passed
    assert shapes == [(2, 40)] * 4


def test_a_degenerate_dodecahedron_case_raises_its_own_error_through_the_block(monkeypatch):
    # a stand-in makes case 5's surface degenerate at the first flip of
    # dissection A: its block runs case by case, and the suite raises the
    # error the case raises alone
    cfg = SuiteConfig(suite="dodecahedron", samples=10)
    vertices = geo.projective_vertices
    t5 = geo.projective_draws(case_rng(cfg.seed, 5))[1]

    def stand_in(a, t, c):
        verts, admissible = vertices(a, t, c)
        at = (t == t5).all(axis=-1)
        verts[at, 2] = 2 * verts[at, 4] - verts[at, 6]
        return verts, admissible

    monkeypatch.setattr(geo, "projective_vertices", stand_in)
    message = "dissection A flip 0 degenerate: plane 0 is degenerate"
    with pytest.raises(DegeneracyError, match=message):
        SUITES[cfg.suite].case(cfg, 5)
    with pytest.raises(DegeneracyError, match=message):
        run_suite(cfg)


def test_classical_lybe_still_fails_at_seed_183_through_the_block():
    # ROADMAP item 6: case 393 sits near the k2' = 0 singularity; the block
    # reads what the case read alone, and the check keeps its tolerance
    rep = run_suite(SuiteConfig(suite="classical-lybe", seed=183))
    assert (repr(rep.max_residual), rep.worst_case) == ("1.4603029896420594e-10", 393)
    assert not rep.passed


def test_cyclic_te_block_rows_match_one_case_calls():
    # rows of one (B, 14) call equal (1, 14) calls bit for bit, so the suite's
    # block and one-case paths agree at every block size
    from qlattice import rmatrices as rm
    from qlattice.harness import suites

    tables = suites._cyclic_te_setup(20240501, 3)
    ext = np.random.default_rng(5).integers(0, 3, (200, 14))
    block = rm.irc_te_residual_cyclic(tables, ext)
    rows = [rm.irc_te_residual_cyclic(tables, row[None])[0] for row in ext]
    assert block.shape == (200,) and block.tolist() == [float(r) for r in rows]


@pytest.mark.parametrize("n, floor", [(3, 0.866), (5, 0.951)])
@pytest.mark.parametrize("seed", [1, 2, 7, 20240501])
def test_cross_form_control_corrupts_every_case(n, floor, seed):
    # q^(E+1) in place of the equivalence factor q^E differs from it by the
    # phase q, also where q^E = 1, so no control case reads the check's value
    rep = run_suite(SuiteConfig(suite="cyclic-cross-form", n_cyclic=n, samples=50,
                                seed=seed, perturb=True, keep_cases=True))
    assert rep.passed and min(res for _, res in rep.cases) >= floor


def test_cli_cross_form_control_fails_the_check_at_seed_1(capsys):
    # dropping q^E left all five cases at roundoff here (9.3e-17)
    assert main(["verify", "cyclic-cross-form", "--N", "3", "--samples", "5",
                 "--perturb", "--seed", "1"]) == 0
    assert capsys.readouterr().out.split()[1] == "PASS"


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
    reports = [json.dumps(oracles.strip_timing(run_suite(SuiteConfig(
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
    reports = [json.dumps(oracles.strip_timing(run_suite(SuiteConfig(
        workers=workers, keep_cases=True, **params)).to_dict()), sort_keys=True)
        for workers in (1, 2)]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("params", [
    {"suite": "classical-lybe", "samples": 20},
    {"suite": "classical-lybe", "samples": 5, "perturb": True},
    {"suite": "classical-fte", "samples": 5},
    {"suite": "classical-fte", "samples": 3, "perturb": True},
    {"suite": "symplectic", "samples": 10},
    {"suite": "symplectic", "samples": 3, "perturb": True},
    {"suite": "covariant", "samples": 2, "box": (3, 3, 3)},
    {"suite": "covariant", "samples": 1, "box": (3, 3, 3), "perturb": True},
])
def test_classical_reports_do_not_depend_on_worker_count(params):
    reports = [json.dumps(oracles.strip_timing(run_suite(SuiteConfig(
        workers=workers, keep_cases=True, **params)).to_dict()), sort_keys=True)
        for workers in (1, 2)]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("params", [
    {"suite": "modular-specfun", "samples": 3},
    {"suite": "modular-specfun", "samples": 2, "perturb": True},
    {"suite": "modular-te-irc", "samples": 1, "b_arg": 0.5},
])
def test_modular_reports_do_not_depend_on_worker_count(params):
    reports = [json.dumps(oracles.strip_timing(run_suite(SuiteConfig(
        workers=workers, keep_cases=True, **params)).to_dict()), sort_keys=True)
        for workers in (1, 2)]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("n", [2, 4])
def test_cyclic_te_vertex_rejects_even_n(n):
    with pytest.raises(ConfigurationError, match="odd N"):
        run_suite(SuiteConfig(suite="cyclic-te-vertex", n_cyclic=n))
    assert main(["verify", "cyclic-te-vertex", "--N", str(n)]) == 1


@pytest.mark.parametrize("n", [2, 4, 6])
def test_cyclic_intertwine_rejects_even_n(n):
    # the suite intertwines the vertex-form R, which is not a function on Z_N
    # for even N: run anyway, three samples read 1.17, 1.29 and 1.28 at
    # N = 2, 4 and 6 (1e-15 at odd N)
    with pytest.raises(ConfigurationError, match="cyclic-intertwine needs odd N"):
        run_suite(SuiteConfig(suite="cyclic-intertwine", n_cyclic=n))
    assert main(["verify", "cyclic-intertwine", "--N", str(n), "--samples", "3"]) == 1


def test_cyclic_te_vertex_control_clears_tolerance():
    # a 5% phase per index step on the fourth phi table of R356
    plain = run_suite(SuiteConfig(suite="cyclic-te-vertex", n_cyclic=3, samples=200))
    bad = run_suite(SuiteConfig(suite="cyclic-te-vertex", n_cyclic=3, samples=200,
                                perturb=True))
    assert plain.passed and plain.max_residual < 1e-12
    assert bad.passed and bad.max_residual > 1e6 * bad.tolerance
