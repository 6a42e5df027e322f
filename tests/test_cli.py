import argparse
import csv
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from isomlab import cli
from isomlab.cli import main
from isomlab.geometry import DIRECTION_TOL, stokes_ray_directions, wall_hits


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture
def system_file(tmp_path):
    return write_json(
        tmp_path / "sys.json",
        {
            "n": 2,
            "u": [[0.0, 0.0], [1.0, 0.0]],
            "A": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        },
    )


@pytest.fixture
def generic_system_file(tmp_path):
    return write_json(
        tmp_path / "gen.json",
        {
            "u": [[0.0, 0.0], [1.0, 0.0]],
            "A": [[[0.2, 0.0], [1.0, 0.0]], [[0.7, 0.0], [-0.4, 0.0]]],
        },
    )


@pytest.fixture
def coalescence_file(tmp_path):
    # acceptance criterion 7's A0 at u^C = [0, 0, 1]
    return write_json(
        tmp_path / "co.json",
        {
            "u": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
            "A": [
                [[0.1, 0.0], [0.0, 0.0], [0.06, 0.0]],
                [[0.0, 0.0], [0.1, 0.0], [0.09, 0.0]],
                [[0.075, 0.0], [-0.05, 0.0], [0.45, 0.0]],
            ],
        },
    )


@pytest.fixture
def fuchsian_file(tmp_path):
    # diagonalizable residues keep the endpoint spectrum comparison
    # well-conditioned
    A1 = [[[0.25, 0.0], [0.5, 0.0]], [[0.1, 0.0], [-0.25, 0.0]]]
    A2 = [[[0.1, 0.0], [0.0, 0.0]], [[0.3, 0.0], [-0.2, 0.0]]]
    A3 = [[[-0.35, 0.0], [-0.5, 0.0]], [[-0.4, 0.0], [0.45, 0.0]]]
    return write_json(
        tmp_path / "fuchs.json",
        {
            "fuchsian": {
                "poles": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                "residues": [A1, A2, A3],
            }
        },
    )


def _subcommands():
    """The subparser of every subcommand, by name."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def strict_json(text):
    """Parse as strict JSON, which has no NaN or Infinity (Python's json
    module reads and writes both unless told not to)."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def run(capsys, argv):
    """Exit code, stdout and stderr of one CLI call; every report it prints
    must be strict JSON."""
    code = main(argv)
    out = capsys.readouterr()
    if out.out:
        strict_json(out.out)
    return code, out.out, out.err


class TestFormalCommand:
    def test_worked_example(self, capsys, system_file):
        code, out, _ = run(capsys, ["formal", "--system", system_file, "--order", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["F"][0] == [[[1.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [-1.0, 0.0]]]
        assert doc["F"][1] == [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]

    def test_mode_flag_is_a_usage_error(self, capsys, generic_system_file):
        # one recursion, so no --mode to choose it by; the report has no "mode"
        with pytest.raises(SystemExit) as exc:
            main(["formal", "--system", generic_system_file, "--mode", "generic"])
        assert exc.value.code == 2 and "--mode" in capsys.readouterr().err
        code, out, _ = run(capsys, ["formal", "--system", generic_system_file])
        assert code == 0 and "mode" not in json.loads(out)

    def test_deterministic_output(self, capsys, generic_system_file):
        _, out1, _ = run(capsys, ["formal", "--system", generic_system_file])
        _, out2, _ = run(capsys, ["formal", "--system", generic_system_file])
        assert out1 == out2

    def test_roundtrip_lossless(self, capsys, generic_system_file):
        _, out, _ = run(capsys, ["formal", "--system", generic_system_file, "--order", "6"])
        doc = json.loads(out)
        F3 = np.array([[complex(re, im) for re, im in row] for row in doc["F"][2]])
        from isomlab.formal import IrregularSystem, compute_formal_coefficients

        sys_ = IrregularSystem(
            u=[0.0, 1.0], A=np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
        )
        expect = compute_formal_coefficients(sys_, K=6).F[2]
        assert np.array_equal(F3, expect)  # bit-exact round trip


class TestGeometryCommands:
    def test_stokes_rays(self, capsys, system_file, tmp_path):
        code, out, _ = run(
            capsys,
            ["stokes-rays", "--system", system_file, "--csv", str(tmp_path / "csv")],
        )
        assert code == 0
        doc = json.loads(out)
        thetas = sorted(d["theta"] for d in doc["directions"])
        assert abs(thetas[0] - np.pi / 2) < 1e-12
        assert abs(thetas[1] - 3 * np.pi / 2) < 1e-12
        assert (tmp_path / "csv" / "stokes_rays.csv").exists()

    def test_cells(self, capsys, system_file, tmp_path):
        path_file = write_json(
            tmp_path / "path.json",
            {"waypoints": [[[0.0, 0.0], [1.0, 0.0]], [[0.1, 0.05], [1.1, 0.0]]]},
        )
        code, out, _ = run(
            capsys,
            ["cells", "--system", system_file, "--path", path_file, "--tau", "0.3"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["same_cell"] is True
        assert doc["points"][0]["in_delta"] is False

    def test_cells_csv_needs_two_waypoints(self, capsys, system_file, tmp_path):
        pts = [[[0.0, 0.0], [1.0, 0.0]], [[0.1, 0.05], [1.1, 0.0]], [[0.2, 0.1], [1.2, 0.0]]]
        for k, csv in ((2, "ok"), (None, "one"), (3, "three")):
            argv = ["cells", "--system", system_file, "--tau", "0.3",
                    "--csv", str(tmp_path / csv)]
            if k:
                argv += ["--path", write_json(tmp_path / f"path{k}.json", {"waypoints": pts[:k]})]
            code, out, err = run(capsys, argv)
            if k == 2:
                assert code == 0 and (tmp_path / csv / "wall_hits.csv").exists()
            else:
                assert code == 1 and out == "" and "two waypoints" in err
                assert not (tmp_path / csv).exists()

    def test_cells_transversal_crossing(self, capsys, system_file, tmp_path):
        # u_0 - u_1 turns through the wall direction 3 pi/2 - tau between the
        # endpoints, on either ray of X(tau)
        tau = 0.3
        phi = 1.5 * np.pi - tau
        for side in (1.0, -1.0):
            ends = [-side * np.exp(1j * (phi + s)) for s in (-0.3, 0.3)]
            path_file = write_json(
                tmp_path / "path.json",
                {"waypoints": [[[0.0, 0.0], [z.real, z.imag]] for z in ends]},
            )
            code, out, _ = run(
                capsys,
                ["cells", "--system", system_file, "--path", path_file, "--tau", str(tau)],
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["same_cell"] is False
            assert not any(p["in_crossing"] for p in doc["points"])

    def test_cells_on_the_walls(self, capsys, system_file, tmp_path):
        # u_0 = u_1 lies in Delta; u_0 - u_1 = e^{i phi}, phi = 3 pi/2 - tau,
        # lies on X(tau); a path that ends there has a wall event at t = 1
        e = np.exp(1j * (1.5 * np.pi - 0.3))
        A = [[[0.2, 0.0], [1.0, 0.0]], [[0.7, 0.0], [-0.4, 0.0]]]
        for u0, wall in ((0.0, "in_delta"), (e, "in_crossing")):
            f = write_json(tmp_path / "u.json", {"u": [[u0.real, u0.imag], [0.0, 0.0]], "A": A})
            code, out, _ = run(capsys, ["cells", "--system", f, "--tau", "0.3"])
            point = json.loads(out)["points"][0]
            assert code == 0 and point[wall] is True
        path = write_json(tmp_path / "path.json",
                          {"waypoints": [[[0.0, 1.0], [0.0, 0.0]], [[e.real, e.imag], [0.0, 0.0]]]})
        code, out, _ = run(capsys, ["cells", "--system", system_file, "--path", path,
                                    "--tau", "0.3", "--csv", str(tmp_path / "csv")])
        rows = list(csv.reader(open(json.loads(out)["csv"])))
        assert code == 0 and json.loads(out)["same_cell"] is False
        assert [(float(t), kind) for t, kind in rows[1:]] == [(1.0, "crossing")]


class TestCsvTables:
    # the tables of --csv: a header row, then one row per item, floats as repr
    def test_rays_csv(self, capsys, system_file, tmp_path):
        code, out, _ = run(capsys, ["stokes-rays", "--system", system_file,
                                    "--csv", str(tmp_path)])
        rows = list(csv.reader(open(json.loads(out)["csv"])))
        assert code == 0 and rows[0] == ["pair_i", "pair_j", "theta"]
        assert len(rows) == 3
        # lossless round-trip of the angle
        thetas = [r.theta for r in stokes_ray_directions([0.0, 1.0])]
        assert [float(row[2]) for row in rows[1:]] == thetas

    def test_wall_hits_csv(self, capsys, system_file, tmp_path):
        hits = wall_hits([0.0, 1.0], [0.0, -1.0], tau=0.3)
        assert any(kind == "delta" for _, kind in hits)
        path = write_json(tmp_path / "path.json",
                          {"waypoints": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]})
        code, out, _ = run(capsys, ["cells", "--system", system_file, "--path", path,
                                    "--tau", "0.3", "--csv", str(tmp_path / "csv")])
        rows = list(csv.reader(open(json.loads(out)["csv"])))
        assert code == 0 and rows[0] == ["sample_t", "wall_type"]
        assert [(float(t), kind) for t, kind in rows[1:]] == hits

    def test_coalescence_entries_csv(self, capsys, tmp_path, coalescence_file):
        f = coalescence_file
        code, out, _ = run(capsys, ["verify-coalescence", "--system", f, "--tau", "0.3",
                                    "--eps", "0.1", "--csv", str(tmp_path / "csv")])
        doc = json.loads(out)
        rows = list(csv.reader(open(doc["csv"])))
        assert code == 0 and rows[0] == ["pair_i", "pair_j", "seeding", "gap", "entry_magnitude"]
        # both orientations of the pair, both seedings, six gaps
        assert len(rows) == 1 + 2 * 2 * 6
        assert [float(row[3]) for row in rows[1:7]] == [0.1 * 2.0**-k for k in range(1, 7)]


class TestLeveltCommand:
    def test_exponents(self, capsys, tmp_path):
        f = write_json(
            tmp_path / "res.json",
            {
                "u": [[0.0, 0.0], [1.0, 0.0]],
                "A": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
            },
        )
        code, out, _ = run(capsys, ["levelt", "--system", f, "--order", "12"])
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 12
        assert doc["D"] == [1, 0]
        assert doc["Sigma"] == [[0.5, 0.0], [0.5, 0.0]]
        assert doc["resonant_orders"] == [1]
        # order 0 builds no Psi_k, so it reaches no resonant order
        code, out, _ = run(capsys, ["levelt", "--system", f, "--order", "0"])
        doc = json.loads(out)
        assert code == 0 and doc["order"] == 0 and doc["resonant_orders"] == []

    def test_jordan_block(self, capsys, tmp_path):
        # a repeated eigenvalue with one eigenvector: N is the Jordan block's
        # nilpotent part
        f = write_json(tmp_path / "jordan.json", {
            "u": [[0.0, 0.0], [1.0, 0.0]],
            "A": [[[0.5, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        })
        code, out, _ = run(capsys, ["levelt", "--system", f])
        doc = json.loads(out)
        assert code == 0 and doc["D"] == [0, 0]
        assert doc["N"] == [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


class TestStokesMatrixCommand:
    def test_structure_verdict(self, capsys, generic_system_file):
        code, out, _ = run(
            capsys,
            ["stokes-matrix", "--system", generic_system_file, "--tau", "0.3", "--r", "0"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        assert doc["diag_residual"] <= 1e-6


    def test_error_estimate_without_series_is_null(self, capsys, generic_system_file):
        # order 0 truncates no series, so the seed error has no bound
        code, out, _ = run(capsys, ["stokes-matrix", "--system", generic_system_file,
                                    "--tau", "0.3", "--order", "0"])
        assert code in (0, 2) and json.loads(out)["error_estimate"] is None


class TestStrictJson:
    def test_non_finite_number_refused(self, capsys, generic_system_file, tmp_path,
                                       monkeypatch):
        # a value that no report may hold infinite is refused, not printed
        monkeypatch.setattr(cli, "spectrum_spread", lambda mats: math.nan)
        path_file = write_json(
            tmp_path / "path.json",
            {"waypoints": [[[0.0, 0.0], [1.0, 0.0]], [[0.3, 0.2], [1.2, 0.0]]]},
        )
        code, out, err = run(capsys, ["flow", "--system", generic_system_file,
                                      "--path", path_file])
        assert code == 1 and out == "" and "non-finite" in err


class TestFlowCommand:
    def test_invariants(self, capsys, generic_system_file, tmp_path):
        path_file = write_json(
            tmp_path / "path.json",
            {"waypoints": [[[0.0, 0.0], [1.0, 0.0]], [[0.3, 0.2], [1.2, 0.0]]]},
        )
        code, out, _ = run(
            capsys, ["flow", "--system", generic_system_file, "--path", path_file]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        assert doc["diag_drift"] <= 1e-10


class TestSchlesingerCommand:
    def test_flow(self, capsys, fuchsian_file, tmp_path):
        path_file = write_json(
            tmp_path / "path.json",
            {
                "waypoints": [
                    [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                    [[0.0, 0.1], [0.9, 0.0], [2.2, 0.0]],
                ]
            },
        )
        code, out, _ = run(
            capsys,
            ["schlesinger", "--system", fuchsian_file, "--path", path_file, "--monodromy"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        assert doc["spectrum_drift"] <= 1e-8

    def test_product_relation_residual_reported(self, capsys, tmp_path):
        # criterion-4 residues on a ray: the basis-order product closes at
        # both endpoints, and the report carries it without gating on it
        rng = np.random.default_rng(104)
        residues = [rng.normal(size=(2, 2)) * 0.5 + 0.5j * rng.normal(size=(2, 2))
                    for _ in range(2)]
        residues.append(-sum(residues))
        sys_file = write_json(tmp_path / "fuchs.json", {"fuchsian": {
            "poles": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            "residues": [[[[z.real, z.imag] for z in row] for row in R] for R in residues]}})
        path_file = write_json(tmp_path / "path.json", {"waypoints": [
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            [[0.0, 0.1], [0.9, 0.0], [2.2, 0.0]]]})
        code, out, _ = run(capsys, ["schlesinger", "--system", sys_file, "--path",
                                    path_file, "--monodromy", "--tol", "1e-12"])
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] == "PASS"
        assert len(doc["product_relation_residual"]) == 2
        assert max(doc["product_relation_residual"]) < 1e-8

    def test_monodromy_of_both_ends_in_one_batch(self, capsys, fuchsian_file, tmp_path,
                                                 monkeypatch):
        from isomlab import odeengine

        calls = []
        transport = odeengine.transport_matrix

        def counted(*args):
            calls.append(1)
            return transport(*args)

        monkeypatch.setattr(odeengine, "transport_matrix", counted)
        path_file = write_json(tmp_path / "path.json", {"waypoints": [
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            [[0.0, 0.1], [0.9, 0.0], [2.2, 0.0]]]})
        code, out, _ = run(capsys, ["schlesinger", "--system", fuchsian_file, "--path",
                                    path_file, "--monodromy"])
        assert code == 0 and json.loads(out)["verdict"] == "PASS"
        assert len(calls) == 1


    def test_one_pole(self, capsys, tmp_path):
        # the only loop takes its radius from the basepoint: M_1 = I
        zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        sys_file = write_json(tmp_path / "one.json",
                              {"fuchsian": {"poles": [[0.0, 0.0]], "residues": [zero]}})
        path_file = write_json(tmp_path / "path.json",
                               {"waypoints": [[[0.0, 0.0]], [[0.3, 0.2]]]})
        code, out, _ = run(capsys, ["schlesinger", "--system", sys_file, "--path",
                                    path_file, "--monodromy"])
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] == "PASS"
        assert doc["monodromy_drift"] == 0.0
        assert doc["product_relation_residual"] == [0.0, 0.0]


class TestKvCommand:
    def test_check_passes(self, capsys):
        code, out, _ = run(capsys, ["kv-example", "--h", "1", "--u", "0.5", "--check"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        assert doc["checks"]["schlesinger_residual_above_threshold"] is True
        assert doc["checks"]["monodromy_identity_error"] <= 1e-8

    def test_excluded_parameter_is_input_error(self, capsys):
        code, _, err = run(capsys, ["kv-example", "--h", "1", "--u", "2.0", "--check"])
        assert code == 1
        assert "error" in err


class TestVerifyCommands:
    def test_verify_strong(self, capsys, generic_system_file, tmp_path):
        path_file = write_json(
            tmp_path / "path.json",
            {"waypoints": [[[0.0, 0.0], [1.0, 0.0]], [[0.3, 0.2], [1.2, 0.0]]]},
        )
        code, out, _ = run(
            capsys,
            [
                "verify-strong", "--system", generic_system_file,
                "--path", path_file, "--tau", "0.3",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        assert doc["drift"]["S_r"] <= 1e-6

    @pytest.mark.parametrize("u00", [0.0, 1e-4, 1e-6, 1e-9])
    def test_verify_strong_near_a_zero_entry(self, capsys, tmp_path, u00):
        # the Levelt start radius follows its series, not min |u_i|: at
        # u_0 = 1e-9 it once was 5e-10, and the transport ran into z = 0
        sys_file = write_json(tmp_path / "sys.json", {
            "u": [[u00, 0.0], [1.0, 0.0]],
            "A": [[[0.2, 0.0], [1.0, 0.0]], [[0.7, 0.0], [-0.4, 0.0]]],
        })
        path_file = write_json(tmp_path / "path.json", {
            "waypoints": [[[u00, 0.0], [1.0, 0.0]], [[u00, 0.05], [1.2, 0.0]]],
        })
        code, out, err = run(capsys, ["verify-strong", "--system", sys_file, "--path", path_file,
                                      "--tau", "0.3", "--tol", "1e-11", "--order", "30"])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["verdict"] == "PASS" and doc["drift"]["C_r"] <= 1e-9

    def test_verify_coalescence(self, capsys, tmp_path, coalescence_file):
        f = coalescence_file
        code, out, _ = run(
            capsys,
            [
                "verify-coalescence", "--system", f, "--tau", "0.3", "--eps", "0.1",
                "--csv", str(tmp_path / "csv"),
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        assert (tmp_path / "csv" / "coalescence_entries.csv").exists()
        # entries below the floor pass under the zero-entry convention,
        # their infinite slope printed as null
        assert any(f["slope"] is None and f["passed"] for f in doc["entry_fits"].values())
        # order 0 truncates no series, so the entry floor has no bound
        code, out, _ = run(capsys, ["verify-coalescence", "--system", f, "--tau", "0.3",
                                    "--eps", "0.1", "--order", "0"])
        assert code == 2 and json.loads(out)["entry_floor"] is None

    # 5 exceeds the parallel-line bound 0.955336 of u^C = [0, 0, 1] at tau 0.3
    @pytest.mark.parametrize("eps", ["-0.1", "0", "nan", "inf", "5"])
    def test_verify_coalescence_refuses_eps(self, capsys, coalescence_file, eps):
        # refused before any flow or series work: no warning, no step budget
        f = coalescence_file
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys,
                ["verify-coalescence", "--system", f, "--tau", "0.3", "--eps", eps],
            )
        assert code == 1 and out == ""
        assert "eps" in err

    def test_verify_coalescence_of_all_entries(self, capsys, tmp_path):
        # u^C = [0, 0]: no pair fails to coalesce, so no ray bounds the
        # widened sectors, which are the half-planes widened by pi/2
        f = write_json(tmp_path / "co.json", {
            "u": [[0.0, 0.0], [0.0, 0.0]],
            "A": [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.35, 0.0]]],
        })
        code, out, err = run(capsys, ["verify-coalescence", "--system", f, "--tau", "0.3",
                                      "--eps", "0.1"])
        assert code == 0, err
        assert json.loads(out)["pairs"] == [[0, 1]]

    def test_verify_coalescence_of_sector_one(self, capsys, coalescence_file):
        # the limit S_1 -> S_1(u^C) of the next sector pair holds as well
        code, out, err = run(capsys, ["verify-coalescence", "--system", coalescence_file,
                                      "--tau", "0.3", "--eps", "0.1", "--r", "1"])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["verdict"] == "PASS" and doc["limit_errors"][-1] <= 1e-5

    def test_high_order_runs_without_warnings(self, capsys, coalescence_file,
                                              generic_system_file):
        # the late terms of a high-order series overflow; a non-finite F_k is
        # no truncation point, so the run succeeds, and it warns of nothing
        for argv in (["verify-coalescence", "--system", coalescence_file, "--tau", "0.3",
                      "--eps", "0.1", "--tol", "1e-11", "--order", "80"],
                     ["stokes-matrix", "--system", generic_system_file, "--tau", "0.3",
                      "--order", "400"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _, err = run(capsys, argv)
            assert code == 0 and err == "", argv


class TestParser:
    def test_subcommands_in_a_row(self, capsys, system_file):
        formal = ["formal", "--system", system_file, "--order", "3"]
        kv = ["kv-example", "--h", "1", "--u", "0.5", "--check"]
        first = run(capsys, formal)
        assert run(capsys, kv)[0] == 0
        assert run(capsys, formal) == first
        # each parse gets the defaults and handler of its own subcommand,
        # as from a parser built for it alone
        for argv in (formal, kv, formal):
            assert vars(cli._parser().parse_args(argv)) == vars(
                cli.build_parser().parse_args(argv))
        # usage errors exit the same way every time
        for argv in ([], ["formal"], ["formal", "--system", system_file, "--order", "x"]):
            exits = []
            for _ in range(2):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                exits.append((exc.value.code, capsys.readouterr().err))
            assert exits[0] == exits[1] and exits[0][0] == 2

    def test_shared_flags_only_where_read(self):
        reads = {
            "formal": {"mtol", "order"},
            "stokes-rays": {"csv"},
            "cells": {"mtol", "csv", "tau"},
            "levelt": {"mtol", "order"},
            "stokes-matrix": {"tol", "mtol", "order", "tau"},
            "flow": {"tol", "mtol"},
            "schlesinger": {"tol", "mtol"},
            "kv-example": {"tol"},
            "verify-strong": {"tol", "mtol", "order", "tau"},
            "verify-coalescence": {"tol", "order", "csv", "tau"},
        }
        shared = {"tol", "mtol", "order", "csv", "tau"}
        subcommands = _subcommands()
        assert set(subcommands) == set(reads)
        for name, sp in subcommands.items():
            dests = {a.dest for a in sp._actions}
            assert dests & shared == reads[name], name
        # the README's `| flag | meaning | subcommands |` table says the same
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        rows = re.findall(r"^\| `--(\w+)[^`]*` \|[^|]*\| ([^|]*?) \|$", readme, re.M)
        assert {flag: set(names.split(", ")) for flag, names in rows} == {
            flag: {name for name, read in reads.items() if flag in read} for flag in shared
        }

    def test_parser_built_once(self, capsys, system_file, monkeypatch):
        builds = []
        build_parser = cli.build_parser

        def counted():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            run(capsys, ["formal", "--system", system_file, "--order", "3"])
            run(capsys, ["kv-example", "--h", "1", "--u", "0.5"])
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1


class TestErrorHandling:
    def test_malformed_field_named(self, capsys, tmp_path):
        f = write_json(tmp_path / "bad.json", {"u": [[0, 0], [1, 0]], "A": [[1, 2]]})
        code, _, err = run(capsys, ["formal", "--system", f])
        assert code == 1
        assert "A" in err

    def test_formal_needs_an_irregular_system(self, capsys, fuchsian_file):
        code, out, err = run(capsys, ["formal", "--system", fuchsian_file])
        assert code == 1 and out == ""
        assert err == "error: this subcommand needs an irregular system ('u' and 'A')\n"

    @pytest.mark.parametrize("command", [["formal"], ["levelt"], ["stokes-matrix", "--tau", "0.3"]])
    def test_boolean_entry_refused(self, capsys, tmp_path, command):
        # JSON true is not the number 1
        doc = {"u": [[0.0, 0.0], [True, False]],
               "A": [[[0.2, 0.0], [1.0, 0.0]], [[0.7, 0.0], [-0.4, 0.0]]]}
        f = write_json(tmp_path / "bool.json", doc)
        code, out, err = run(capsys, [command[0], "--system", f, *command[1:]])
        assert code == 1 and out == ""
        assert "u[1]" in err

    def test_infinite_entry_refused(self, capsys, tmp_path):
        doc = {"u": [[0.0, 0.0], [float("inf"), 0.0]],
               "A": [[[0.2, 0.0], [1.0, 0.0]], [[0.7, 0.0], [-0.4, 0.0]]]}
        f = write_json(tmp_path / "inf.json", doc)
        code, out, err = run(capsys, ["formal", "--system", f])
        assert code == 1 and out == ""
        assert "u[1]" in err

    def test_fractional_dimension_refused(self, capsys, tmp_path):
        doc = {"n": 2.9, "u": [[0.0, 0.0], [1.0, 0.0]],
               "A": [[[0.2, 0.0], [1.0, 0.0]], [[0.7, 0.0], [-0.4, 0.0]]]}
        f = write_json(tmp_path / "n.json", doc)
        code, out, err = run(capsys, ["formal", "--system", f])
        assert code == 1 and out == ""
        assert "n: expected an integer" in err

    @pytest.mark.parametrize("command", [
        "formal", "levelt", "stokes-rays", "cells", "stokes-matrix", "flow", "schlesinger",
    ])
    @pytest.mark.parametrize("field, value", [
        ("higher", 5), ("higher", None), ("fuchsian.residues", 5), ("fuchsian.residues", None),
    ])
    def test_malformed_matrix_list_refused(self, capsys, tmp_path, command, field, value):
        # an input error naming the field, not a TypeError from iterating it
        doc = {"u": [[0.0, 0.0], [1.0, 0.0]],
               "A": [[[0.2, 0.0], [1.0, 0.0]], [[0.7, 0.0], [-0.4, 0.0]]],
               "fuchsian": {"poles": [[0.0, 0.0], [1.0, 0.0]],
                            "residues": [[[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.2, 0.0]]],
                                         [[[-0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]]]}}
        if field == "higher":
            doc["higher"] = value
        else:
            doc["fuchsian"]["residues"] = value
        path_file = write_json(tmp_path / "path.json",
                               {"waypoints": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.2, 0.0]]]})
        flags = {"cells": ["--tau", "0.3"], "stokes-matrix": ["--tau", "0.3"],
                 "flow": ["--path", path_file], "schlesinger": ["--path", path_file]}
        sys_file = write_json(tmp_path / "sys.json", doc)
        code, out, err = run(capsys, [command, "--system", sys_file, *flags.get(command, [])])
        assert code == 1 and out == ""
        assert err == f"error: {field}: expected a list of matrices, got {value!r}\n"

    U2 = [[0.0, 0.0], [1.0, 0.0]]
    A2 = [[[0.2, 0.0], [1.0, 0.0]], [[0.7, 0.0], [-0.4, 0.0]]]
    WAYPOINTS = [U2, [[0.0, 0.0], [1.2, 0.0]]]

    @pytest.mark.parametrize("system, path, message", [
        (None, None, "cannot read system file {system}: "),
        ("{", None, "cannot read system file {system}: "),
        ({"u": U2, "A": A2}, None, "cannot read path file {path}: "),
        ({"u": U2, "A": A2}, "[[", "cannot read path file {path}: "),
        ([U2, A2], None, "system file must hold a JSON object"),
        ({"u": U2}, None, "irregular system needs both 'u' and 'A'"),
        ({"n": 3, "u": U2, "A": A2}, None, "n = 3 disagrees with len(u) = 2"),
        ({"u": U2, "A": [row + [[0.0, 0.0]] for row in A2]}, None,
         "A has shape (2, 3), expected (2, 2)"),
        ({"fuchsian": {"poles": U2}}, None, "'fuchsian' block needs 'poles' and 'residues'"),
        ({"fuchsian": {"poles": U2, "residues": [A2, A2]}}, None,
         "fuchsian: residues do not sum to zero"),
        ({"v": U2}, None, "system file defines neither 'u'/'A' nor 'fuchsian'"),
        ({"u": [], "A": A2}, None, "u: expected a non-empty list of [re, im] pairs"),
        ({"u": 5, "A": A2}, None, "u: expected a non-empty list of [re, im] pairs"),
        ({"u": U2, "A": []}, None, "A: expected a matrix (list of rows)"),
        ({"u": U2, "A": [A2[0], A2[1][:1]]}, None, "A: ragged rows"),
        ({"u": U2, "A": A2}, {"points": WAYPOINTS}, "path file needs a 'waypoints' list"),
        ({"u": U2, "A": A2}, {"waypoints": []}, "waypoints must be a non-empty list"),
        ({"u": U2, "A": A2}, {"waypoints": WAYPOINTS[:1]}, "a path needs at least two waypoints"),
    ], ids=["system-missing", "system-not-json", "path-missing", "path-not-json",
            "not-an-object", "u-without-A", "n-mismatch", "A-shape", "fuchsian-keys",
            "fuchsian-value", "neither-block", "empty-vector", "non-list-vector",
            "empty-matrix", "ragged-matrix", "no-waypoints", "empty-waypoints", "one-waypoint"])
    def test_input_file_refusals(self, capsys, tmp_path, system, path, message):
        # every refusal of a malformed system or path file names what is
        # wrong: exit 1, no report, and the message on stderr
        files = {}
        for kind, doc in (("system", system), ("path", path)):
            files[kind] = str(tmp_path / f"{kind}.json")
            if isinstance(doc, str):
                Path(files[kind]).write_text(doc)
            elif doc is not None:
                write_json(files[kind], doc)
        code, out, err = run(capsys, ["flow", "--system", files["system"],
                                      "--path", files["path"]])
        assert code == 1 and out == ""
        assert err.startswith("error: " + message.format(**files))

    def test_levelt_rank_ambiguity_refused(self, capsys, tmp_path):
        # eigenvalues 1e-12 apart are one cluster whose kernel rank sits in
        # the tolerance band; the exactly repeated pair is accepted
        doc = {"u": [[0.0, 0.0], [1.0, 0.0]],
               "A": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5 + 1e-12, 0.0]]]}
        code, out, err = run(capsys, ["levelt", "--system", write_json(tmp_path / "a.json", doc)])
        assert code == 1 and out == ""
        assert err.startswith("error: rank decision ambiguous near eigenvalue 0.5")
        doc["A"][1][1] = [0.5, 0.0]
        assert run(capsys, ["levelt", "--system", write_json(tmp_path / "b.json", doc)])[0] == 0

    def test_resonant_coalescing_pair_refused(self, capsys, tmp_path):
        # u_0 = u_1 coalesce and A_00 - A_11 = -1: the frozen formal solution
        # is not unique, so there is no limit to verify
        doc = {"u": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
               "A": [[[0.0, 0.0], [0.0, 0.0], [0.3, 0.0]],
                     [[0.0, 0.0], [1.0, 0.0], [0.2, 0.0]],
                     [[0.1, 0.0], [0.4, 0.0], [0.5, 0.0]]]}
        code, out, err = run(capsys, ["verify-coalescence", "--system",
                                      write_json(tmp_path / "res.json", doc),
                                      "--tau", "0.3", "--eps", "0.1"])
        assert code == 1 and out == ""
        assert err == ("error: diagonal entries of coalescing pairs differ by non-zero "
                       "integers [(0, 1, -1), (1, 0, 1)]; the frozen formal solution is "
                       "not unique\n")

    def test_subclass_inadmissible_tau_refused(self, capsys, tmp_path):
        # u^C = [0, 0, 1]: the pairs (0, 2) and (1, 2) that do not coalesce
        # put a Stokes ray at pi/2, so no sector widened at u^C has tau there
        A0 = [[0.10, 0.00, 0.06], [0.00, 0.10, 0.09], [0.075, -0.05, 0.45]]
        doc = {"u": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
               "A": [[[x, 0.0] for x in row] for row in A0]}
        code, out, err = run(capsys, ["verify-coalescence", "--system",
                                      write_json(tmp_path / "crit7.json", doc),
                                      "--tau", repr(math.pi / 2), "--eps", "0.1"])
        assert code == 1 and out == ""
        assert err == "error: tau = 1.5708 is within 0.000e+00 of a sub-class Stokes ray\n"

    @pytest.mark.parametrize("end, message", [
        ([[-0.2955202066613396, -0.955336489125606], [0.0, 0.0]],
         "sample [-0.29552021-0.95533649j  0.        +0.j        ] lies on W(tau)"),
        ([[0.0, 0.0], [-1.0, 0.0]],
         "segment [0.+0.j 1.+0.j] -> [ 0.+0.j -1.+0.j] crosses W(tau); samples not in one cell"),
    ], ids=["sample-on-X", "segment-across-Delta"])
    def test_verify_strong_path_through_a_wall_refused(self, capsys, generic_system_file,
                                                       tmp_path, end, message):
        # the path's end lies on X(tau) (u_0 - u_1 = e^{i (3 pi/2 - tau)}), or
        # its segment passes through u_0 = u_1: no sector stays put
        path = write_json(tmp_path / "path.json", {"waypoints": [[[0.0, 0.0], [1.0, 0.0]], end]})
        code, out, err = run(capsys, ["verify-strong", "--system", generic_system_file,
                                      "--path", path, "--tau", "0.3"])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_nonvanishing_coalescing_pair_refused(self, capsys, tmp_path):
        # u_0 = u_1 coalesce, so A_01 must vanish for the theorem to apply
        A0 = [[0.10, 0.3, 0.06], [0.00, 0.10, 0.09], [0.075, -0.05, 0.45]]
        doc = {"u": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
               "A": [[[x, 0.0] for x in row] for row in A0]}
        code, out, err = run(capsys, ["verify-coalescence", "--system",
                                      write_json(tmp_path / "a01.json", doc),
                                      "--tau", "0.3", "--eps", "0.1"])
        assert code == 1 and out == ""
        assert err == "error: vanishing condition violated at u^C: A[0,1] or A[1,0] nonzero\n"

    def test_loop_into_a_pole_refused(self, capsys, tmp_path):
        # the poles lie on the imaginary axis with the basepoint, so the spoke
        # of the loop about the upper pole runs into the pole at 0, and the
        # engine refuses it naming the leg; ROADMAP item 8's spoke clearance
        # check will replace this refusal
        R = [[0.3, 0.1], [0.2, -0.1]]
        doc = {"fuchsian": {"poles": [[0.0, 0.0], [0.0, 1.0]],
                            "residues": [[[[s * x, 0.0] for x in row] for row in R]
                                         for s in (1, -1)]}}
        path = {"waypoints": [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.1]]]}
        code, out, err = run(capsys, ["schlesinger", "--system",
                                      write_json(tmp_path / "spoke.json", doc), "--path",
                                      write_json(tmp_path / "path.json", path), "--monodromy"])
        assert code == 1 and out == ""
        assert err.startswith("error: transport 1, segment 0 (line 0-4j -> 0+0.75j), runs "
                              "into the singular point 0+0j")

    def test_missing_block(self, capsys, system_file, tmp_path):
        path_file = write_json(
            tmp_path / "p.json", {"waypoints": [[[0, 0], [1, 0]], [[0, 0], [1.2, 0]]]}
        )
        code, _, err = run(
            capsys, ["schlesinger", "--system", system_file, "--path", path_file]
        )
        assert code == 1
        assert "fuchsian" in err

    @pytest.mark.parametrize("command", ["flow", "verify-strong"])
    @pytest.mark.parametrize("case", ["u", "higher"])
    def test_flow_commands_refuse_what_the_file_does_not_say(self, capsys, tmp_path,
                                                             command, case):
        # the path starts at [0, 1]; the file's u, or its higher-pole block,
        # describes another system, which the flow must not silently replace
        doc = {"u": [[0.0, 0.0], [1.0, 0.0]],
               "A": [[[0.2, 0.0], [1.0, 0.0]], [[0.7, 0.0], [-0.4, 0.0]]]}
        if case == "u":
            doc["u"] = [[5.0, 0.0], [9.0, 3.0]]
        else:
            doc["higher"] = [[[[0.1, 0.0], [0.3, 0.0]], [[-0.2, 0.0], [0.05, 0.0]]]]
        sys_file = write_json(tmp_path / "sys.json", doc)
        path_file = write_json(
            tmp_path / "path.json",
            {"waypoints": [[[0.0, 0.0], [1.0, 0.0]], [[0.3, 0.2], [1.2, 0.0]]]},
        )
        argv = [command, "--system", sys_file, "--path", path_file]
        if command == "verify-strong":
            argv += ["--tau", "0.3"]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        if case == "u":
            assert "the system's" in err and "9.+3.j" in err
        else:
            assert "does not support higher poles" in err

    def test_levelt_refuses_higher_poles(self, capsys, tmp_path):
        # the Levelt data come from Lambda and A alone; with a nonzero
        # higher-pole block they would be those of another system
        doc = {"u": [[0.0, 0.0], [1.0, 0.0]],
               "A": [[[0.2, 0.0], [1.0, 0.0]], [[0.7, 0.0], [-0.4, 0.0]]],
               "higher": [[[[0.1, 0.0], [0.3, 0.0]], [[-0.2, 0.0], [0.05, 0.0]]]]}
        code, out, err = run(capsys, ["levelt", "--system", write_json(tmp_path / "h.json", doc)])
        assert code == 1 and out == ""
        assert "does not support higher poles" in err
        doc["higher"] = [[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
        assert run(capsys, ["levelt", "--system", write_json(tmp_path / "z.json", doc)])[0] == 0

    def test_fail_verdict_exit_code(self, capsys, tmp_path):
        # seeds at |z| = 1, where the formal series is no approximation,
        # leave S_0 wrong by decades more than the default --mtol 1e-6
        f = write_json(
            tmp_path / "sys.json",
            {
                "u": [[0.0, 0.0], [1.0, 0.0]],
                "A": [[[0.2, 0.0], [1.0, 0.0]], [[0.7, 0.0], [-0.4, 0.0]]],
            },
        )
        code, out, _ = run(
            capsys,
            ["stokes-matrix", "--system", f, "--tau", "0.3", "--radius", "1"],
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "FAIL" and doc["diag_residual"] > 1e-3

    @pytest.mark.parametrize("command, flag", [
        (name, flag) for name, sp in _subcommands().items()
        for flag in ("tol", "mtol", "radius", "eps") if flag in {a.dest for a in sp._actions}
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_refused(self, capsys, tmp_path, command, flag, value):
        # an input error, refused before any work: the files named are never read
        missing = str(tmp_path / "missing.json")
        argv = [command]
        for a in _subcommands()[command]._actions:
            if a.required:
                argv += [a.option_strings[0], {"tau": "0.3", "eps": "0.1"}.get(a.dest, missing)]
        code, out, err = run(capsys, argv + [f"--{flag}", value])
        assert code == 1 and out == ""
        assert err == f"error: --{flag} must be finite and positive, got {float(value)}\n"

    @pytest.mark.parametrize("command, flag, value", [
        (name, flag, value) for name, sp in _subcommands().items()
        for flag, values in (("tau", ("nan", "inf", "-inf", "8192", "-1e17", "1e300")),
                             ("order", ("-1", "-3")))
        if flag in {a.dest for a in sp._actions} for value in values
    ])
    def test_bad_tau_and_order_refused(self, capsys, tmp_path, command, flag, value):
        # a non-finite tau, a tau too large to resolve a direction to
        # DIRECTION_TOL and a negative order are input errors too, refused
        # before the files named are read
        missing = str(tmp_path / "missing.json")
        argv = [command]
        for a in _subcommands()[command]._actions:
            if a.required and a.dest != flag:
                argv += [a.option_strings[0], {"tau": "0.3", "eps": "0.1"}.get(a.dest, missing)]
        code, out, err = run(capsys, argv + [f"--{flag}={value}"])
        assert code == 1 and out == ""
        tau = float(value) if flag == "tau" else 0.0
        assert err == (
            f"error: --order must be at least 0, got {value}" if flag == "order"
            else f"error: --tau must be finite, got {tau}" if not math.isfinite(tau)
            else f"error: --tau {tau} is too large: its ulp {math.ulp(tau):.3g} exceeds the "
                 f"direction tolerance {DIRECTION_TOL:g}"
        ) + "\n"

    @pytest.mark.parametrize("command", [
        name for name, sp in _subcommands().items() if "r" in {a.dest for a in sp._actions}
    ])
    @pytest.mark.parametrize("r, tau", [(2606, 0.0), (-2606, 0.0), (2604, 8.0),
                                        (1000000000, 0.3), (2605, 0.0)])
    def test_sector_index_resolvable(self, capsys, tmp_path, command, r, tau):
        # sectors r and r + 1 reach |tau| + (|r| + 2) pi, which must resolve
        # a direction to DIRECTION_TOL as tau must: refused before the files
        # named are read, and the last index that resolves gets to reading
        missing = str(tmp_path / "missing.json")
        argv = [command, "--r", str(r), "--tau", str(tau)]
        for a in _subcommands()[command]._actions:
            if a.required and a.dest != "tau":
                argv += [a.option_strings[0], {"eps": "0.1"}.get(a.dest, missing)]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        reach = abs(tau) + (abs(r) + 2) * math.pi
        if math.ulp(reach) > DIRECTION_TOL:
            assert err.startswith(f"error: --r {r} is too large: the sector angles reach")
        else:
            assert "missing.json" in err

    def test_largest_tau_accepted(self, capsys, system_file):
        # below 8192 the ulp of tau, 2**-40, is still below DIRECTION_TOL
        assert run(capsys, ["cells", "--system", system_file, "--tau", "8191.9"])[0] == 0

    @pytest.mark.parametrize("command", [
        name for name, sp in _subcommands().items() if "system" in {a.dest for a in sp._actions}
    ])
    def test_higher_block_refused_unless_zero(self, capsys, tmp_path, command):
        # the system is dY/dz = (Lambda + A/z) Y: every subcommand refuses a
        # nonzero higher-pole block as an input error, and reads an all-zero
        # one as the file without it, byte for byte
        if command == "verify-coalescence":
            doc = {"u": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                   "A": [[[0.1, 0.0], [0.0, 0.0], [0.06, 0.0]],
                         [[0.0, 0.0], [0.1, 0.0], [0.09, 0.0]],
                         [[0.075, 0.0], [-0.05, 0.0], [0.45, 0.0]]]}
        else:
            R = [[[0.1, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.2, 0.0]]]
            doc = {"u": [[0.0, 0.0], [1.0, 0.0]],
                   "A": [[[0.2, 0.0], [1.0, 0.0]], [[0.7, 0.0], [-0.4, 0.0]]],
                   "fuchsian": {"poles": [[0.0, 0.0], [1.0, 0.0]],
                                "residues": [R, [[[-x, -y] for x, y in row] for row in R]]}}
        path_file = write_json(tmp_path / "path.json",
                               {"waypoints": [[[0.0, 0.0], [1.0, 0.0]], [[0.3, 0.2], [1.2, 0.0]]]})
        flags = {"cells": ["--tau", "0.3", "--path", path_file], "stokes-matrix": ["--tau", "0.3"],
                 "flow": ["--path", path_file], "schlesinger": ["--path", path_file],
                 "verify-strong": ["--path", path_file, "--tau", "0.3"],
                 "verify-coalescence": ["--tau", "0.3", "--eps", "0.1"]}.get(command, [])
        n = len(doc["u"])

        def call(name, higher=None):
            if higher is not None:
                doc["higher"] = higher
            return run(capsys, [command, "--system", write_json(tmp_path / name, doc), *flags])

        plain = call("plain.json")
        assert plain[0] in (0, 2)
        zero = [[[0.0, 0.0]] * n for _ in range(n)]
        assert call("zero.json", [zero, zero]) == plain
        nonzero = [[[0.0, 0.0]] * n for _ in range(n)]
        nonzero[n - 1] = [[0.0, 0.0]] * (n - 1) + [[0.1, 0.0]]
        assert call("nonzero.json", [zero, nonzero]) == (
            1, "", "error: higher[1] is nonzero: isomlab does not support higher poles, "
                   "only dY/dz = (Lambda + A/z) Y\n")
        assert call("shape.json", [[[[0.0, 0.0]]]]) == (
            1, "", f"error: higher[0] has shape (1, 1), expected ({n}, {n})\n")


def test_schlesinger_monodromy_regression(tmp_path, capsys):
    # a seeded draw whose monodromy drift the earlier Runge-Kutta transport
    # put at 2.5e-5, over the 1e-6 threshold
    poles = [[-0.6993635615545937, -0.22501147931151683],
             [0.1951421186343474, 0.9291746478799239],
             [0.16368429055135178, -0.20109518029171994]]
    residues = [
        [[[-0.41322663171922114, 0.6886299964613771], [0.5572770602364209, 0.6602275252072273]],
         [[-0.8391422681193936, 0.09445605320085952], [-0.3098258911511651, -0.8017781657354427]]],
        [[[0.30337063034655243, 0.8564783371436632], [0.4657278057128517, -0.09325033239288989]],
         [[-0.07499967842344807, 0.23334577798177158], [0.07401210595862588, -0.47657245391348113]]],
        [[[0.10985600137266871, -1.5451083336050404], [-1.0230048659492725, -0.5669771928143373]],
         [[0.9141419465428418, -0.3278018311826311], [0.2358137851925392, 1.2783506196489238]]],
    ]
    waypoints = [
        poles,
        [[-0.6998199163756956, -0.3902604413576942], [0.09998543503591621, 0.8495341751207948],
         [0.12013352849966782, -0.3348804712354793]],
        [[-0.7002762711967976, -0.5555094034038717], [0.004828751437485013, 0.7698937023616655],
         [0.07658276644798388, -0.4686657621792387]],
    ]
    sys_file = write_json(tmp_path / "fuchs.json",
                          {"fuchsian": {"poles": poles, "residues": residues}})
    path_file = write_json(tmp_path / "path.json", {"waypoints": waypoints})
    code, out, _ = run(capsys, ["schlesinger", "--system", sys_file, "--path", path_file,
                                "--monodromy", "--tol", "1e-12"])
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "PASS"
    assert doc["monodromy_drift"] < 1e-6
