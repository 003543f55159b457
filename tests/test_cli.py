import dataclasses
import hashlib
import json
import multiprocessing
import shutil
from pathlib import Path

import numpy as np
import pytest

import latticegap as lg
from latticegap import cli, jsonio, solver
from latticegap.cli import main, parse_config
from latticegap.errors import ConfigError
from latticegap.spectral import load_eigenpairs

from conftest import exit_in_worker_at, use_cores

BASE = {
    "dimension": "3",
    "box.radius": "2",
    "potential.kind": "checkerboard",
    "potential.amplitude": "1.0",
    "nonlinearity.kind": "power",
    "nonlinearity.p": "4.0",
    "rho.mode": "absolute",
    "rho.values": "0.0",
    "bloch.grid": "8",
    "seed": "11",
    "solver.multistart": "3",
}


def write_config(tmp_path, name="run.cfg", drop=(), **overrides):
    entries = {k: v for k, v in BASE.items() if k not in drop}
    entries.update(overrides)
    lines = ["# test configuration"]
    lines += [f"{key} = {value}" for key, value in entries.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestParseConfig:
    def test_round_trip_of_basics(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.dimension == 3 and cfg.radius == 2
        assert cfg.rho_values == (0.0,)
        assert cfg.solver.multistart == 3
        assert cfg.solver.seed == 11

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, **{"solver.typo_tol": "1e-8"})
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + "seed = 12\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(write_config(tmp_path, **{"box.radius": "huge"}))

    def test_solver_keys_cover_solver_config(self, tmp_path):
        # every SolverConfig field is a solver.* key, except the seed (the
        # top-level key)
        defaults = {f.name: f.default for f in dataclasses.fields(lg.SolverConfig)}
        keys = {k.split(".", 1)[1] for k in cli._KEYS if k.startswith("solver.")}
        assert set(defaults) == keys | {"seed"}
        # None (box-global search) has no config spelling; it is the default
        settings = {f"solver.{k}": repr(defaults[k]) for k in sorted(keys)
                    if defaults[k] is not None}
        cfg = parse_config(write_config(tmp_path, **settings))
        assert cfg.solver == lg.SolverConfig(seed=cfg.solver.seed)

    def test_readme_config_example_parses(self, tmp_path):
        # the fenced block under "Config files are flat" in the README
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        block = readme.split("Config files are flat", 1)[1].split("```", 2)[1]
        path = tmp_path / "readme.cfg"
        path.write_text(block, encoding="utf-8")
        cfg = parse_config(path)
        assert cfg.radius == 6 and cfg.rho_values == (0.4, 0.2, 0.1, 0.05, 0.0)
        assert cfg.solver == lg.SolverConfig(seed=7, multistart=5,
                                             max_boundary_mass=0.25)

    def test_rho_list_parsing(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, **{"rho.values": "0.4, 0.2, 0.0"}))
        assert cfg.rho_values == (0.4, 0.2, 0.0)


class TestCertifyGap:
    def test_writes_bands_and_gap(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["certify-gap", "--config", str(cfg), "--out", str(out)]) == 0
        gap = json.loads((out / "gap.json").read_text())
        assert abs(gap["sigma_minus"] + 1.0) < 1e-8
        assert abs(gap["sigma_plus"] - 1.0) < 1e-8
        assert gap["intrusions"] == []
        lines = (out / "bands.csv").read_text().splitlines()
        assert lines[0] == "k1,k2,k3,band_index,lambda"

    def test_no_gap_exits_two(self, tmp_path, capsys):
        # a checkerboard of amplitude 0 is the constant -2N: one band, no gap
        cfg = write_config(tmp_path, **{"potential.amplitude": "0.0"})
        out = tmp_path / "out"
        assert main(["certify-gap", "--config", str(cfg), "--out", str(out)]) == 2
        assert "no spectral gap at 0" in capsys.readouterr().err

    def test_constant_potential_kind_rejected(self, tmp_path, capsys):
        # a constant potential has a single band, so it can never certify a gap
        cfg = write_config(tmp_path, **{"potential.kind": "constant",
                                        "potential.shift": "0.5"},
                           drop=("potential.amplitude",))
        out = tmp_path / "out"
        assert main(["certify-gap", "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown potential.kind 'constant'" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_flag_reproduces_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main(["certify-gap", "--config", str(cfg), "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["certify-gap", "--config", str(cfg), "--out", str(out2),
                     "--threads", "3"]) == 0
        assert (out1 / "bands.csv").read_bytes() == (out2 / "bands.csv").read_bytes()
        assert (out1 / "gap.json").read_bytes() == (out2 / "gap.json").read_bytes()

    @pytest.mark.parametrize("command", ["certify-gap", "solve"])
    def test_site_budget_checked_before_bloch_bands(self, tmp_path, capsys,
                                                    monkeypatch, command):
        # 5^6 = 15,625 sites; the 6-D Bloch stack alone would take 16 GiB
        def bloch_band_edges(*args, **kwargs):
            raise AssertionError("Bloch bands computed before the site budget check")

        monkeypatch.setattr(cli, "bloch_band_edges", bloch_band_edges)
        cfg = write_config(tmp_path, dimension="6")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "above the budget" in err
        assert "Traceback" not in err
        assert not (out / "gap.json").exists()
        assert not (out / "split.npy").exists()

    def test_radius_floor_enforced(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"box.radius": "1"})
        assert main(["certify-gap", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "radius" in capsys.readouterr().err


class TestValidate:
    def test_report_written(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "hypothesis_report.json").read_text())
        assert report["all_passed"] is True

    def test_cubic_power_validates_and_solves(self, tmp_path, capsys):
        # p = 3 satisfies every hypothesis; the superquadratic growth follows
        # from the gap bound, so no finite-sample threshold refuses it
        cfg = write_config(tmp_path, **{"nonlinearity.p": "3.0", "box.radius": "3"})
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "hypothesis_report.json").read_text())
        assert report["all_passed"] is True
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0, \
            capsys.readouterr().err
        summary = json.loads((out / "solve_summary.json").read_text())
        assert summary["c_rho"] > 0


class TestConstants:
    def test_schema_and_witnesses(self, tmp_path):
        cfg = write_config(tmp_path, **{"box.radius": "3"})
        out = tmp_path / "out"
        assert main(["constants", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads((out / "constants.json").read_text())
        for key in ("N", "R", "kappa", "rho_plus", "rho_tilde_plus", "rho_max",
                    "witnesses"):
            assert key in data
        assert data["rho_max"] == data["rho_tilde_plus"] / data["kappa"]
        for ref in data["witnesses"].values():
            assert (out / ref).exists()
            lg.read_field(out / ref)

    def test_dimension_guard(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dimension="2")
        assert main(["constants", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "dimension >= 3" in capsys.readouterr().err

    def test_graph_metric_selected(self, tmp_path):
        cfg = write_config(tmp_path, **{"hardy.metric": "graph",
                                        "box.radius": "3"})
        out = tmp_path / "out"
        assert main(["constants", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads((out / "constants.json").read_text())
        assert data["metric"] == "graph"


class TestCorruptArtifacts:
    """Damaged artifacts exit 2 with a re-run message, never a traceback."""

    @staticmethod
    def _run_constants(tmp_path, capsys, damage, name, rerun,
                       command="constants"):
        """Run `constants`, damage the file `name`, then run `command`."""
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["constants", "--config", str(cfg), "--out", str(out)]) == 0
        damage(out / name)
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"re-run {rerun}" in err
        assert "Traceback" not in err

    @staticmethod
    def _truncate(fraction):
        def damage(path):
            data = path.read_bytes()
            path.write_bytes(data[:int(fraction * len(data))])
        return damage

    @staticmethod
    def _drop(key):
        def damage(path):
            data = json.loads(path.read_text())
            del data[key]
            path.write_text(json.dumps(data))
        return damage

    @staticmethod
    def _set(key, value):
        def damage(path):
            data = json.loads(path.read_text())
            data[key] = value
            path.write_text(json.dumps(data))
        return damage

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_truncated_constants(self, tmp_path, capsys, fraction):
        self._run_constants(tmp_path, capsys, self._truncate(fraction),
                            "constants.json", "constants")

    def test_constants_missing_key(self, tmp_path, capsys):
        self._run_constants(tmp_path, capsys, self._drop("kappa"),
                            "constants.json", "constants")

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_truncated_gap(self, tmp_path, capsys, fraction):
        self._run_constants(tmp_path, capsys, self._truncate(fraction),
                            "gap.json", "certify-gap")

    @pytest.mark.parametrize("key", ["sigma_minus", "sigma_plus"])
    def test_gap_missing_sigma(self, tmp_path, capsys, key):
        self._run_constants(tmp_path, capsys, self._drop(key),
                            "gap.json", "certify-gap")

    @pytest.mark.parametrize("key, value", [
        ("kappa", "0.5"), ("rho_plus", True), ("rho_tilde_plus", None),
        ("rho_max", [0.1]), ("kappa", float("inf")), ("rho_max", 123.0),
        ("N", 3.0), ("R", "2"), ("N", False), ("metric", "graph"),
        ("metric", 3), ("N", 4), ("R", 5)])
    def test_wrongly_typed_constants(self, tmp_path, capsys, key, value):
        self._run_constants(tmp_path, capsys, self._set(key, value),
                            "constants.json", "constants")

    @pytest.mark.parametrize("value", ["-1", None, float("nan")])
    def test_wrongly_typed_sigma(self, tmp_path, capsys, value):
        self._run_constants(tmp_path, capsys, self._set("sigma_minus", value),
                            "gap.json", "certify-gap")

    @pytest.mark.parametrize("key, value", [
        ("sigma_minus", 0.0), ("sigma_minus", 1.5), ("sigma_minus", 1e308),
        ("sigma_plus", 0.0), ("sigma_plus", -1.0)])
    def test_gap_not_containing_zero(self, tmp_path, capsys, key, value):
        # certify-gap only writes sigma_minus < 0 < sigma_plus
        self._run_constants(tmp_path, capsys, self._set(key, value),
                            "gap.json", "certify-gap")

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.999])
    def test_truncated_split_file(self, tmp_path, capsys, fraction):
        self._run_constants(tmp_path, capsys, self._truncate(fraction),
                            "split.npy", "certify-gap")

    def test_deleted_split_file(self, tmp_path, capsys):
        self._run_constants(tmp_path, capsys, lambda path: path.unlink(),
                            "split.npy", "certify-gap")

    def test_split_file_of_another_box(self, tmp_path, capsys):
        other = tmp_path / "r3"
        cfg = write_config(tmp_path, name="r3.cfg", **{"box.radius": "3"})
        assert main(["certify-gap", "--config", str(cfg), "--out", str(other)]) == 0
        self._run_constants(
            tmp_path, capsys,
            lambda path: shutil.copyfile(other / "split.npy", path),
            "split.npy", "certify-gap")

    def test_gap_without_split_record(self, tmp_path, capsys):
        self._run_constants(tmp_path, capsys, self._drop("eigenpairs"),
                            "gap.json", "certify-gap")

    @staticmethod
    def _replace_split(data, layout):
        """Write `data` as split.npy and record its hash in gap.json, with
        the layout tag `layout` (None: no tag)."""
        def damage(gap_path):
            (gap_path.parent / "split.npy").write_bytes(data(gap_path.parent))
            gap = json.loads(gap_path.read_text())
            gap["eigenpairs"]["sha256"] = hashlib.sha256(
                (gap_path.parent / "split.npy").read_bytes()).hexdigest()
            if layout is None:
                del gap["eigenpairs"]["layout"]
            else:
                gap["eigenpairs"]["layout"] = layout
            gap_path.write_text(json.dumps(gap))
        return damage

    @pytest.mark.parametrize("layout", [None, "parity-sectors"])
    def test_dense_split_file_rejected(self, tmp_path, capsys, layout):
        # the layout written before the sector blocks: eigenvalues, then one
        # n x n eigenvector matrix.  An output directory certified that way
        # has no layout tag; under the tag the records do not fit the sectors
        def dense(out):
            box = lg.BoxDomain(3, 2)
            operator = lg.assemble_operator(box, lg.checkerboard_potential(3, 1.0))
            values, vectors = np.linalg.eigh(operator.toarray())
            path = out / "dense.npy"
            with open(path, "wb") as fh:
                np.save(fh, values)
                np.save(fh, np.asfortranarray(vectors))
            return path.read_bytes()
        self._run_constants(tmp_path, capsys, self._replace_split(dense, layout),
                            "gap.json", "certify-gap")

    @pytest.mark.parametrize("records", [1, 2, 15])
    def test_split_file_cut_at_record_boundary(self, tmp_path, capsys, records):
        # 8 sectors, 16 records; the hash in gap.json is that of the cut file
        def cut(out):
            data = (out / "split.npy").read_bytes()
            with open(out / "split.npy", "rb") as fh:
                for _ in range(records):
                    np.load(fh)
                return data[:fh.tell()]
        self._run_constants(tmp_path, capsys,
                            self._replace_split(cut, "parity-sectors"),
                            "gap.json", "certify-gap")

    @pytest.mark.parametrize("command", ["constants", "solve"])
    @pytest.mark.parametrize("record", [0, 1], ids=["eigenvalue", "eigenvector"])
    def test_nan_in_split_file(self, tmp_path, capsys, record, command):
        # a NaN passes "<" and ">" comparisons; the hash in gap.json is
        # that of the damaged file
        def poisoned(out):
            eigenpairs = load_eigenpairs(out / "split.npy")
            # sector 0's lowest eigenvalue, or the first entry of its
            # eigenvector, an X^- column
            eigenpairs[0][record].flat[0] = np.nan
            path = out / "poisoned.npy"
            with open(path, "wb") as fh:
                for pair in eigenpairs:
                    for array in pair:
                        np.save(fh, array)
            return path.read_bytes()
        self._run_constants(tmp_path, capsys,
                            self._replace_split(poisoned, "parity-sectors"),
                            "gap.json", "certify-gap", command)

    def test_changed_bloch_grid_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["certify-gap", "--config", str(write_config(tmp_path)),
                     "--out", str(out)]) == 0
        other = write_config(tmp_path, name="grid10.cfg", **{"bloch.grid": "10"})
        capsys.readouterr()
        assert main(["constants", "--config", str(other), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "re-run certify-gap" in err
        assert "Traceback" not in err


class TestPersistedSplit:
    def test_inline_certify_matches_certify_first(self, tmp_path):
        cfg = write_config(tmp_path)
        first, inline = tmp_path / "first", tmp_path / "inline"
        assert main(["certify-gap", "--config", str(cfg), "--out", str(first)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(first)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(inline)]) == 0
        for name in ("solve_summary.json", "solution.field", "run_log.jsonl",
                     "gap.json", "split.npy"):
            assert (first / name).read_bytes() == (inline / name).read_bytes(), name
        gap = json.loads((first / "gap.json").read_text())
        assert gap["eigenpairs"]["file"] == "split.npy"
        assert gap["eigenpairs"]["layout"] == "parity-sectors"


class TestAtomicWrites:
    def test_full_run_leaves_no_temporary_files(self, tmp_path):
        cfg = write_config(tmp_path, **{"rho.mode": "fraction",
                                        "rho.values": "0.2"})
        out = tmp_path / "out"
        for command in ("certify-gap", "constants", "solve", "validate"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "bands.csv", "constants.json", "gap.json", "hypothesis_report.json",
            "kappa_witness.field", "rho_plus_witness.field", "run_log.jsonl",
            "solution.field", "solve_summary.json", "split.npy"]

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "a.json"
        jsonio.dump({"x": 1.0}, path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dump({"x": float("nan")}, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


class TestSolve:
    def test_artifacts_written(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "solve_summary.json").read_text())
        assert summary["c_rho"] > 0
        assert summary["residual_full"] <= 1e-8 * (1 + summary["c_rho"])
        field = lg.read_field(out / "solution.field")
        assert field.box.radius == 2
        log_lines = (out / "run_log.jsonl").read_text().splitlines()
        assert log_lines
        for line in log_lines:
            record = json.loads(line)
            assert set(record) == {"iter", "level", "residual_full",
                                   "residual_minus", "t"}

    @pytest.mark.parametrize("mode", ["absolute", "fraction"])
    def test_negative_zero_rho_written_as_zero(self, tmp_path, mode):
        summaries = []
        for value in ("0", "-0"):
            cfg = write_config(tmp_path, name=f"{value}.cfg",
                               **{"rho.mode": mode, "rho.values": value})
            out = tmp_path / f"out{value}"
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
            summaries.append((out / "solve_summary.json").read_bytes())
        assert b'"rho": 0' in summaries[0]
        assert summaries[1] == summaries[0]

    def test_no_gap_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"potential.amplitude": "0.0"})
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "no spectral gap at 0" in capsys.readouterr().err

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the starts run in-process without fork")
    def test_dead_worker_exits_one(self, tmp_path, capsys, monkeypatch):
        use_cores(monkeypatch, 2)
        monkeypatch.setattr(solver, "_outer_single", exit_in_worker_at(1))
        assert main(["solve", "--config", str(write_config(tmp_path)),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "a multistart worker process died" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_stale_certification_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["certify-gap", "--config", str(write_config(tmp_path)),
                     "--out", str(out)]) == 0
        other = write_config(tmp_path, name="other.cfg",
                             **{"potential.amplitude": "1.5"})
        assert main(["solve", "--config", str(other), "--out", str(out)]) == 2
        assert "re-run certify-gap" in capsys.readouterr().err

    @pytest.mark.parametrize("command, values", [
        ("solve", "0.95"), ("sweep", "0.95, 0.5, 0.2, 0.0")],
        ids=["solve", "sweep"])
    def test_rho_out_of_range_exits_two(self, tmp_path, capsys, command, values):
        # a hypothesis violation, also when the sweep's solve raises it
        cfg = write_config(tmp_path, **{"box.radius": "3",
                                        "rho.values": values,
                                        "rho.mode": "fraction"})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "exceeds 0.9 * rho_max" in err and "Traceback" not in err

    def test_multiple_rhos_rejected_for_solve(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"rho.values": "0.1, 0.0"})
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2

    def test_site_budget_guard(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"box.radius": "9"})
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "budget" in capsys.readouterr().err

    def test_seed_flag_changes_outputs_deterministically(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(cfg), "--out", str(out1),
                     "--seed", "99"]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(out2),
                     "--seed", "99"]) == 0
        assert (out1 / "solution.field").read_bytes() \
            == (out2 / "solution.field").read_bytes()


class TestBadSettings:
    """Non-finite settings and bad coupling lists exit 2 before any work."""

    @staticmethod
    def _refused(tmp_path, capsys, command, *flags, **overrides):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not (out / "solve_summary.json").exists()
        assert not (out / "split.npy").exists()
        return err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rho_rejected(self, tmp_path, capsys, value):
        err = self._refused(tmp_path, capsys, "solve", **{"rho.values": value})
        assert "rho.values" in err

    @pytest.mark.parametrize("key", ["solver.max_boundary_mass",
                                     "potential.amplitude", "potential.shift"])
    def test_non_finite_float_key_rejected(self, tmp_path, capsys, key):
        err = self._refused(tmp_path, capsys, "solve", **{key: "nan"})
        assert key in err

    def test_negative_rho_rejected(self, tmp_path, capsys):
        err = self._refused(tmp_path, capsys, "solve",
                            **{"rho.values": "-0.1"})
        assert "rho.values" in err

    # the last descends to 0 but has fewer than 3 positive couplings
    @pytest.mark.parametrize("values", ["", "0.4, 0.2", "0.2, 0.4, 0.0",
                                        "0.4, 0.2, 0.0"])
    def test_bad_sweep_list_rejected_before_certifying(self, tmp_path, capsys,
                                                        values):
        err = self._refused(tmp_path, capsys, "sweep",
                            **{"rho.mode": "fraction", "rho.values": values})
        assert "rho" in err
        assert not (tmp_path / "out" / "gap.json").exists()

    @pytest.mark.parametrize("flags, overrides, name", [
        ((), {"seed": "-3"}, "seed"),
        (("--seed", "-3"), {}, "--seed")], ids=["config-key", "flag"])
    def test_negative_seed_rejected(self, tmp_path, capsys, flags, overrides, name):
        # the seed reaches np.random.default_rng, which refuses negatives
        err = self._refused(tmp_path, capsys, "solve", *flags, **overrides)
        assert name in err and "seed must be >= 0" in err

    @pytest.mark.parametrize("key, value", [("dimension", "40"),
                                            ("dimension", "0"),
                                            ("bloch.grid", "4"),
                                            ("bloch.grid", "100")])
    def test_geometry_key_out_of_range_rejected(self, tmp_path, capsys,
                                                monkeypatch, key, value):
        # a configuration error (exit 2) named by its key, before Bloch work
        def bloch_band_edges(*args, **kwargs):
            raise AssertionError("Bloch bands computed before the check")

        monkeypatch.setattr(cli, "bloch_band_edges", bloch_band_edges)
        err = self._refused(tmp_path, capsys, "certify-gap", **{key: value})
        assert f"{key} must be" in err

    def test_threads_key_rejected(self, tmp_path):
        # the key had no effect and is gone; the --threads flag is still
        # accepted (and ignored) but must be >= 1
        with pytest.raises(ConfigError, match="unknown config key 'threads'"):
            parse_config(write_config(tmp_path, threads="4"))
        assert main(["certify-gap", "--config", str(write_config(tmp_path)),
                     "--out", str(tmp_path / "out"), "--threads", "0"]) == 2

    @pytest.mark.parametrize("key", [
        "solver.inner_tol", "solver.outer_tol", "solver.polish_tol",
        "solver.polish_entry", "solver.max_inner", "solver.max_outer",
        "solver.max_polish", "solver.newton_switch",
        "solver.certificate_samples", "solver.certificate_tol",
        "solver.boundary_layers"])
    def test_removed_solver_key_rejected(self, tmp_path, capsys, key):
        # the solver's tolerances, caps and certificate settings are constants
        err = self._refused(tmp_path, capsys, "solve", **{key: "1"})
        assert f"unknown config key {key!r}" in err

    @pytest.mark.parametrize("key", ["solver.max_inner", "solver.max_outer",
                                     "solver.max_polish"])
    def test_zero_iteration_cap_rejected(self, tmp_path, capsys, key):
        err = self._refused(tmp_path, capsys, "solve", **{key: "0"})
        assert key.split(".")[1] in err

    @pytest.mark.parametrize("key", ["solver.certificate_tol",
                                     "solver.newton_switch",
                                     "solver.polish_entry"])
    def test_negative_step_tolerance_rejected(self, tmp_path, capsys, key):
        err = self._refused(tmp_path, capsys, "solve", **{key: "-1"})
        assert key.split(".")[1] in err
        assert not (tmp_path / "out" / "gap.json").exists()


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = write_config(
        tmp, **{"box.radius": "3", "rho.mode": "fraction",
                "rho.values": "0.4, 0.2, 0.1, 0.0",
                "solver.multistart": "2",
                "solver.max_boundary_mass": "0.25"})
    out = tmp / "out"
    status = main(["sweep", "--config", str(cfg), "--out", str(out)])
    return status, out


class TestSweep:
    def test_exit_status(self, sweep_out):
        assert sweep_out[0] == 0

    def test_csv_schema(self, sweep_out):
        _, out = sweep_out
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "rho,c_rho,residual,d_to_baseline,sum_G"
        assert len(lines) == 5
        rows = [line.split(",") for line in lines[1:]]
        rhos = [float(r[0]) for r in rows]
        assert rhos == sorted(rhos, reverse=True) and rhos[-1] == 0.0

    def test_report_flags(self, sweep_out):
        _, out = sweep_out
        report = json.loads((out / "report.json").read_text())
        assert report["flags"]["level_ordering_ok"]
        assert (out / "baseline.field").exists()

    def test_no_temporary_files(self, sweep_out):
        _, out = sweep_out
        assert sorted(p.name for p in out.iterdir()) == [
            "baseline.field", "constants.json", "gap.json",
            "kappa_witness.field", "report.json", "rho_plus_witness.field",
            "split.npy", "sweep.csv"]


class TestRepeatedPipeline:
    def test_two_passes_in_one_process_are_byte_identical(self, tmp_path):
        # the benchmark's traced sweep run drives these stages through
        # cli.main in one process, each pass into a fresh directory, and
        # requires every artifact of a later pass to repeat the first's
        cfg = write_config(tmp_path, **{
            "box.radius": "3", "rho.mode": "fraction",
            "rho.values": "0.4, 0.2, 0.1, 0.05, 0.025, 0.0",
            "solver.multistart": "5", "solver.max_boundary_mass": "0.25"})
        outs = [tmp_path / "pass1", tmp_path / "pass2"]
        for out in outs:
            for command in ("certify-gap", "constants", "sweep"):
                assert main([command, "--config", str(cfg), "--out", str(out),
                             "--seed", "7", "--threads", "1"]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert "constants.json" in names and "report.json" in names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestFloatFormatting:
    def test_seventeen_digit_round_trip(self, tmp_path):
        from latticegap import jsonio
        value = 1.0 / 3.0
        text = jsonio.dumps({"x": value})
        assert "0.33333333333333331" in text
        assert json.loads(text)["x"] == value
