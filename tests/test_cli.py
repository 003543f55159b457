import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latticegap as lg
from latticegap import cli, jsonio, solver
from latticegap.cli import main, parse_config
from latticegap.errors import ConfigError
from latticegap.spectral import read_eigenpairs, split_sectors

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
        assert cfg.box.dimension == 3 and cfg.box.radius == 2
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
        assert cfg.box.radius == 6 and cfg.rho_values == (0.4, 0.2, 0.1, 0.05, 0.0)
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

    @pytest.mark.parametrize("case", ["certified", "inline", "rerun"])
    def test_constants_builds_no_split(self, tmp_path, monkeypatch, case):
        # a fresh `constants` never holds the whole split: it solves the
        # kappa pencil, then reads split.npy's sectors one at a time inside
        # the rho_plus reduction; a re-run next to a matching constants.json
        # reads every sector through its checks and solves no pencil
        cfg = write_config(tmp_path, **{"box.radius": "3"})
        plain, wrapped = tmp_path / "plain", tmp_path / "wrapped"
        if case != "inline":
            for out in (plain, wrapped):
                assert main(["certify-gap", "--config", str(cfg),
                             "--out", str(out)]) == 0
        for out in (plain, wrapped) if case == "rerun" else (plain,):
            assert main(["constants", "--config", str(cfg), "--out", str(out)]) == 0
        events = []
        read_eigenpairs = cli.read_eigenpairs
        best_hardy_constant = cli.best_hardy_constant
        rho_plus = cli.rho_plus

        def no_split(*args, **kwargs):
            raise AssertionError("constants built a whole split")

        def counted_pairs(path):
            for pair in read_eigenpairs(path):
                events.append("pair")
                yield pair

        def kappa(*args, **kwargs):
            events.append("kappa")
            return best_hardy_constant(*args, **kwargs)

        def streamed_rho_plus(split):
            assert isinstance(split, lg.spectral.SectorStream)
            events.append("rho_plus")
            return rho_plus(split)

        monkeypatch.setattr(cli, "spectral_split", no_split)
        monkeypatch.setattr(cli, "read_eigenpairs", counted_pairs)
        monkeypatch.setattr(cli, "best_hardy_constant", kappa)
        monkeypatch.setattr(cli, "rho_plus", streamed_rho_plus)
        assert main(["constants", "--config", str(cfg), "--out", str(wrapped)]) == 0
        pencils = [] if case == "rerun" else ["kappa", "rho_plus"]
        assert events == pencils + ["pair"] * 8
        names = sorted(path.name for path in plain.iterdir())
        assert names == sorted(path.name for path in wrapped.iterdir())
        for name in names:
            assert (plain / name).read_bytes() == (wrapped / name).read_bytes(), name


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
        return err

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

    @pytest.mark.parametrize("key", ["kappa", "fingerprint", "N", "R", "metric"])
    def test_constants_missing_key(self, tmp_path, capsys, key):
        self._run_constants(tmp_path, capsys, self._drop(key),
                            "constants.json", "constants")

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_truncated_gap(self, tmp_path, capsys, fraction):
        self._run_constants(tmp_path, capsys, self._truncate(fraction),
                            "gap.json", "certify-gap")

    @pytest.mark.parametrize("key", ["sigma_minus", "sigma_plus", "potential",
                                     "box_radius", "grid"])
    def test_gap_missing_sigma(self, tmp_path, capsys, key):
        self._run_constants(tmp_path, capsys, self._drop(key),
                            "gap.json", "certify-gap")

    def test_missing_keys_named_once(self, tmp_path, capsys):
        def damage(path):
            self._drop("box_radius")(path)
            self._drop("grid")(path)
        err = self._run_constants(tmp_path, capsys, damage, "gap.json",
                                  "certify-gap")
        assert "gap.json lacks box_radius, grid; re-run certify-gap" in err

    @pytest.mark.parametrize("key, value", [
        ("kappa", "0.5"), ("rho_plus", True), ("rho_tilde_plus", None),
        ("rho_max", [0.1]), ("kappa", float("inf")), ("rho_max", 123.0),
        ("rho_tilde_plus", 0.5),
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

    @pytest.mark.parametrize("name, rerun", [("gap.json", "certify-gap"),
                                             ("constants.json", "constants")])
    def test_artifact_replaced_by_directory(self, tmp_path, capsys, name, rerun):
        def damage(path):
            path.unlink()
            path.mkdir()
        err = self._run_constants(tmp_path, capsys, damage, name, rerun)
        assert f"{name} is unreadable" in err

    @pytest.mark.parametrize("damage", ["truncated", "deleted"])
    def test_damaged_split_before_first_constants(self, tmp_path, capsys,
                                                  damage):
        # the other cases damage files after a successful `constants`; here
        # the first `constants` meets the damaged split and writes nothing
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["certify-gap", "--config", str(cfg), "--out", str(out)]) == 0
        if damage == "truncated":
            self._truncate(0.5)(out / "split.npy")
        else:
            (out / "split.npy").unlink()
        capsys.readouterr()
        assert main(["constants", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "re-run certify-gap" in err and "Traceback" not in err
        for name in ("constants.json", "kappa_witness.field",
                     "rho_plus_witness.field"):
            assert not (out / name).exists(), name

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
            eigenpairs = list(read_eigenpairs(out / "split.npy"))
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

    @pytest.mark.parametrize("command", ["constants", "solve"])
    def test_float32_split_file(self, tmp_path, capsys, command):
        # every record cast to float32; the hash in gap.json is that of the
        # cast file
        def cast(out):
            path = out / "float32.npy"
            with open(path, "wb") as fh:
                for pair in read_eigenpairs(out / "split.npy"):
                    for array in pair:
                        np.save(fh, array.astype(np.float32))
            return path.read_bytes()
        err = self._run_constants(tmp_path, capsys,
                                  self._replace_split(cast, "parity-sectors"),
                                  "gap.json", "certify-gap", command)
        assert "not float64" in err

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


@pytest.fixture(scope="module")
def constants_out(tmp_path_factory):
    """(config, output directory) after `constants` at R = 2."""
    tmp = tmp_path_factory.mktemp("constants")
    cfg = write_config(tmp)
    assert main(["constants", "--config", str(cfg), "--out", str(tmp / "out")]) == 0
    return cfg, tmp / "out"


class TestDamagedArtifactProperty:
    """`constants` over a copy of a certified directory in which gap.json or
    constants.json is cut at any offset, or has one byte overwritten,
    reuses it (exit 0) or asks for a re-run (exit 2), and never raises."""

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["gap.json", "constants.json"]),
           at=st.floats(0.0, 1.0, exclude_max=True),
           byte=st.none() | st.integers(0, 255))
    def test_exits_zero_or_two(self, tmp_path_factory, constants_out, name,
                               at, byte):
        cfg, certified = constants_out
        out = tmp_path_factory.mktemp("damaged") / "out"
        shutil.copytree(certified, out)
        data = (out / name).read_bytes()
        cut = int(at * len(data))
        tail = b"" if byte is None else bytes([byte]) + data[cut + 1:]
        (out / name).write_bytes(data[:cut] + tail)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main(["constants", "--config", str(cfg), "--out", str(out)])
        assert status in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def certified_out(tmp_path_factory):
    """(config, output directory after certify-gap, the constants that
    `constants` computes there) at R = 2."""
    tmp = tmp_path_factory.mktemp("certified")
    cfg, out = write_config(tmp), tmp / "out"
    assert main(["certify-gap", "--config", str(cfg), "--out", str(out)]) == 0
    reference = tmp / "reference"
    shutil.copytree(out, reference)
    assert main(["constants", "--config", str(cfg), "--out", str(reference)]) == 0
    return cfg, out, json.loads((reference / "constants.json").read_text())


def _run_on_split(tmp_path_factory, certified_out, data, command, before=()):
    """In a copy of the certified directory, run the commands `before`, then
    write `data` as split.npy, with its SHA-256 in gap.json so that the
    sector checks decide, not the hash; run `command` there and return its
    status, stderr and directory.  Warnings are not raised as errors here,
    as they are not outside the tests."""
    cfg, certified, _ = certified_out
    out = tmp_path_factory.mktemp("damaged") / "out"
    shutil.copytree(certified, out)
    for first in before:
        assert main([first, "--config", str(cfg), "--out", str(out)]) == 0
    (out / "split.npy").write_bytes(data)
    gap = json.loads((out / "gap.json").read_text())
    gap["eigenpairs"]["sha256"] = hashlib.sha256(data).hexdigest()
    (out / "gap.json").write_text(json.dumps(gap))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        status = main([command, "--config", str(cfg), "--out", str(out)])
    assert "Traceback" not in err.getvalue()
    return status, err.getvalue(), out


def _split_records(path):
    """The byte offset at which each record of split.npy ends."""
    ends = []
    with open(path, "rb") as fh:
        while fh.peek(1):
            np.load(fh)
            ends.append(fh.tell())
    return ends


class TestDamagedSplitProperty:
    """`constants` and `solve` over a split.npy that is cut at any offset or
    has one byte overwritten, and whose damaged hash gap.json records: a
    cut file always exits 1 or 2.  An overwritten byte may escape every
    check (the same byte, a low mantissa byte, a blank in a record header);
    then the split is still the certified one to the residual tolerance,
    and `constants` gives the certified constants."""

    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(["constants", "solve"]),
           header=st.none() | st.integers(0, 15),
           at=st.floats(0.0, 1.0, exclude_max=True),
           byte=st.none() | st.integers(0, 255))
    def test_refused_or_harmless(self, tmp_path_factory, certified_out,
                                 command, header, at, byte):
        # with `header`, the damage falls in that record's 128-byte header
        path = certified_out[1] / "split.npy"
        data = path.read_bytes()
        if header is None:
            cut = int(at * len(data))
        else:
            cut = ([0] + _split_records(path))[header] + int(at * 128)
        tail = b"" if byte is None else bytes([byte]) + data[cut + 1:]
        status, err, out = _run_on_split(tmp_path_factory, certified_out,
                                         data[:cut] + tail, command)
        if status == 0:
            assert byte is not None, "a cut split.npy was accepted"
            if command == "constants":
                written = json.loads((out / "constants.json").read_text())
                reference = certified_out[2]
                assert written["kappa"] == reference["kappa"]
                assert written["rho_plus"] == pytest.approx(
                    reference["rho_plus"], rel=1e-7)
        else:
            assert status in (1, 2), err
            assert status == 1 or "re-run certify-gap" in err, err

    @pytest.mark.parametrize("command", ["constants", "constants-again", "solve"])
    @pytest.mark.parametrize("damage", ["extra-pair", "cut-after-sector-5"])
    def test_damage_found_after_earlier_sectors(self, tmp_path_factory,
                                                certified_out, damage, command):
        # a streaming reader meets these only after five or all eight
        # sectors have passed their checks
        path = certified_out[1] / "split.npy"
        data, ends = path.read_bytes(), _split_records(path)
        assert len(ends) == 16
        if damage == "extra-pair":
            data += data[ends[1]:ends[3]]
        else:
            data = data[:ends[9]]
        # a re-run next to a matching constants.json checks the split too
        before = ("constants",) if command == "constants-again" else ()
        status, err, out = _run_on_split(tmp_path_factory, certified_out, data,
                                         command.removesuffix("-again"), before)
        assert status == 2, err
        assert "re-run certify-gap" in err and "Traceback" not in err
        if command == "constants":
            assert not (out / "constants.json").exists()


class TestSetupMemory:
    """Set-up memory follows the largest parity sector, not the whole split."""

    def test_traced_peak_below_split_size(self, tmp_path):
        # at R = 6 split.npy holds 4.93 MB; each stage once held all of it
        cfg = write_config(tmp_path, **{"box.radius": "6"})
        out = tmp_path / "out"
        peaks = {}
        for stage in ("certify-gap", "constants"):
            tracemalloc.start()
            try:
                assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
                peaks[stage] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        size = (out / "split.npy").stat().st_size
        assert all(peak < size for peak in peaks.values()), (peaks, size)


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

    @pytest.mark.parametrize("radius", [2, 3, 4, 5])
    def test_streamed_writer_matches_in_memory_split(self, tmp_path, radius):
        # certify-gap writes split.npy one sector at a time and hashes it
        # as it writes; each record holds the bytes of the pair that
        # split_sectors computes in memory on the CLI's one BLAS thread
        cfg = write_config(tmp_path, **{"box.radius": str(radius)})
        out = tmp_path / "out"
        assert main(["certify-gap", "--config", str(cfg), "--out", str(out)]) == 0
        gap = json.loads((out / "gap.json").read_text())
        box = lg.BoxDomain(3, radius)
        operator = lg.assemble_operator(box, lg.checkerboard_potential(3, 1.0))
        written = list(read_eigenpairs(out / "split.npy"))
        with cli._one_blas_thread():
            computed = [pair for _, *pair in split_sectors(box, operator)]
        assert len(written) == len(computed) == 8
        for pair, in_memory in zip(written, computed):
            for record, array in zip(pair, in_memory):
                assert record.shape == array.shape
                assert record.flags.f_contiguous == array.flags.f_contiguous
                assert record.tobytes(order="A") == array.tobytes(order="A")
        split = lg.spectral_split(box, operator,
                                  (gap["sigma_minus"], gap["sigma_plus"]), written)
        data = (out / "split.npy").read_bytes()
        assert gap["eigenpairs"]["sha256"] == hashlib.sha256(data).hexdigest()
        assert gap["intrusions"] == split.intrusions
        assert gap["smallest_abs_eigenvalue"] == float(abs(split.eigenvalues).min())


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

    def test_run_log_record_of_any_scalar_is_json(self, tmp_path, monkeypatch):
        # a trace record holding a status, a flag or no value reads back
        extra = {"iter": -1, "ok": True, "note": None, "status": "stalled"}
        solve = cli.solve_ground_state

        def solve_with_extra_record(*args, **kwargs):
            result = solve(*args, **kwargs)
            result.trace.append(extra)
            return result

        monkeypatch.setattr(cli, "solve_ground_state", solve_with_extra_record)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(write_config(tmp_path)),
                     "--out", str(out)]) == 0
        lines = (out / "run_log.jsonl").read_text().splitlines()
        assert json.loads(lines[-1]) == extra
        assert all(isinstance(json.loads(line), dict) for line in lines)

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


def _absolute_solve(fraction):
    """A solve at the absolute coupling `fraction` * rho_max of the box."""
    def setup(tmp_path, out):
        assert main(["constants", "--config", str(write_config(tmp_path)),
                     "--out", str(out)]) == 0
        rho = fraction * json.loads((out / "constants.json").read_text())["rho_max"]
        return ["solve", "--config", str(write_config(
            tmp_path, name="abs.cfg", **{"rho.values": repr(rho)}))], rho
    return setup


def _config_setting(**overrides):
    def setup(tmp_path, out):
        return ["validate", "--config", str(write_config(tmp_path, **overrides))], None
    return setup


def _solve_setting(**overrides):
    def setup(tmp_path, out):
        return ["solve", "--config", str(write_config(tmp_path, **overrides))], None
    return setup


def _config_line(line):
    def setup(tmp_path, out):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + line + "\n")
        return ["validate", "--config", str(path)], None
    return setup


def _missing_config(tmp_path, out):
    return ["validate", "--config", str(tmp_path / "missing.cfg")], None


def _undecodable_config(tmp_path, out):
    path = write_config(tmp_path)
    path.write_bytes(path.read_bytes() + b"# \xff\n")
    return ["validate", "--config", str(path)], None


def _gap_holding_an_array(tmp_path, out):
    cfg = str(write_config(tmp_path))
    assert main(["certify-gap", "--config", cfg, "--out", str(out)]) == 0
    (out / "gap.json").write_text("[]\n")
    return ["solve", "--config", cfg], None


def _out_at(relative):
    """`--out` at `relative` under tmp_path, where out/ is a regular file."""
    def setup(tmp_path, out):
        out.write_text("a file\n")
        return ["validate", "--config", str(write_config(tmp_path)),
                "--out", str(tmp_path / relative)], None
    return setup


class TestRareExits:
    """Exit paths the other tests never take: each exits with its status
    and message, and no traceback."""

    @pytest.mark.parametrize("setup, status, message", [
        (_absolute_solve(0.5), 0, ""),
        (_absolute_solve(0.95), 2, "exceeds 0.9 * rho_max"),
        (_config_setting(**{"rho.mode": "relative"}), 2,
         "rho.mode must be fraction or absolute, got 'relative'"),
        (_config_line("seed 12"), 2, "expected 'key = value', got 'seed 12'"),
        (_missing_config, 2, "cannot read config file"),
        (_undecodable_config, 2, "cannot read config file"),
        (_gap_holding_an_array, 2,
         "gap.json does not hold a JSON object; re-run certify-gap"),
        (_out_at("out"), 2, "cannot create output directory"),
        (_out_at("out/sub"), 2, "cannot create output directory"),
        (_solve_setting(**{"solver.max_boundary_mass": "1e-300"}), 1,
         "every candidate is boundary-localized"),
    ], ids=["absolute", "absolute-above-cap", "unknown-rho-mode",
            "line-without-equals", "unreadable-config", "non-utf8-config",
            "gap-json-array", "out-is-a-file", "out-under-a-file",
            "all-boundary-localized"])
    def test_exit_status_and_message(self, tmp_path, capsys, setup, status,
                                     message):
        out = tmp_path / "out"
        argv, rho = setup(tmp_path, out)
        if "--out" not in argv:
            argv += ["--out", str(out)]
        capsys.readouterr()
        assert main(argv) == status
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        if status == 0:
            assert err == ""
            # the configured absolute coupling is solved and recorded as is
            summary = json.loads((out / "solve_summary.json").read_text())
            assert summary["rho"] == rho

    @pytest.mark.parametrize("command, name", [("certify-gap", "bands.csv"),
                                               ("solve", "solution.field")])
    def test_artifact_write_failure(self, tmp_path, capsys, command, name):
        # the artifact's path is taken by a directory
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main([command, "--config", str(write_config(tmp_path)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {out / name}: " in err
        assert "Traceback" not in err
        assert not list(out.glob(".*.tmp"))
        # bands.csv is written first; solve certifies inline before solving
        assert (out / "gap.json").exists() == (command == "solve")


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

    @pytest.mark.parametrize("key, value, rule", [
        ("dimension", "40", "dimension must be in"),
        ("dimension", "0", "dimension must be in"),
        ("bloch.grid", "4", "grid resolution must be >= 8"),
        ("bloch.grid", "100", "exceeds the Bloch stack bound")],
        ids=["dimension-40", "dimension-0", "bloch.grid-4", "bloch.grid-100"])
    def test_geometry_key_out_of_range_rejected(self, tmp_path, capsys,
                                                monkeypatch, key, value, rule):
        # a configuration error (exit 2) named by its key, before Bloch work
        def bloch_band_edges(*args, **kwargs):
            raise AssertionError("Bloch bands computed before the check")

        monkeypatch.setattr(cli, "bloch_band_edges", bloch_band_edges)
        err = self._refused(tmp_path, capsys, "certify-gap", **{key: value})
        assert f"bad {key}: " in err and rule in err

    @pytest.mark.parametrize("command", ["solve", "validate"])
    @pytest.mark.parametrize("key, value", [("nonlinearity.p", "1.5"),
                                            ("hardy.metric", "taxicab")])
    def test_library_rule_refused_with_its_key(self, tmp_path, capsys,
                                               monkeypatch, command, key, value):
        # the model and the weight refuse their own settings while the
        # config is parsed, and the refusal names the key
        def bloch_band_edges(*args, **kwargs):
            raise AssertionError("Bloch bands computed before the check")

        monkeypatch.setattr(cli, "bloch_band_edges", bloch_band_edges)
        err = self._refused(tmp_path, capsys, command, **{key: value})
        assert key in err
        assert not (tmp_path / "out" / "hypothesis_report.json").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"dimension": "6"}, "above the budget"),
        ({"box.radius": "1"}, "bad box.radius:")], ids=["budget", "radius"])
    def test_validate_checks_the_box(self, tmp_path, capsys, overrides, message):
        # every rule is checked while the config is parsed, so a command
        # that never builds a split refuses a bad box too
        err = self._refused(tmp_path, capsys, "validate", **overrides)
        assert message in err
        assert not (tmp_path / "out" / "hypothesis_report.json").exists()

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


def _blas_thread_counts():
    """The thread count of each bundled OpenBLAS library that `cli` pins."""
    counts = []
    for package, pattern, symbol in cli._OPENBLAS:
        folder = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        get = getattr(ctypes.CDLL(str(sorted(folder.glob(pattern))[0])), symbol % "get")
        get.restype = ctypes.c_int
        counts.append(get())
    return counts


class TestBlasThreads:
    def test_artifacts_do_not_depend_on_the_thread_count(self, tmp_path):
        # dense products sum in an order set by the OpenBLAS thread count;
        # each stage pins both bundled libraries to one thread, so runs
        # started with one and with two threads write the same bytes
        cfg = write_config(tmp_path, **{
            "box.radius": "5", "rho.mode": "fraction", "rho.values": "0.4",
            "solver.multistart": "5", "solver.max_boundary_mass": "0.25"})
        root = Path(__file__).resolve().parent.parent
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(root / "src"),
                       PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            out = tmp_path / f"threads{threads}"
            for command in ("certify-gap", "constants", "solve"):
                proc = subprocess.run(
                    [sys.executable, "-m", "latticegap", command, "--config",
                     str(cfg), "--out", str(out), "--seed", "7"],
                    env=env, capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
                assert proc.stderr == ""
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert "split.npy" in names and "solve_summary.json" in names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_one_thread_during_the_command_and_restored_after(
            self, tmp_path, monkeypatch):
        before = _blas_thread_counts()
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "validate",
                            lambda cfg, out: seen.append(_blas_thread_counts()) or 0)
        assert main(["validate", "--config", str(write_config(tmp_path)),
                     "--out", str(tmp_path / "out")]) == 0
        assert seen == [[1] * len(cli._OPENBLAS)]
        assert _blas_thread_counts() == before

    def test_missing_library_is_one_line_and_the_run_goes_on(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_OPENBLAS", tuple(
            (package, "no-such-library-*.so", symbol)
            for package, _, symbol in cli._OPENBLAS))
        assert main(["certify-gap", "--config", str(write_config(tmp_path)),
                     "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "OpenBLAS of numpy and scipy was not found" in err[0]


class TestFloatFormatting:
    def test_seventeen_digit_round_trip(self, tmp_path):
        from latticegap import jsonio
        value = 1.0 / 3.0
        text = jsonio.dumps({"x": value})
        assert "0.33333333333333331" in text
        assert json.loads(text)["x"] == value

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)  # the least subnormal
    @example(2.2250738585072009e-308)  # the largest subnormal
    @example(1e16)
    @example(100.0)
    @example(sys.float_info.max)
    @example(-sys.float_info.max)
    def test_real_round_trips_every_finite_double(self, x):
        # bit for bit, so -0.0 must read back as -0.0
        assert struct.pack("<d", float(jsonio.real(x))) == struct.pack("<d", x)

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    def test_real_refuses_non_finite(self, x):
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.real(x)


class TestJsonDumps:
    def test_empty_object(self):
        assert jsonio.dumps({}) == "{}\n"

    def test_non_string_key_refused(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            jsonio.dumps({1: 2})

    def test_unsupported_value_refused(self):
        with pytest.raises(TypeError, match="unsupported JSON value: object"):
            jsonio.dumps({"x": object()})


class TestJsonRecord:
    def test_one_line_in_the_given_order(self):
        text = jsonio.record({"z": 1, "a": 0.1, "m": -0.0})
        assert text == '{"z": 1, "a": 0.10000000000000001, "m": -0}'

    def test_bool_none_and_string_are_json(self):
        # the run_log writer before jsonio.record printed True and None as is
        mapping = {"ok": True, "bad": False, "note": None, "status": 'say "hi"'}
        assert json.loads(jsonio.record(mapping)) == mapping

    def test_non_finite_refused(self):
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.record({"level": float("inf")})

    @pytest.mark.parametrize("value", [[1.0], {"a": 1}, object()])
    def test_non_scalar_refused(self, value):
        with pytest.raises(TypeError, match="unsupported JSON value"):
            jsonio.record({"x": value})

    def test_non_string_key_refused(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            jsonio.record({1: 2})
