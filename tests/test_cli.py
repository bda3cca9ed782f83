"""Command line interface (repro-mcu)."""


import pytest

from repro import cli
from repro.core.policy import QuantPolicy


class TestSearchCommand:
    def test_search_prints_policy_and_memory(self, capsys):
        rc = cli.main(["search", "--resolution", "192", "--width", "0.5",
                       "--device", "stm32h7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "policy for mobilenet_v1_192_0.5" in out
        assert "read-only" in out and "feasible  : True" in out

    def test_search_writes_policy_json(self, tmp_path, capsys):
        path = tmp_path / "policy.json"
        rc = cli.main(["search", "--resolution", "224", "--width", "0.75",
                       "--output", str(path)])
        assert rc == 0
        policy = QuantPolicy.from_json(path.read_text())
        assert len(policy) == 28
        policy.validate()

    def test_search_infeasible_budget_returns_nonzero(self, capsys):
        rc = cli.main(["search", "--resolution", "224", "--width", "1.0",
                       "--flash-mb", "0.1", "--ram-kb", "16"])
        assert rc == 1

    def test_search_method_option(self, capsys):
        rc = cli.main(["search", "--resolution", "192", "--width", "0.5",
                       "--method", "PL+ICN"])
        out = capsys.readouterr().out
        assert rc == 0 and "[PL+ICN]" in out


class TestDeployCommand:
    def test_deploy_report(self, capsys):
        rc = cli.main(["deploy", "--resolution", "224", "--width", "0.75"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "STM32H743" in out and "predicted Top-1" in out

    def test_deploy_with_saved_policy(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        cli.main(["search", "--resolution", "128", "--width", "0.25",
                  "--output", str(path)])
        capsys.readouterr()
        rc = cli.main(["deploy", "--resolution", "128", "--width", "0.25",
                       "--policy", str(path)])
        assert rc == 0

    def test_deploy_budget_override(self, capsys):
        rc = cli.main(["deploy", "--resolution", "224", "--width", "1.0",
                       "--device", "stm32l4"])
        # 224_1.0 cannot fit an STM32L4 even at 2 bit.
        assert rc == 1

    def test_deploy_without_published_baseline_saves_artifact(self, tmp_path, capsys):
        """32x0.25 has no published full-precision Top-1: the accuracy
        line reads n/a, and the artifact is still written and verifies."""
        from repro.analysis import verify_artifact
        from repro.runtime import Session

        path = tmp_path / "model.artifact"
        rc = cli.main(["deploy", "--resolution", "32", "--width", "0.25",
                       "--save-artifact", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "predicted Top-1  : n/a (no published baseline" in out
        assert Session.load(path).options.input_hw == (32, 32)
        assert verify_artifact(path).ok


class TestSweepAndTable:
    def test_sweep_lists_configs(self, capsys):
        rc = cli.main(["sweep", "--device", "stm32h7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "128_0.25" in out and "Pareto frontier" in out

    def test_sweep_all_methods(self, capsys):
        rc = cli.main(["sweep", "--all-methods"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MixQ-PL" in out and "MixQ-PC-ICN" in out

    @pytest.mark.parametrize("name", ["table1", "table2", "table3", "table4"])
    def test_tables_render(self, capsys, name):
        rc = cli.main(["table", name])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table" in out and "|" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])


class TestRunCommand:
    """deploy --save-artifact -> run: the CLI serve round trip."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "model.artifact"
        rc = cli.main(["deploy", "--resolution", "128", "--width", "0.25",
                       "--save-artifact", str(path)])
        assert rc == 0
        return path

    def test_deploy_saves_loadable_artifact(self, artifact, capsys):
        from repro.runtime import Session

        session = Session.load(artifact)
        assert session.options.input_hw == (128, 128)

    def test_run_serves_synthetic_batch(self, artifact, capsys):
        rc = cli.main(["run", str(artifact), "--batch", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "predictions:" in out and "imgs/sec" in out
        assert "activation arena" in out

    def test_run_profile_breakdown(self, artifact, capsys):
        rc = cli.main(["run", str(artifact), "--profile", "--repeats", "1"])
        out = capsys.readouterr().out
        assert rc == 0 and "session profile" in out

    def test_run_npy_input(self, artifact, tmp_path, capsys):
        import numpy as np

        x = np.random.default_rng(0).uniform(0, 1, size=(3, 3, 32, 32))
        np.save(tmp_path / "batch.npy", x)
        rc = cli.main(["run", str(artifact), "--input", str(tmp_path / "batch.npy")])
        out = capsys.readouterr().out
        assert rc == 0 and "ran 3 image(s)" in out

    def test_run_rejects_non_nchw_input(self, artifact, tmp_path, capsys):
        import numpy as np

        np.save(tmp_path / "bad.npy", np.zeros((3, 32, 32)))
        rc = cli.main(["run", str(artifact), "--input", str(tmp_path / "bad.npy")])
        assert rc == 2


class TestArtifactErrorReporting:
    """Satellite contract: missing/corrupt artifacts exit nonzero with a
    one-line ``error:`` message, never a traceback."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-err") / "model.artifact"
        rc = cli.main(["deploy", "--resolution", "128", "--width", "0.25",
                       "--save-artifact", str(path)])
        assert rc == 0
        return path

    def _assert_one_line_error(self, capsys, rc):
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_run_missing_artifact(self, capsys):
        rc = cli.main(["run", "/nonexistent/model.artifact"])
        self._assert_one_line_error(capsys, rc)

    def test_serve_missing_artifact(self, capsys):
        rc = cli.main(["serve", "/nonexistent/model.artifact"])
        self._assert_one_line_error(capsys, rc)

    def test_run_corrupt_artifact(self, artifact, tmp_path, capsys):
        from repro.serving.faults import corrupt_artifact

        bad = corrupt_artifact(artifact, tmp_path / "bad.artifact")
        rc = cli.main(["run", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "CRC32" in err
        assert "Traceback" not in err

    def test_run_partial_artifact(self, artifact, tmp_path, capsys):
        import shutil

        partial = tmp_path / "partial.artifact"
        shutil.copytree(artifact, partial)
        (partial / "blobs.bin").unlink()
        rc = cli.main(["run", str(partial)])
        self._assert_one_line_error(capsys, rc)

    def test_serve_rejects_bad_fault_spec(self, artifact, capsys):
        with pytest.raises(SystemExit):
            cli.main(["serve", str(artifact), "--inject", "gremlins:every=1"])


class TestServeCommand:
    def test_serve_ttl_boots_and_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "model.artifact"
        assert cli.main(["deploy", "--resolution", "128", "--width", "0.25",
                         "--save-artifact", str(path)]) == 0
        capsys.readouterr()
        rc = cli.main(["serve", str(path), "--port", "0", "--ttl", "0.2",
                       "--inject", "kernel:every=100"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "serving on" in out
