import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading

import pytest

from photoauth import cli, service
from photoauth.cli import main
from photoauth.service import ENV_PORT

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_serve(monkeypatch):
    """`serve` run in the test process fails at once instead of serving forever."""

    def refuse(config):
        raise AssertionError(f"server started with {config}")

    monkeypatch.setattr(cli, "serve", refuse)


class TestSimulate:
    def test_matching_expectation_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "rtp.json"
        path.write_text(
            json.dumps(
                {
                    "name": "proxy-phish",
                    "kind": "rtp",
                    "seed": 3,
                    "expected": {"kind": "attack-detected"},
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "simulate", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["name"] == "proxy-phish"
        assert report["outcome"]["kind"] == "attack-detected"

    def test_failed_expectation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "wrong.json"
        path.write_text(
            json.dumps(
                {"kind": "otp-baseline", "seed": 1, "expected": {"kind": "attack-blocked"}}
            ),
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "simulate", str(path))
        assert code == 1
        assert json.loads(out)["outcome"]["kind"] == "authorized"

    def test_seed_override_changes_run(self, tmp_path, capsys):
        path = tmp_path / "benign.json"
        path.write_text('{"kind": "benign", "seed": 1}', encoding="utf-8")
        code, out_a, _ = run_cli(capsys, "simulate", str(path), "--seed", "9")
        assert code == 0
        assert json.loads(out_a)["seed"] == 9

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "simulate", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot load scenario" in err

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{no json", encoding="utf-8")
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "scenario",
        [
            {"kind": "teleport"},
            {"kind": "inject", "params": {"placement": "footer"}},
            {"kind": "inject", "params": {"placement": "default"}},
            {"kind": "rtp", "params": {"bogus": 1}},
            {"kind": "rtp", "params": {"fake_domain": "a_b.com"}},
            {"kind": "rtp", "params": {"seed": 4}},
            {"kind": "benign", "params": {"accept": ["microsoft.com"]}},
            {"kind": "benign", "params": {"max_logins": 3}},
            {"kind": "bruteforce", "params": {"guesses": 1, "token_length": 6}},
            {"kind": ["rtp"]},
            {"kind": "rtp", "params": ["fake_domain"]},
            ["rtp"],
        ],
        ids=[
            "unknown-kind",
            "unknown-placement",
            "layout-variant-as-placement",
            "unexpected-param",
            "invalid-domain",
            "seed-as-param",
            "retired-accept",
            "retired-max-logins",
            "retired-token-length",
            "kind-not-a-string",
            "params-not-an-object",
            "not-an-object",
        ],
    )
    def test_unusable_scenario_exits_two(self, tmp_path, capsys, scenario):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 2
        assert out == ""
        assert "cannot load scenario" in err

    @pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
    def test_shipped_scenarios_hold(self, capsys, name):
        code, out, _ = run_cli(capsys, "simulate", os.path.join(SCENARIO_DIR, name))
        assert code == 0
        assert json.loads(out)["name"] == name[: -len(".json")]

    # The file of each attack the former `photoauth attack` command ran.
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", [
        "rtp-lookalike.json",
        "redirect-no-cookie.json",
        "inject-title.json",
        "inject-content.json",
        "inject-picture-in-picture.json",
    ])
    def test_attack_files_hold_with_a_seed_override(self, capsys, name, seed):
        path = os.path.join(SCENARIO_DIR, name)
        code, out, _ = run_cli(capsys, "simulate", path, "--seed", str(seed))
        with open(path, encoding="utf-8") as fh:
            expected = json.load(fh)["expected"]
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == seed
        assert report["outcome"] == expected


# The noisy detector profile of README, and its output at --n 300.
README_PROFILE = {
    "ocr": {"mode": "noisy", "sub_rate": 0.002, "dot_drop_rate_dark": 0.05},
    "addrbar": {"mode": "noisy", "jitter_px": 10.0, "cutoff_prob": 0.05,
                "miss_prob": 0.0, "spurious_prob": 0.0},
}
README_PROFILE_N300 = (
    '{"counts":{"fn":19,"fp":2,"retakes":21,"total":300,"tp":279},'
    '"precision":0.9928825622775801,"recall":0.9362416107382551,"retake_rate":0.07}\n'
)


class TestEvaluate:
    def test_oracle_run(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", "--n", "40", "--seed", "2")
        assert code == 0
        report = json.loads(out)
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0
        assert report["counts"]["total"] == 40

    def test_profile_file_and_domains(self, tmp_path, capsys):
        profile = tmp_path / "noisy.json"
        profile.write_text(
            '{"addrbar": {"mode": "noisy", "miss_prob": 1.0}}', encoding="utf-8"
        )
        code, out, _ = run_cli(
            capsys, "evaluate", "--n", "20", "--profile", str(profile),
            "--domain", "github.com", "--domain", "paypal.com",
        )
        assert code == 0
        report = json.loads(out)
        assert report["recall"] == 0.0
        assert report["counts"]["fn"] == 20

    def test_missing_profile_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "evaluate", "--n", "5", "--profile", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert "cannot load profile" in err

    @pytest.mark.parametrize(
        "args", [["--n", "0"], ["--n", "-3"], ["--n", "5", "--domain", "a_b.com"]]
    )
    def test_bad_arguments_exit_two(self, capsys, args):
        code, out, err = run_cli(capsys, "evaluate", *args)
        assert code == 2
        assert out == ""
        assert err.startswith("cannot evaluate: ")
        assert "Traceback" not in err

    def test_seed_reproducibility(self, capsys):
        _, out_a, _ = run_cli(capsys, "evaluate", "--n", "30", "--seed", "4")
        _, out_b, _ = run_cli(capsys, "evaluate", "--n", "30", "--seed", "4")
        assert out_a == out_b

    @pytest.mark.parametrize("seed_args", [[], ["--seed", "0"]], ids=["no-seed", "seed-0"])
    def test_readme_profile_output_is_pinned(self, tmp_path, capsys, seed_args):
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(README_PROFILE), encoding="utf-8")
        code, out, _ = run_cli(capsys, "evaluate", "--n", "300", "--profile", str(path), *seed_args)
        assert (code, out) == (0, README_PROFILE_N300)

    def test_profile_seed_key_is_ignored(self, tmp_path, capsys):
        outs = []
        for profile in (README_PROFILE, {**README_PROFILE, "seed": 7}):
            path = tmp_path / "noisy.json"
            path.write_text(json.dumps(profile), encoding="utf-8")
            code, out, _ = run_cli(capsys, "evaluate", "--n", "100", "--profile", str(path))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


@pytest.mark.usefixtures("no_serve")
class TestServe:
    @staticmethod
    def loaded_by_serve(*modules: str) -> str:
        """Which of `modules` a fresh interpreter loads to import what `serve` runs."""
        probe = ("import sys, photoauth.cli, photoauth.service; "
                 f"print([m for m in {modules!r} if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": SRC},
                             capture_output=True, text=True, check=True, timeout=60).stdout
        return out.strip()

    def test_imports_neither_the_simulator_nor_the_generator(self):
        assert self.loaded_by_serve("photoauth.simulator", "photoauth.synth") == "[]"

    def test_imports_neither_asyncio_nor_openssl(self):
        assert self.loaded_by_serve("asyncio", "ssl", "_hashlib") == "[]"

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "serve", "--config", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot load config" in err

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"users": {"bob": "fax"}}', encoding="utf-8")
        code, _, err = run_cli(capsys, "serve", "--config", str(path))
        assert code == 2
        assert "cannot load config" in err

    @pytest.mark.parametrize("domains", [["a_b.com"], [5], "microsoft.com"])
    def test_bad_server_domains_exit_two(self, tmp_path, capsys, domains):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"server_domains": domains}), encoding="utf-8")
        code, _, err = run_cli(capsys, "serve", "--config", str(path))
        assert code == 2
        assert "cannot load config" in err

    @staticmethod
    def spawn(tmp_path, **popen) -> subprocess.Popen:
        """`photoauth serve` on port 0 as a child, its stderr piped."""
        config = tmp_path / "serve.json"
        config.write_text(json.dumps({"seed": 5}), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": SRC, ENV_PORT: "0"}
        return subprocess.Popen(
            [sys.executable, "-m", "photoauth.cli", "serve", "--config", str(config)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
            **popen,
        )

    @staticmethod
    def stop(proc, signum) -> bytes:
        """Send `signum` and wait for the child to exit; the rest of its stderr."""
        proc.send_signal(signum)
        try:
            return proc.communicate(timeout=30)[1]
        except subprocess.TimeoutExpired:
            proc.kill()
            raise

    @staticmethod
    def listening_port(proc) -> int:
        assert select.select([proc.stderr], [], [], 30)[0], "server did not start"
        listening = json.loads(proc.stderr.readline())
        port = listening["port"]
        assert listening == {"domain": "microsoft.com", "event": "listening", "port": port}
        assert port != 0
        return port

    def test_serves_and_writes_one_access_line_per_request(self, tmp_path):
        """`photoauth serve` on port 0: the port it bound, one access line per request."""
        with self.spawn(tmp_path) as proc:
            try:
                secrets = self.drive_one_flow(self.listening_port(proc))
            finally:
                err = self.stop(proc, signal.SIGINT)
        assert proc.returncode == 0
        assert err.splitlines() == [
            b'{"body_status": "link-sent", "method": "POST", "path": "/login", "status": 200}',
            b'{"body_status": "photo-required", "method": "GET", "path": "/c/{token}", '
            b'"status": 200}',
            b'{"body_status": "authorized", "method": "POST", "path": "/c/{token}/photo", '
            b'"status": 200}',
            b'{"body_status": "error", "method": "GET", "path": null, "status": 404}',
            b'{"event": "stopped"}',
        ]
        assert not [s for s in secrets if s.encode() in err]

    @pytest.mark.parametrize(
        "signum, sigint_ignored",
        [(signal.SIGTERM, False), (signal.SIGINT, True)],
        ids=["sigterm", "sigint-ignored"],
    )
    def test_a_stop_signal_closes_the_server_and_exits_zero(self, tmp_path, signum,
                                                           sigint_ignored):
        # A process manager stops a service with SIGTERM; a non-interactive
        # shell starts `serve &` with SIGINT ignored.
        ignore = (lambda: signal.signal(signal.SIGINT, signal.SIG_IGN)) if sigint_ignored else None
        with self.spawn(tmp_path, preexec_fn=ignore) as proc:
            conn = http.client.HTTPConnection("127.0.0.1", self.listening_port(proc), timeout=10)
            try:
                conn.request("GET", "/nope")
                assert conn.getresponse().status == 404
            finally:
                err = self.stop(proc, signum)  # the connection is still open
                conn.close()
        assert proc.returncode == 0
        assert err.splitlines() == [
            b'{"body_status": "error", "method": "GET", "path": null, "status": 404}',
            b'{"event": "stopped"}',
        ]

    def test_a_request_sent_before_the_stop_is_answered(self, tmp_path):
        # The child is stopped while the request arrives and the SIGTERM is
        # sent, so its loop has read none of the request when it wakes.
        with self.spawn(tmp_path) as proc:
            conn = http.client.HTTPConnection("127.0.0.1", self.listening_port(proc), timeout=10)
            try:
                conn.request("GET", "/nope")
                assert conn.getresponse().read()  # the connection is accepted and idle
                proc.send_signal(signal.SIGSTOP)
                assert os.WIFSTOPPED(os.waitpid(proc.pid, os.WUNTRACED)[1])
                conn.request("GET", "/nope")
                proc.send_signal(signal.SIGTERM)
                proc.send_signal(signal.SIGCONT)
                assert conn.getresponse().status == 404
                err = proc.communicate(timeout=30)[1]
            finally:
                conn.close()
                if proc.poll() is None:
                    proc.kill()
        assert proc.returncode == 0
        assert err.splitlines() == [
            b'{"body_status": "error", "method": "GET", "path": null, "status": 404}',
            b'{"body_status": "error", "method": "GET", "path": null, "status": 404}',
            b'{"event": "stopped"}',
        ]

    @pytest.mark.parametrize("in_thread", [False, True], ids=["main-thread", "other-thread"])
    def test_serve_restores_the_signal_handlers(self, monkeypatch, capsys, in_thread):
        during, woken = [], []

        def run(server):
            during.append(signal.getsignal(signal.SIGTERM))
            if not in_thread and callable(during[0]):
                # The handler raises nothing; the signal makes the wake-up readable.
                os.kill(os.getpid(), signal.SIGTERM)
                woken.extend(key.data for key, _ in server.selector.select(timeout=10))
            raise KeyboardInterrupt

        monkeypatch.setattr(service.HttpServer, "run", run)
        before = signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)
        if in_thread:  # only the main thread may set a handler
            thread = threading.Thread(target=service.serve, args=(service.Config(port=0),))
            thread.start()
            thread.join(timeout=30)
        else:
            service.serve(service.Config(port=0))
        if in_thread:
            assert (during, woken) == ([before[1]], [])
        else:
            assert len(during) == 1 and during[0] not in before
            assert woken == [service._interrupt]
        assert (signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)) == before
        assert capsys.readouterr().err.splitlines()[-1] == '{"event": "stopped"}'

    @staticmethod
    def drive_one_flow(port: int) -> list[str]:
        """A login, a click, a photo and a 404; returns the token and the session id."""
        from photoauth.synth import ORACLE_PROFILE, generate_layout, simulate_detection
        from photoauth.verify import analysis_to_dict

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            def exchange(method, path, body=None):
                conn.request(method, path, body=None if body is None else json.dumps(body))
                response = conn.getresponse()
                return response.status, json.loads(response.read())

            status, login = exchange("POST", "/login", {"username": "bob"})
            assert (status, login["status"]) == (200, "link-sent")
            digits = login["link"].rsplit("/", 1)[-1]
            assert exchange("GET", f"/c/{digits}")[1]["status"] == "photo-required"
            photo = analysis_to_dict(
                simulate_detection(generate_layout("microsoft.com", seed=1), ORACLE_PROFILE))
            assert exchange("POST", f"/c/{digits}/photo", photo) == (200, {"status": "authorized"})
            assert exchange("GET", "/nope")[0] == 404
        finally:
            conn.close()
        return [digits, login["session_id"]]


def _scenario(**fields):
    return json.dumps({"kind": "rtp", "seed": 1, **fields})


def _profile(**ocr):
    return json.dumps({"ocr": {"mode": "noisy", **ocr}})


# (command, file text, error prefix): each file is refused before any run.
_MALFORMED_INPUTS = {
    "config-not-an-object": ("serve", "[]", "cannot load config"),
    "config-string-int": ("serve", '{"port": "10"}', "cannot load config"),
    "config-bool-float": ("serve", '{"session_ttl_s": true}', "cannot load config"),
    "config-string-seed": ("serve", '{"seed": "abc"}', "cannot load config"),
    "config-nan-ttl": ("serve", '{"session_ttl_s": NaN}', "cannot load config"),
    "config-port-range": ("serve", '{"port": 70000}', "cannot load config"),
    "config-prefix-len": ("serve", '{"colocation_prefix_len": 500}', "cannot load config"),
    "config-prefix-zero": (
        "serve", '{"colocation_mode": "same-network", "colocation_prefix_len": 0}',
        "cannot load config",
    ),
    "scenario-string-int": (
        "simulate",
        json.dumps({"kind": "bruteforce", "params": {"guesses": "many"}}),
        "cannot load scenario",
    ),
    "scenario-string-seed": ("simulate", _scenario(seed="x"), "cannot load scenario"),
    "scenario-string-expected": (
        "simulate", _scenario(expected="authorized"), "cannot load scenario"
    ),
    "scenario-dataclass-param": (
        "simulate", _scenario(params={"detector_profile": {}}), "cannot load scenario"
    ),
    "profile-string-float": ("evaluate", _profile(sub_rate="x"), "cannot load profile"),
    "profile-bool-float": ("evaluate", _profile(sub_rate=True), "cannot load profile"),
    "profile-not-an-object": ("evaluate", "[1]", "cannot load profile"),
    "profile-model-not-an-object": ("evaluate", '{"ocr": []}', "cannot load profile"),
    "profile-unknown-mode": ("evaluate", _profile(mode="Oracle"), "cannot load profile"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
    def test_exits_two_without_a_traceback(self, tmp_path, capsys, monkeypatch, no_serve, case):
        command, text, message = _MALFORMED_INPUTS[case]
        monkeypatch.delenv(ENV_PORT, raising=False)
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        argv = {
            "serve": ["serve", "--config", str(path)],
            "simulate": ["simulate", str(path)],
            "evaluate": ["evaluate", "--n", "5", "--profile", str(path)],
        }[command]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(message)
        assert "Traceback" not in err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_evaluate_requires_n(self):
        with pytest.raises(SystemExit):
            main(["evaluate"])

    def test_attack_command_is_gone(self):
        # A canned attack is a file in scenarios/, run by `simulate`.
        with pytest.raises(SystemExit) as exc:
            main(["attack", "rtp"])
        assert exc.value.code == 2
