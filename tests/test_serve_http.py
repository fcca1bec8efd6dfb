"""End-to-end tests for the service's HTTP front end and CLI modes.

The in-process tests run a real daemon (``run_daemon`` on an ephemeral
port) and a real client (``asyncio.open_connection``) inside one event
loop — actual sockets, actual HTTP bytes, no subprocess cost. The
process-level tests (`TestDaemonProcess`) spawn ``python -m repro
serve`` and exercise what only a subprocess can: SIGTERM drain and the
``--stdin-batch`` pipe mode.
"""

import asyncio
import io
import json
import os
import signal
import subprocess
import sys
import time

from repro.scenario import preset, preset_names
from repro.serve.http import render_response, run_daemon
from repro.serve.service import InlinePool, ScenarioService, report_bytes


def make_service(**overrides):
    options = dict(pool=InlinePool())
    options.update(overrides)
    return ScenarioService(**options)


def src_env():
    """Subprocess environment with ``src/`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + "/src"
    )
    return env


async def read_response(reader):
    head = (await reader.readuntil(b"\r\n\r\n")).decode("ascii")
    status_line, *header_lines = head.split("\r\n")
    status = int(status_line.split(" ")[1])
    headers = {}
    for line in header_lines:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


async def request(port, method, target, body=b"", headers=()):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        lines = [f"{method} {target} HTTP/1.1", "Host: t"]
        lines.extend(f"{n}: {v}" for n, v in headers)
        lines.append(f"Content-Length: {len(body)}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        await writer.drain()
        return await read_response(reader)
    finally:
        writer.close()


def with_daemon(service, client):
    """Run ``client(port)`` against an in-process daemon; returns
    (client result, daemon log text)."""

    async def scenario():
        ready = asyncio.Event()
        stop = asyncio.Event()
        log = io.StringIO()
        daemon = asyncio.ensure_future(
            run_daemon(
                service,
                host="127.0.0.1",
                port=0,
                out=log,
                ready=ready,
                stop=stop,
            )
        )
        await ready.wait()
        port = int(log.getvalue().strip().rsplit(":", 1)[1])
        try:
            result = await client(port)
        finally:
            stop.set()
            await daemon
        return result, log.getvalue()

    return asyncio.run(scenario())


class TestRoutes:
    def test_run_duplicate_returns_identical_bytes(self):
        spec = preset("quickstart")
        expected = report_bytes(spec)
        body = spec.to_json(indent=None).encode()

        async def client(port):
            first = await request(port, "POST", "/run", body)
            second = await request(port, "POST", "/run", body)
            return first, second

        (first, second), log = with_daemon(make_service(), client)
        status1, headers1, body1 = first
        status2, headers2, body2 = second
        assert (status1, status2) == (200, 200)
        assert body1 == expected
        assert body1 == body2
        assert headers1["x-source"] == "computed"
        assert headers2["x-source"] == "lru"
        assert headers1["x-scenario"] == spec.content_hash()
        assert "drained (2 requests" in log

    def test_validation_error_is_structured_400(self):
        payload = preset("quickstart").to_dict()
        payload["protocl"] = "b"

        async def client(port):
            return await request(
                port, "POST", "/run", json.dumps(payload).encode()
            )

        (status, _headers, body), _ = with_daemon(make_service(), client)
        assert status == 400
        decoded = json.loads(body)
        assert decoded["field"] == "protocl"
        assert "protocol" in decoded["suggestions"]

    def test_deeply_nested_body_is_400_and_daemon_keeps_serving(self):
        nested = b"[" * 50000 + b"]" * 50000
        valid = preset("quickstart").to_json(indent=None).encode()

        async def client(port):
            bad = await request(port, "POST", "/run", nested)
            good = await request(port, "POST", "/run", valid)
            return bad, good

        (bad, good), _ = with_daemon(make_service(), client)
        assert bad[0] == 400
        assert "error" in json.loads(bad[2])
        assert good[0] == 200
        assert good[2] == report_bytes(preset("quickstart"))

    def test_introspection_routes(self):
        async def client(port):
            return {
                "healthz": await request(port, "GET", "/healthz"),
                "stats": await request(port, "GET", "/stats"),
                "presets": await request(port, "GET", "/presets"),
                "missing": await request(port, "GET", "/nope"),
                "bad_method": await request(port, "PUT", "/run"),
                "get_run": await request(port, "GET", "/run"),
            }

        results, _ = with_daemon(make_service(), client)
        assert results["healthz"][0] == 200
        health = json.loads(results["healthz"][2])
        assert health["status"] == "ok"
        assert health["draining"] is False
        assert health["degraded"] is False
        assert health["pool_alive"] is True
        assert health["pool_restarts"] == 0
        assert results["stats"][0] == 200
        stats = json.loads(results["stats"][2])
        assert stats["requests"] == 0
        assert stats["draining"] is False
        assert results["presets"][0] == 200
        presets = json.loads(results["presets"][2])["presets"]
        assert set(presets) == set(preset_names())
        assert presets["quickstart"] == preset("quickstart").content_hash()
        assert results["missing"][0] == 404
        assert results["bad_method"][0] == 405
        assert results["get_run"][0] == 405

    def test_keep_alive_serves_many_requests_per_connection(self):
        spec = preset("quickstart")
        body = spec.to_json(indent=None).encode()

        async def client(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                responses = []
                for _ in range(3):
                    writer.write(
                        (
                            "POST /run HTTP/1.1\r\nHost: t\r\n"
                            f"Content-Length: {len(body)}\r\n\r\n"
                        ).encode()
                        + body
                    )
                    await writer.drain()
                    responses.append(await read_response(reader))
                # Connection: close ends the session after the response.
                writer.write(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\nContent-Length: 0\r\n\r\n"
                )
                await writer.drain()
                responses.append(await read_response(reader))
                assert await reader.read() == b""  # server closed
                return responses
            finally:
                writer.close()

        responses, _ = with_daemon(make_service(), client)
        assert [r[0] for r in responses] == [200, 200, 200, 200]
        assert responses[0][2] == responses[2][2]

    def test_malformed_request_is_400_and_closes(self):
        async def client(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"NONSENSE\r\n\r\n")
                await writer.drain()
                return await read_response(reader)
            finally:
                writer.close()

        (status, headers, _body), _ = with_daemon(make_service(), client)
        assert status == 400
        assert headers["connection"] == "close"

    def test_oversized_body_rejected(self):
        async def client(port):
            return await request(
                port,
                "POST",
                "/run",
                headers=(("X-Pad", "x"),),
                body=b"",
            )

        # Claim a huge Content-Length without sending it.
        async def oversized(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(
                    b"POST /run HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 99999999\r\n\r\n"
                )
                await writer.drain()
                return await read_response(reader)
            finally:
                writer.close()

        (status, _h, _b), _ = with_daemon(make_service(), oversized)
        assert status == 413

    def test_render_response_shape(self):
        raw = render_response(200, b"{}", extra_headers=(("X-A", "1"),))
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 2" in head
        assert b"X-A: 1" in head
        assert b"Date:" not in head  # responses stay deterministic
        assert body == b"{}"


class TestDaemonProcess:
    """What needs a real process: signals and pipes."""

    def spawn(self, tmp_path, *extra):
        env = src_env()
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--workers",
                "1",
                "--port-file",
                str(tmp_path / "port.txt"),
                *extra,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def await_port(self, tmp_path, proc, timeout=30.0):
        deadline = time.monotonic() + timeout
        port_file = tmp_path / "port.txt"
        while time.monotonic() < deadline:
            if port_file.exists() and port_file.read_text():
                return int(port_file.read_text())
            if proc.poll() is not None:
                raise AssertionError(
                    f"daemon exited early: {proc.stdout.read()}"
                )
            time.sleep(0.05)
        raise AssertionError("daemon never wrote its port file")

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc = self.spawn(tmp_path)
        try:
            port = self.await_port(tmp_path, proc)
            spec = preset("quickstart")
            body = spec.to_json(indent=None).encode()

            async def client():
                return await request(port, "POST", "/run", body)

            status, _headers, payload = asyncio.run(client())
            assert status == 200
            assert payload == report_bytes(spec)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "listening on http://127.0.0.1" in out
        assert "drained (1 requests: 1 computed" in out

    def test_stdin_batch_in_order_with_errors(self, tmp_path):
        spec = preset("quickstart")
        good = spec.to_json(indent=None)
        bad = json.dumps({**spec.to_dict(), "protocol": "nope"})
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--stdin-batch",
                "--workers",
                "1",
            ],
            input="\n".join([good, good, bad]) + "\n",
            env=src_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1  # one line failed
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == lines[1]  # duplicate spec, identical bytes
        assert lines[0].encode() == report_bytes(spec)
        error = json.loads(lines[2])
        assert error["field"] == "protocol"

    def test_stdin_batch_all_good_exits_zero(self, tmp_path):
        spec = preset("quickstart")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--stdin-batch",
                "--workers",
                "1",
            ],
            input=spec.to_json(indent=None) + "\n",
            env=src_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().encode() == report_bytes(spec)
