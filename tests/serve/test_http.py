"""HTTP edge: wire parity, routing, metrics export, admission control.

The network edge must be transparent: a ``POST /predict`` answer carries
the **bit-identical** scores of calling ``InferenceService.predict``
in-process on the same service (JSON serialises float64 via ``repr``,
the shortest round-tripping form), on every coding scheme.  Everything
else here pins the edge contract: route/status mapping, Prometheus and
JSON metrics exposing *every* stats field, and deterministic 429s when
``max_pending`` admission control trips.
"""

import asyncio
import contextlib
import dataclasses
import json

import numpy as np
import pytest

from repro.coding.burst import BurstCoding
from repro.coding.phase import PhaseCoding
from repro.coding.rate import RateCoding
from repro.coding.reverse import ReverseCoding
from repro.coding.ttfs import TTFSCoding
from repro.serve import InferenceService
from repro.serve.aio import AsyncInferenceService
from repro.serve.http import HttpServer, PredictApp, make_demo_service
from repro.serve.service import ServiceHealth, ServiceStats
from repro.snn.engine import Simulator

SCHEMES = {
    "ttfs": (lambda: TTFSCoding(window=12), None),
    "ttfs_early": (lambda: TTFSCoding(window=12, early_firing=True), None),
    "reverse": (lambda: ReverseCoding(window=10), None),
    "rate": (lambda: RateCoding(), 30),
    "phase": (lambda: PhaseCoding(), 24),
    "burst": (lambda: BurstCoding(), 24),
}


async def fetch(port, method, path, body=None, accept=None, host="127.0.0.1"):
    """One HTTP round trip over a raw asyncio socket (no http.client —
    the test exercises the wire format the server actually emits)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        lines = [
            f"{method} {path} HTTP/1.1",
            f"host: {host}",
            f"content-length: {len(payload)}",
        ]
        if accept is not None:
            lines.append(f"accept: {accept}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + payload)
        await writer.drain()
        raw = await reader.read(-1)  # connection: close -> read to EOF
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()
    head, _, body_bytes = raw.partition(b"\r\n\r\n")
    head_lines = head.split(b"\r\n")
    status = int(head_lines[0].split()[1])
    headers = {}
    for hline in head_lines[1:]:
        name, _, value = hline.partition(b":")
        headers[name.strip().lower().decode("latin-1")] = value.strip().decode(
            "latin-1"
        )
    return status, headers, body_bytes


@contextlib.asynccontextmanager
async def serving(service):
    """The full stack over an ephemeral port; the caller owns ``service``."""
    aio = AsyncInferenceService(service)
    async with HttpServer(PredictApp(aio), port=0) as server:
        yield server


def tiny_service(tiny_network, scheme_key="ttfs", **overrides):
    factory, steps = SCHEMES[scheme_key]
    kwargs = dict(
        capacities=(1, 2, 4),
        max_wait_ms=5.0,
        cache_size=0,
    )
    kwargs.update(overrides)
    return InferenceService(
        Simulator(tiny_network, factory(), steps=steps), **kwargs
    )


class TestWireParity:
    @pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
    def test_predict_bit_identical_over_http(
        self, tiny_network, tiny_data, scheme_key
    ):
        """HTTP scores == in-process scores from the very same service,
        exactly — the JSON wire adds no rounding on any coding scheme."""
        x = tiny_data[2][:3]
        with tiny_service(tiny_network, scheme_key) as service:
            # One sample per request on both sides: identical GEMM shapes.
            ref = [service.predict(sample) for sample in x]

            async def run():
                out = []
                async with serving(service) as server:
                    for sample in x:
                        status, _, body = await fetch(
                            server.port,
                            "POST",
                            "/predict",
                            body={"x": sample.tolist()},
                        )
                        assert status == 200
                        out.append(json.loads(body))
                return out

            answers = asyncio.run(run())
        for answer, expected in zip(answers, ref):
            assert answer["prediction"] == expected.prediction
            assert answer["scores"] == expected.scores.tolist()

    def test_predict_many_over_http(self, tiny_network, tiny_data):
        x = tiny_data[2][:4]
        with tiny_service(tiny_network) as service:
            ref = Simulator(tiny_network, TTFSCoding(window=12)).run(x)

            async def run():
                async with serving(service) as server:
                    status, _, body = await fetch(
                        server.port, "POST", "/predict_many", body={"x": x.tolist()}
                    )
                return status, json.loads(body)

            status, payload = asyncio.run(run())
        assert status == 200
        assert payload["count"] == len(x)
        got = np.array([r["prediction"] for r in payload["results"]])
        np.testing.assert_array_equal(got, ref.predictions)

    def test_request_knobs_reach_the_service(self, tiny_network, tiny_data):
        """priority/deadline_ms ride the JSON body; a bad priority is a
        400 through the same validation the in-process path uses."""
        sample = tiny_data[2][0]
        with tiny_service(tiny_network) as service:

            async def run():
                async with serving(service) as server:
                    ok, _, _ = await fetch(
                        server.port,
                        "POST",
                        "/predict",
                        body={
                            "x": sample.tolist(),
                            "priority": -3,
                            "deadline_ms": 60_000,
                        },
                    )
                    bad, _, body = await fetch(
                        server.port,
                        "POST",
                        "/predict",
                        body={"x": sample.tolist(), "priority": 1.5},
                    )
                return ok, bad, json.loads(body)

            ok, bad, payload = asyncio.run(run())
        assert ok == 200
        assert bad == 400
        assert "priority" in payload["error"]


class TestRoutingAndErrors:
    def test_status_codes(self, tiny_network):
        with tiny_service(tiny_network) as service:

            async def run():
                async with serving(service) as server:
                    cases = []
                    for method, path, body in [
                        ("GET", "/nope", None),  # 404
                        ("GET", "/predict", None),  # 405 (POST-only)
                        ("POST", "/health", None),  # 405 (GET-only)
                        ("POST", "/predict", {}),  # 400 missing "x"
                        ("POST", "/predict", {"x": [["oops"]]}),  # 400 non-numeric
                    ]:
                        status, _, payload = await fetch(
                            server.port, method, path, body=body
                        )
                        cases.append((status, json.loads(payload)))
                    return cases

            cases = asyncio.run(run())
        assert [status for status, _ in cases] == [404, 405, 405, 400, 400]
        assert all("error" in payload for _, payload in cases)

    def test_infinite_deadline_is_400(self, tiny_network, tiny_data):
        """``json.loads`` reads ``Infinity`` as a float; the service's
        positive-and-finite rule turns it into a 400."""
        with tiny_service(tiny_network) as service:

            async def run():
                async with serving(service) as server:
                    body = {"x": tiny_data[2][0].tolist(), "deadline_ms": float("inf")}
                    status, _, payload = await fetch(server.port, "POST", "/predict", body=body)
                    return status, json.loads(payload)

            status, payload = asyncio.run(run())
        assert status == 400
        assert "deadline_ms" in payload["error"]

    def test_invalid_json_body_is_400(self, tiny_network):
        with tiny_service(tiny_network) as service:

            async def run():
                async with serving(service) as server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    blob = b"{not json"
                    writer.write(
                        b"POST /predict HTTP/1.1\r\n"
                        b"content-length: " + str(len(blob)).encode() + b"\r\n"
                        b"\r\n" + blob
                    )
                    await writer.drain()
                    raw = await reader.read(-1)
                    writer.close()
                    return raw

            raw = asyncio.run(run())
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_malformed_request_line_is_400(self, tiny_network):
        """A parse failure never reaches the app; the server answers raw."""
        with tiny_service(tiny_network) as service:

            async def run():
                async with serving(service) as server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(b"BOGUS\r\n\r\n")
                    await writer.drain()
                    raw = await reader.read(-1)
                    writer.close()
                    return raw

            raw = asyncio.run(run())
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_oversized_body_is_413(self, tiny_network):
        with tiny_service(tiny_network) as service:

            async def run():
                async with serving(service) as server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(
                        b"POST /predict HTTP/1.1\r\n"
                        b"content-length: 99999999999\r\n\r\n"
                    )
                    await writer.drain()
                    raw = await reader.read(-1)
                    writer.close()
                    return raw

            raw = asyncio.run(run())
        assert raw.startswith(b"HTTP/1.1 413 ")


class TestHealthAndMetrics:
    def test_health_exports_every_field(self, tiny_network):
        with tiny_service(tiny_network) as service:

            async def run():
                async with serving(service) as server:
                    status, _, body = await fetch(server.port, "GET", "/health")
                return status, json.loads(body)

            status, payload = asyncio.run(run())
        assert status == 200
        assert payload["ok"] is True
        expected = {f.name for f in dataclasses.fields(ServiceHealth)}
        assert expected <= set(payload)

    def test_metrics_prometheus_covers_every_stats_field(
        self, tiny_network, tiny_data
    ):
        sample = tiny_data[2][0]
        with tiny_service(tiny_network) as service:
            service.predict(sample)  # non-zero counters on the wire

            async def run():
                async with serving(service) as server:
                    status, headers, body = await fetch(
                        server.port, "GET", "/metrics"
                    )
                return status, headers, body.decode("utf-8")

            status, headers, text = asyncio.run(run())
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        for field in dataclasses.fields(ServiceStats):
            assert f"repro_service_{field.name}" in text
        for field in dataclasses.fields(ServiceHealth):
            assert f"repro_health_{field.name}" in text
        assert "repro_service_requests 1" in text

    def test_metrics_json_via_accept_header(self, tiny_network):
        with tiny_service(tiny_network) as service:

            async def run():
                async with serving(service) as server:
                    status, headers, body = await fetch(
                        server.port, "GET", "/metrics", accept="application/json"
                    )
                return status, headers, json.loads(body)

            status, headers, payload = asyncio.run(run())
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert set(payload) == {"stats", "health"}
        expected = {f.name for f in dataclasses.fields(ServiceStats)}
        assert expected <= set(payload["stats"])


class TestAdmissionControl:
    def test_queue_full_is_a_deterministic_429(self, tiny_network, tiny_data):
        """With ``max_pending=1`` and a long flush wait, the second
        concurrent request is refused with 429 while the first is parked;
        closing the service flushes the backlog and completes the first."""
        x = tiny_data[2][:2]
        service = tiny_service(
            tiny_network,
            max_wait_ms=5_000.0,
            capacities=(4,),
            max_pending=1,
            dedupe=False,
        )

        async def run():
            loop = asyncio.get_running_loop()
            async with serving(service) as server:
                first = asyncio.ensure_future(
                    fetch(
                        server.port, "POST", "/predict", body={"x": x[0].tolist()}
                    )
                )
                deadline = loop.time() + 5.0
                while service.stats().requests < 1:
                    assert loop.time() < deadline, "first request never queued"
                    await asyncio.sleep(0.005)
                rejected, _, body = await fetch(
                    server.port, "POST", "/predict", body={"x": x[1].tolist()}
                )
                # Flushing the backlog (close is graceful) releases req 1.
                await loop.run_in_executor(None, service.close)
                admitted, _, first_body = await first
                return rejected, json.loads(body), admitted, json.loads(first_body)

        try:
            rejected, payload, admitted, first_payload = asyncio.run(run())
        finally:
            service.close()
        assert rejected == 429
        assert payload["status"] == 429
        assert admitted == 200
        assert "scores" in first_payload


class TestDemoService:
    def test_demo_service_roundtrip(self):
        """The ``python -m repro.serve.http`` demo stack works end to end
        (tiny width/window to keep the suite fast)."""
        service = make_demo_service(
            width=0.25,
            window=8,
            input_shape=(1, 8, 8),
            seed=3,
            max_batch=2,
            max_wait_ms=1.0,
        )
        sample = np.random.default_rng(0).random((1, 8, 8))
        with service:
            ref = service.predict(sample)

            async def run():
                async with serving(service) as server:
                    status, _, body = await fetch(
                        server.port,
                        "POST",
                        "/predict",
                        body={"x": sample.tolist()},
                    )
                return status, json.loads(body)

            status, payload = asyncio.run(run())
        assert status == 200
        assert payload["prediction"] == ref.prediction
        assert payload["scores"] == ref.scores.tolist()
