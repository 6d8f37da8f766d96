"""Quickstart: train a CNN, convert it to a T2FSNN, run TTFS inference.

Runs in under a minute on CPU.  Pipeline:

1. generate a synthetic MNIST-like task (offline stand-in, see DESIGN.md §2);
2. train a small LeNet-style CNN with the numpy framework;
3. convert it to a spiking network (data-based normalization);
4. run T2FSNN inference — every neuron spikes at most once — with and
   without the paper's early-firing pipeline;
5. serve the test set through the throughput runtime: quiescence
   early-exit plus multiprocess batch sharding (``RunConfig(workers=...)``);
6. compile an execution plan — the engine's kernel choices on
   zero-allocation workspace arenas (``RunConfig(compiled=True)``,
   DESIGN.md §10);
7. stand up an online inference service — single-sample requests
   micro-batched onto the compiled plans, with per-request latency and a
   result cache (``T2FSNN.serve()``, DESIGN.md §11);
8. serve with reliability controls — per-request deadlines
   (``submit(deadline_ms=...)``) and the ``service.health()`` snapshot
   (circuit-breaker state, drop counters — DESIGN.md §13);
9. anytime inference under compute budgets — ``RunConfig(budget_ms=...)``
   seals a truncated run into an honest partial answer, and the serving
   flush watchdog abandons a hung micro-batch and recovers (DESIGN.md §14);
10. the network edge — ``await`` predictions from asyncio coroutines
    (priorities, adaptive flush wait) and serve them over HTTP with the
    stdlib-only server (DESIGN.md §16).

Every execution mode is one ``repro.runtime.RunConfig`` away: the model
dispatches through a registry of backends (serial / compiled / parallel /
service — DESIGN.md §12), so the call sites below differ only in config.

Usage::

    python examples/quickstart.py

The contracts this script leans on — frozen ``run``/``serve``
signatures, dtype-pinned hot paths, injectable clocks, lock-guarded
service stats — are mechanically enforced by the repo's own AST linter
(``python -m repro.lint src tests --strict``, DESIGN.md §15).
"""

from repro import convert, core, datasets, nn
from repro.runtime import RunConfig


def main() -> None:
    print("== 1. data ==")
    task = datasets.synthetic_mnist(n_train=800, n_test=300)
    x_train, y_train, x_test, y_test = task.train_test()
    print(f"task: {task}")

    print("\n== 2. train the source DNN ==")
    model = nn.lenet(width=0.25, rng=0)
    trainer = nn.Trainer(model, nn.Adam(model.params(), lr=2e-3), rng=1)
    trainer.fit(x_train, y_train, epochs=8, batch_size=32, verbose=True)
    dnn_acc = trainer.evaluate(x_test, y_test)
    print(f"DNN test accuracy: {dnn_acc * 100:.2f}%")

    print("\n== 3. convert to SNN ==")
    network = convert.convert_to_snn(model, x_train[:512])
    print(f"stages: {network.stage_names()}")
    print(f"weight layers L = {network.num_weight_layers}, "
          f"neurons = {network.total_neurons}")
    analog_acc = (network.predict_analog(x_test) == y_test).mean()
    print(f"analog (value-domain) accuracy after normalization: {analog_acc * 100:.2f}%")

    print("\n== 4. T2FSNN inference (TTFS coding) ==")
    snn = core.T2FSNN(network, window=10)
    result = snn.run(x_test, y_test, config=RunConfig(batch_size=100))
    print(f"baseline pipeline:     {result.summary()}")

    snn.early_firing = True
    result_ef = snn.run(x_test, y_test, config=RunConfig(batch_size=100))
    print(f"early-firing pipeline: {result_ef.summary()}")
    saved = 1 - result_ef.decision_time / result.decision_time
    print(f"early firing saved {saved * 100:.1f}% latency "
          f"({result.decision_time} -> {result_ef.decision_time} steps)")

    print("\n== 5. throughput runtime ==")
    import time

    snn.early_firing = False
    t0 = time.perf_counter()
    serial = snn.run(x_test, y_test, config=RunConfig(batch_size=100))
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    # Mini-batches sharded across worker processes ("parallel" backend);
    # merges exactly like the serial path (identical predictions and
    # spike counts).
    parallel = snn.run(
        x_test, y_test, config=RunConfig(workers=2, batch_size=100)
    )
    t_par = time.perf_counter() - t0
    assert (parallel.predictions == serial.predictions).all()
    print(f"serial:              {len(x_test) / t_serial:7.1f} samples/s")
    print(f"workers=2:           {len(x_test) / t_par:7.1f} samples/s")
    print(f"executed steps {serial.steps} of {serial.decision_time} scheduled "
          "(quiescence early-exit trims idle tail steps)")

    print("\n== 6. compiled execution plan ==")
    # The "compiled" backend: the engine's kernel choices on zero-allocation
    # workspace arenas reused across batches (DESIGN.md §10).  Loss-free:
    # identical predictions and spike counts to the uncompiled engine.  The
    # model's runtime caches the compiled simulator, so the second call
    # reuses the warmed plan.
    compiled_cfg = RunConfig(compiled=True, batch_size=100)
    snn.run(x_test, y_test, config=compiled_cfg)  # compile + warm the arenas
    t0 = time.perf_counter()
    compiled = snn.run(x_test, y_test, config=compiled_cfg)
    t_comp = time.perf_counter() - t0
    assert (compiled.predictions == serial.predictions).all()
    print(f"compiled plan:       {len(x_test) / t_comp:7.1f} samples/s "
          f"({t_serial / t_comp:.2f}x over serial)")
    plan = snn.runtime.compiled_simulator().compile(batch_size=100)
    print(plan.describe())

    print("\n== 7. online inference service ==")
    # Requests arrive one sample at a time; the service coalesces them
    # into micro-batches (flush on max_batch or max_wait_ms) over the
    # compiled-plan pool, an LRU cache replays repeated inputs, and
    # identical concurrent submissions dedupe onto one in-flight request.
    # Predictions are bit-identical to the batch engine's (DESIGN.md §11).
    with snn.serve(max_batch=32, max_wait_ms=2.0, cache_size=128) as service:
        t0 = time.perf_counter()
        results = service.predict_many(x_test[:100])
        t_serve = time.perf_counter() - t0
        assert all(
            r.prediction == p
            for r, p in zip(results, serial.predictions[:100])
        )
        repeat = service.predict(x_test[0])  # served from the cache
        lat = sorted(r.latency_s for r in results)
        stats = service.stats()
        print(f"served 100 requests: {100 / t_serve:7.1f} samples/s "
              f"(mean micro-batch {stats.mean_flush_size:.1f})")
        print(f"request latency p50={lat[50] * 1e3:.1f}ms "
              f"p99={lat[99] * 1e3:.1f}ms; repeat request cached={repeat.cached}")

    print("\n== 8. reliability: deadlines and health ==")
    # Every submission can carry a deadline bounding its time in the
    # queue: a request whose micro-batch has not started executing by
    # then is rejected with DeadlineExceeded and costs no compute.
    # service.health() reports whether the service is serving as
    # configured (circuit-breaker state, drop counters — DESIGN.md §13).
    from repro.reliability import DeadlineExceeded

    with snn.serve(max_batch=32, max_wait_ms=50.0, cache_size=0) as service:
        future = service.submit(x_test[0], deadline_ms=5_000)
        result = future.result(timeout=30.0)
        print(f"deadline-bounded request served: prediction={result.prediction}")
        # An impossible deadline: expired in the queue, never flushed.
        doomed = service.submit(x_test[1], deadline_ms=0.001)
        try:
            doomed.result(timeout=10.0)
        except DeadlineExceeded as exc:
            print(f"1us deadline rejected as expected: {exc}")
        health = service.health()
        print(f"health: status={health.status} breaker={health.breaker} "
              f"expired={health.deadline_expired}")
    # A service-wide default deadline is one config away:
    #     snn.serve(config=RunConfig(deadline_ms=100))

    print("\n== 9. anytime inference: compute budgets and the flush watchdog ==")
    # deadline_ms bounded *waiting*; budget_ms bounds *execution*
    # (DESIGN.md §14).  A budgeted batch run checks the budget every step
    # and, on expiry, seals what it has into an AnytimeResult — scores,
    # predictions and confidence margins for every sample — instead of
    # raising.  A generous budget never binds and matches the unbudgeted
    # run bit for bit.
    anytime = snn.run(x_test, y_test, config=RunConfig(budget_ms=60_000))
    print(f"generous budget:  accuracy={anytime.accuracy * 100:.2f}% "
          f"exhausted={anytime.budget_exhausted} "
          f"steps={anytime.steps_executed}")
    tight = snn.run(x_test, y_test, config=RunConfig(budget_ms=0.001))
    print(f"1us budget:       accuracy={tight.accuracy * 100:.2f}% "
          f"exhausted={tight.budget_exhausted} "
          f"(the honest zero-evidence answer: the class prior)")

    # Under serve, a dispatched flush inherits the tightest member budget
    # as its execution deadline.  If the flush overruns it — here forced
    # with the deterministic flush.hang fault point — the watchdog
    # abandons it, settles every member, rebuilds the worker shard, and
    # the service degrades gracefully instead of wedging.
    from repro.reliability import FaultSpec, faults

    with snn.serve(max_batch=8, max_wait_ms=2.0, cache_size=0) as service:
        with faults.inject(FaultSpec(faults.FLUSH_HANG, times=1, delay_ms=2_000)):
            t0 = time.perf_counter()
            hung = service.submit(x_test[0], budget_ms=150)
            try:
                hung.result(timeout=30.0)
            except DeadlineExceeded:
                settled_ms = (time.perf_counter() - t0) * 1e3
                print(f"hung flush abandoned by the watchdog in "
                      f"{settled_ms:.0f}ms (the hang itself was 2000ms)")
            health = service.health()
            print(f"after the hang: status={health.status} "
                  f"watchdog_timeouts={health.watchdog_timeouts} "
                  f"degrade_level={health.degrade_level}")
            # The next request executes on rebuilt state and succeeds; a
            # clean budgeted flush walks the degrade ladder back down.
            recovered = service.submit(x_test[0], budget_ms=60_000).result(
                timeout=30.0
            )
            assert recovered.prediction == serial.predictions[0]
            assert not recovered.partial
        health = service.health()
        print(f"recovered: prediction={recovered.prediction} "
              f"margin={recovered.margin:.3f} status={health.status}")

    print("\n== 10. the network edge: asyncio and HTTP (DESIGN.md §16) ==")
    # AsyncInferenceService bridges the threaded service onto the event
    # loop: coroutines `await` predictions, the loop never blocks, and
    # `priority=` reorders the flush queue (lower = more urgent).  With
    # adaptive_wait=True the flush wait stretches to the observed arrival
    # rate instead of taxing every request with a fixed max_wait_ms.
    import asyncio
    import json as _json

    from repro.serve.aio import AsyncInferenceService
    from repro.serve.http import HttpServer, PredictApp

    async def edge_demo() -> None:
        service = snn.serve(
            max_batch=32, max_wait_ms=2.0, cache_size=0, adaptive_wait=True
        )
        async with AsyncInferenceService(service) as aio:
            results = await asyncio.gather(
                *(aio.predict(x, priority=-i) for i, x in enumerate(x_test[:8]))
            )
            got = [r.prediction for r in results]
            assert got == list(serial.predictions[:8])
            print(f"awaited 8 concurrent predictions: {got}")

            # The same service over HTTP — stdlib server, ephemeral port.
            # Against a long-lived `python -m repro.serve.http` these are:
            #     curl -s localhost:8080/health
            #     curl -s localhost:8080/metrics          # Prometheus text
            #     curl -s -X POST localhost:8080/predict \
            #          -d '{"x": [[...]], "priority": -5, "deadline_ms": 250}'
            async with HttpServer(PredictApp(aio), port=0) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                body = _json.dumps({"x": x_test[0].tolist()}).encode()
                writer.write(
                    b"POST /predict HTTP/1.1\r\n"
                    + f"content-length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                raw = await reader.read(-1)
                writer.close()
                answer = _json.loads(raw.partition(b"\r\n\r\n")[2])
                assert answer["prediction"] == serial.predictions[0]
                print(f"HTTP POST /predict on :{server.port} -> "
                      f"prediction={answer['prediction']} "
                      f"latency={answer['latency_ms']:.1f}ms")
        service.close()

    asyncio.run(edge_demo())


if __name__ == "__main__":
    main()
