"""CLI glue for ``python -m repro serve`` and ``python -m repro cache``.

Kept out of :mod:`repro.__main__` so the argparse layer stays a thin
dispatcher and the service wiring (pool/cache/service composition,
stdin-batch driving) is importable and testable on its own.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
from typing import Iterable, TextIO

from repro.errors import ConfigurationError
from repro.runner.parallel import (
    PersistentPool,
    ResultCache,
    prune_cache_dir,
    scan_cache_dir,
)
from repro.serve.http import run_daemon
from repro.serve.service import (
    DEFAULT_BATCH_MAX,
    DEFAULT_BATCH_WINDOW,
    DEFAULT_LRU_SIZE,
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_REQUEST_TIMEOUT,
    InlinePool,
    ScenarioService,
    ServeResult,
)


def build_service(
    *,
    workers: int = 0,
    cache_dir: str | None = None,
    lru_size: int = DEFAULT_LRU_SIZE,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    batch_max: int = DEFAULT_BATCH_MAX,
    batch_window: float = DEFAULT_BATCH_WINDOW,
    request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
    inline: bool = False,
) -> ScenarioService:
    """Compose a service from CLI-level knobs.

    ``cache_dir`` reuses the ``"scenario"`` namespace, so the daemon
    shares its on-disk results with ``scenario run --cache-dir`` sweeps
    in both directions. ``inline=True`` computes in-process (tests,
    tiny batches) instead of spawning a worker pool.
    """
    cache = (
        ResultCache(cache_dir, namespace="scenario")
        if cache_dir is not None
        else None
    )
    pool = InlinePool() if inline else PersistentPool(workers)
    return ScenarioService(
        pool=pool,
        cache=cache,
        lru_size=lru_size,
        queue_limit=queue_limit,
        batch_max=batch_max,
        batch_window=batch_window,
        request_timeout=request_timeout,
    )


async def run_stdin_batch(
    service: ScenarioService,
    lines: Iterable[str],
    out: TextIO,
) -> int:
    """One-shot mode: a JSON spec per input line, a JSON result per output line.

    Results are written in input order. Submission is bounded by the
    service's ``queue_limit`` via a client-side semaphore, so batch mode
    never trips its own backpressure (503s are for live traffic).
    Returns the exit code: 0 if every line answered 200, else 1.
    """
    await service.start()
    gate = asyncio.Semaphore(service.queue_limit)

    async def _one(raw: str) -> ServeResult:
        async with gate:
            return await service.submit_payload(raw)

    tasks = [
        asyncio.ensure_future(_one(line))
        for line in (line.strip() for line in lines)
        if line
    ]
    failures = 0
    for task in tasks:
        result = await task
        out.write(result.body.decode("utf-8") + "\n")
        if not result.ok:
            failures += 1
    out.flush()
    await service.drain()
    return 1 if failures else 0


def serve_command(
    *,
    host: str = "127.0.0.1",
    port: int = 8642,
    workers: int = 0,
    cache_dir: str | None = None,
    lru_size: int = DEFAULT_LRU_SIZE,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    batch_max: int = DEFAULT_BATCH_MAX,
    batch_window: float = DEFAULT_BATCH_WINDOW,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    port_file: str | None = None,
    stdin_batch: bool = False,
) -> int:
    """Entry point behind ``python -m repro serve``."""
    service = build_service(
        workers=workers,
        cache_dir=cache_dir,
        lru_size=lru_size,
        queue_limit=queue_limit,
        batch_max=batch_max,
        batch_window=batch_window,
        request_timeout=request_timeout if request_timeout > 0 else None,
        inline=stdin_batch and workers == 1,
    )
    if stdin_batch:
        return asyncio.run(
            run_stdin_batch(service, sys.stdin, sys.stdout)
        )
    try:
        asyncio.run(
            run_daemon(
                service, host=host, port=port, port_file=port_file
            )
        )
    except KeyboardInterrupt:
        # add_signal_handler already drained on SIGINT where supported;
        # on loops without signal handlers this is the interrupt path.
        pass
    return 0


def cache_stats_command(directory: str, *, as_json: bool = False) -> int:
    """Entry point behind ``python -m repro cache stats``."""
    try:
        stats = scan_cache_dir(directory)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if as_json:
        payload = {
            "directory": stats.directory,
            "entries": stats.entries,
            "bytes": stats.total_bytes,
            "corrupt": stats.corrupt,
            "stale_tmp": stats.stale_tmp,
            "namespaces": {
                name: {"entries": entries, "bytes": size, "corrupt": corrupt}
                for name, entries, size, corrupt in stats.namespaces
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"cache dir: {stats.directory}")
    print(
        f"entries:   {stats.entries} "
        f"({stats.total_bytes} bytes, {stats.corrupt} corrupt, "
        f"{stats.stale_tmp} interrupted writes)"
    )
    for name, entries, size, corrupt in stats.namespaces:
        suffix = f", {corrupt} corrupt" if corrupt else ""
        print(f"  {name}: {entries} entries, {size} bytes{suffix}")
    return 0


#: Size-suffix multipliers ``--max-bytes`` accepts (binary, like du -h).
_SIZE_SUFFIXES = {"": 1, "K": 1024, "M": 1024**2, "G": 1024**3}


def parse_size(text: str) -> int:
    """Parse ``--max-bytes`` values like ``500M``, ``2G``, ``1048576``."""
    raw = text.strip().upper().removesuffix("B")
    suffix = raw[-1:] if raw[-1:] in _SIZE_SUFFIXES and raw[-1:].isalpha() else ""
    number = raw.removesuffix(suffix) if suffix else raw
    try:
        value = float(number)
    except ValueError:
        raise ConfigurationError(
            f"invalid size {text!r}; expected e.g. 1048576, 500M, or 2G"
        ) from None
    if value < 0:
        raise ConfigurationError(f"size must be >= 0, got {text!r}")
    size = value * _SIZE_SUFFIXES[suffix]
    if not math.isfinite(size):
        raise ConfigurationError(f"size must be finite, got {text!r}")
    return int(size)


def cache_prune_command(
    directory: str,
    *,
    max_bytes: str | None = None,
    max_age_days: float | None = None,
    dry_run: bool = False,
) -> int:
    """Entry point behind ``python -m repro cache prune``."""
    try:
        result = prune_cache_dir(
            directory,
            max_bytes=parse_size(max_bytes) if max_bytes is not None else None,
            max_age_s=(
                max_age_days * 86400.0 if max_age_days is not None else None
            ),
            dry_run=dry_run,
        )
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verb = "would remove" if result.dry_run else "removed"
    print(f"cache dir: {result.directory}")
    print(
        f"{verb}:   {result.removed} of {result.examined} entries "
        f"({result.removed_bytes} bytes) and {result.removed_tmp} "
        f"stale tmp file(s)"
    )
    print(f"kept:      {result.kept} entries ({result.kept_bytes} bytes)")
    return 0


__all__ = [
    "build_service",
    "cache_prune_command",
    "cache_stats_command",
    "parse_size",
    "run_stdin_batch",
    "serve_command",
]
