"""Seam flips for the ablation mode.

A flip sets one registered ``repro.seams`` flag away from its default.
Spawned serve pool workers import ``repro`` afresh, so a seam flipped in
the daemon process stays at its default there: the service's chunk
runner is then :func:`flipped_chunk`, bound to the seam names with
``functools.partial``, which flips them once per worker before running
the chunk like :func:`repro.serve.service.run_serve_chunk`.
"""

from __future__ import annotations

_applied: set[str] = set()


def apply_flips(names) -> None:
    """Flip each named seam's flag once per process."""
    from repro import seams

    seams.load_seam_sites()
    for name in names:
        if name in _applied:
            continue
        seam = seams.get(name)
        module = seam.resolve_flag_module()
        setattr(module, seam.flag_attr, not getattr(module, seam.flag_attr))
        _applied.add(name)


def flipped_chunk(flips, specs):
    from repro.serve.service import run_serve_chunk

    apply_flips(flips)
    return run_serve_chunk(specs)
