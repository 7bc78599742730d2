"""Span wrappers around atiyahlab's public entry points.

The library is not edited; the wrappers replace module and class bindings
for the length of a traced pass.  Each name is wrapped where its caller
looks it up: ``surface.rank`` and
``fat_points.rank_and_kernel`` are separate module bindings of the linalg
functions, ``jobs.min_level`` is the binding the job runners call, and
methods are wrapped on their class.  Span names are ``<layer>.<function>``;
the layer prefix is what per-layer self time is summed over.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

from atiyahlab import (cli, fat_points, fields, funcfield, jobs, linalg,
                       report, riemann_roch, surface)

FAT_POINT_NAMES = ("min_level", "max_multiplicity", "jet_matrix",
                   "verify_jets", "char_p_witness", "fat_system", "h0_fat",
                   "multiplicity_step_check")


def _max_entry_bits(rows) -> int:
    return max((max(abs(f.numerator).bit_length(), f.denominator.bit_length())
                for r in rows for f in r), default=0)


def _linalg_wrapper(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(mat):
        with rec.span(name, rows=mat.nrows, cols=mat.ncols) as sp:
            out = fn(mat)
        sp.attrs["rank"] = out[0] if isinstance(out, tuple) else out
        if mat.field is fields.QQ:
            # opened after the elimination span closed, so the scan counts
            # as tracing cost, not as the caller's self time
            with rec.span("trace.entry_bits"):
                sp.attrs["bits"] = _max_entry_bits(mat.rows)
        return out
    return wrapper


def _span_wrapper(rec, name, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name, **(attrs(*args, **kwargs) if attrs else {})):
            return fn(*args, **kwargs)
    return wrapper


def _run_config_wrapper(rec, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span("jobs.run_config") as sp:
            outer, rec.adopted = rec.adopted, sp.id
            try:
                return fn(*args, **kwargs)
            finally:
                rec.adopted = outer
    return wrapper


def _bindings(rec):
    """(owner, attribute, wrapper factory) for every traced binding."""
    span = functools.partial(_span_wrapper, rec)
    out = [
        (fields.FiniteField, "__init__", lambda f: span("fields.build", f)),
        (surface, "build_cocycle",
         lambda f: span("surface.build_cocycle", f)),
        (surface.AtiyahSurface, "h0", lambda f: span(
            "surface.h0", f,
            lambda self, level, twisted: {"level": level,
                                          "twisted": twisted})),
        (surface.SectionVector, "validate",
         lambda f: span("surface.validate", f)),
        (surface.SectionVector, "transformed",
         lambda f: span("surface.transformed", f)),
        (funcfield.FuncElem, "expand",
         lambda f: span("funcfield.expand", f)),
        (jobs, "run_job", lambda f: span(
            "jobs.run_job", f,
            lambda ctx, spec, index: {"kind": spec.kind})),
        (cli, "run_config", lambda f: _run_config_wrapper(rec, f)),
        (cli, "load_config", lambda f: span("config.load_config", f)),
        (cli, "write_reports", lambda f: span("report.write_reports", f)),
        (report, "report_json_bytes",
         lambda f: span("report.report_json_bytes", f)),
    ]
    for module, names in ((surface, ("rank", "rank_and_kernel")),
                          (fat_points, ("rank_and_kernel", "rank_naive")),
                          (riemann_roch, ("rank_and_kernel",)),
                          (linalg, ("rank",))):  # funcfield imports it lazily
        for n in names:
            out.append((module, n, functools.partial(
                _linalg_wrapper, rec, "linalg." + n)))
    for module in (fat_points, jobs):
        for n in FAT_POINT_NAMES:
            if hasattr(module, n):
                out.append((module, n, functools.partial(
                    span, "fat_points." + n)))
    return out


@contextmanager
def installed(rec):
    """Route every traced binding through ``rec`` until the block ends."""
    saved = []
    try:
        for owner, attr, factory in _bindings(rec):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
