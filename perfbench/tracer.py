"""Outside-in layer tracer for the benchmark.

The tracer patches public functions of the fuzzyvault modules (module
attributes and class methods) with wrappers that record one span per call:
name, start, end, parent span and operation id.  Nothing under ``src/`` is
edited; the patches live only in the benchmark process and are removed by
``uninstall``.  Spans do not follow calls into forked pool workers.

Self time of a span is its duration minus the time its child spans cover.
Per-name call counts, inclusive time and self time are aggregated as spans
close, so per-pass layer figures need no second pass over the span list.
Span rows are kept in compact columns only while ``keep_spans`` is set,
because a traced attack pass makes hundreds of thousands of leaf calls.
"""

from __future__ import annotations

import importlib
import random
import time
from array import array
from functools import wraps
from operator import attrgetter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._next_span = 0
        self.op = 0
        self.keep_spans = False
        self._col_id = array("q")
        self._col_name = array("i")
        self._col_start = array("d")
        self._col_end = array("d")
        self._col_parent = array("q")
        self._col_op = array("q")
        self.reset()

    # -- aggregation -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for column in (self._calls, self._total, self._self):
                column.append(0)
        return self._ids[name]

    def reset(self) -> None:
        """Zero the per-name aggregates and counters (start of a pass)."""
        n = len(self.names)
        self._calls = [0] * n
        self._total = [0.0] * n
        self._self = [0.0] * n
        self.counters: dict[str, int] = {}

    def snapshot(self) -> dict:
        """Per-name {calls, total_s, self_s} plus the result counters."""
        layers = {
            name: {
                "calls": self._calls[i],
                "total_s": self._total[i],
                "self_s": self._self[i],
            }
            for i, name in enumerate(self.names)
        }
        return {"layers": layers, "counters": dict(self.counters)}

    def spans(self) -> dict:
        """Kept span rows as numpy columns (one row per closed span)."""
        return {
            "span_id": np.frombuffer(self._col_id, dtype=np.int64),
            "name_id": np.frombuffer(self._col_name, dtype=np.int32),
            "start_s": np.frombuffer(self._col_start, dtype=np.float64),
            "end_s": np.frombuffer(self._col_end, dtype=np.float64),
            "parent_id": np.frombuffer(self._col_parent, dtype=np.int64),
            "op_id": np.frombuffer(self._col_op, dtype=np.int64),
            "names": np.array(self.names),
        }

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """Wrapper of ``fn`` recording a span per call.  ``count(result)``,
        when given, is added to the counter of the same name."""
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            span_id = tracer._next_span
            tracer._next_span = span_id + 1
            frame = [0.0, clock(), span_id]  # child time, start, span id
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                tracer._calls[nid] += 1
                tracer._total[nid] += dur
                tracer._self[nid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if tracer.keep_spans:
                    tracer._col_id.append(span_id)
                    tracer._col_name.append(nid)
                    tracer._col_start.append(frame[1])
                    tracer._col_end.append(end)
                    tracer._col_parent.append(parent)
                    tracer._col_op.append(tracer.op)
            if count is not None:
                tracer.counters[name] = tracer.counters.get(name, 0) + count(result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch the public entry points of every traced layer."""
        # import_module, not attribute access: the package's ``unlock`` name
        # is the function, which shadows the submodule.
        attack, cli, consensus, field, geometry, simulate, unlock, vault = (
            importlib.import_module(f"fuzzyvault.{name}")
            for name in ("attack", "cli", "consensus", "field", "geometry", "simulate",
                         "unlock", "vault")
        )

        targets = [
            (cli, "main", "cli.main", None),
            (simulate, "gen_template", "simulate.gen_template", None),
            (simulate, "recapture", "simulate.recapture", None),
            (cli, "lock", "vault.lock", None),
            (cli, "vault_to_json", "vault.to_json", None),
            (cli, "vault_from_json", "vault.from_json", None),
            (cli, "brute_force_attack", "attack.search", None),
            (vault, "gen_chaff_random", "vault.chaff", len),
            (geometry.PointGrid, "too_close", "geometry.too_close", None),
            (field.PrimeField, "interpolate", "field.interpolate", None),
            (field.PrimeField, "poly_eval", "field.poly_eval", None),
            (consensus.VaultIndex, "__init__", "consensus.index_build", None),
            (consensus.VaultIndex, "count_hits", "consensus.count_hits", None),
            (unlock, "build_unlocking_set", "unlock.match", len),
            (unlock, "consensus_decode", "unlock.decode", attrgetter("candidates")),
        ]
        for owner, attr, name, count in targets:
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr], count))
        crc_check = self.wrap("coding.crc_check", attack.coeffs_pass_crc)
        self._patch(attack, "coeffs_pass_crc", crc_check)
        self._patch(unlock, "coeffs_pass_crc", crc_check)

        # The attacker samples subsets from the generator attack.substream
        # returns; hand it a same-state generator whose sample() is traced.
        traced_random = type(
            "TracedRandom",
            (random.Random,),
            {"sample": self.wrap("attack.sample", random.Random.sample)},
        )
        original = attack.substream

        def traced_substream(seed, label):
            rng = traced_random()
            rng.setstate(original(seed, label).getstate())
            return rng

        self._patch(attack, "substream", traced_substream)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
