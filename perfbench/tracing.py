"""Spans recorded by the benchmark around its own calls into squeezefn.

A span has a name, a start, an end, a parent span, an op id and a count (how
many calls a replay loop made inside it).  Spans live in flat typed arrays so
that the grid replay, about 50k cells with three spans each, stays small in
memory; they are written out once, when the benchmark ends.
"""

from __future__ import annotations

import array
import gzip
import json
import time

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.count = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")

    def begin(self, name: str, op_id: int, parent: int = NO_PARENT) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(parent)
        self.op.append(op_id)
        self.count.append(1)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return len(self.start) - 1

    def finish(self, span: int, count: int = 1) -> None:
        self.end[span] = time.perf_counter_ns()
        self.count[span] = count

    def totals(self, name: str, ops=None) -> tuple[int, int, int]:
        """(total ns, total count, spans) of the spans called ``name``,
        restricted to op ids in ``ops`` when given."""
        nid = self._name_ids.get(name)
        ns = calls = spans = 0
        if nid is None:
            return 0, 0, 0
        for i in range(len(self.name)):
            if self.name[i] == nid and (ops is None or self.op[i] in ops):
                ns += self.end[i] - self.start[i]
                calls += self.count[i]
                spans += 1
        return ns, calls, spans

    def durations(self, name: str, ops=None) -> list[int]:
        nid = self._name_ids.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self.name))
                if self.name[i] == nid and (ops is None or self.op[i] in ops)]

    def write(self, path, ops: list[dict], env: dict) -> None:
        """Write every span, the op table and the environment as gzipped JSON."""
        doc = {
            "env": env,
            "ops": ops,
            "span_names": self.names,
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "op": self.op.tolist(),
                "count": self.count.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f)
