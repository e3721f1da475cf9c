"""Result serialization: ray dumps (CSV / JSON lines).

Column order is fixed so dumps diff cleanly; floats are written with
repr (shortest round-trip form), making output bytes a pure function
of the numbers themselves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ConfigError


def dump_columns(b, f):
    cols = ["ray_id", "branch_id", "branch_kind", "s", "t", "x"]
    cols += ["y%d" % (i + 1) for i in range(b)]
    cols += ["z%d" % (a + 1) for a in range(f)]
    cols += ["tau", "xi"]
    cols += ["eta%d" % (i + 1) for i in range(b)]
    cols += ["zeta%d" % (a + 1) for a in range(f)]
    cols += ["p_residual", "sup_order"]
    return cols


@dataclass
class RayDump:
    b: int
    f: int
    rows: list           # one list per sample, matching dump_columns

    @property
    def columns(self):
        return dump_columns(self.b, self.f)


def build_dump(spec, traced):
    """Assemble a RayDump from (ray_id, GbbPath, RegularityRecord) triples.

    Rows are grouped by (ray_id, branch_id) with s monotone within each
    group; the regularity record supplies the sup_order column.
    """
    b, f = spec.b, spec.f
    rows = []
    for ray_id, path, record in traced:
        for branch_id in path.branch_ids():
            branch = path.branches[branch_id]
            segment = branch.segment
            if segment is None:
                continue
            order = str(record.per_branch[branch_id].sup_order)
            p_rel = segment.p_rel
            for i, s in enumerate(segment.s):
                row = [ray_id, branch_id, branch.kind, float(s)]
                row += segment.states[i].tolist()
                row += [abs(float(p_rel[i])), order]
                rows.append(row)
    return RayDump(b=b, f=f, rows=rows)


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_csv(dump):
    lines = [",".join(dump.columns)]
    for row in dump.rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def to_jsonl(dump):
    cols = dump.columns
    lines = []
    for row in dump.rows:
        lines.append(json.dumps(dict(zip(cols, row)), sort_keys=True))
    return "\n".join(lines) + "\n"


def serialize_dump(dump, fmt):
    if fmt == "csv":
        return to_csv(dump)
    if fmt == "jsonl":
        return to_jsonl(dump)
    raise ConfigError("unknown dump format %r" % fmt)

