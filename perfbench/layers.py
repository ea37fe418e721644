"""Per-layer metrics, derived from the spans of one traced pass.

The layers are the oppmix modules.  A span's layer is its name up to the
first dot; "job" marks the root span that job.py puts around each job.  Self
time is a span's duration minus the time its child spans and folded leaves
cover.  Where a group of functions can call each other (complementary calls
complementary_bits over F_2), only the outermost call of the group counts.
"""

from __future__ import annotations

from collections import Counter

from tracer import LAYERS

# name, unit; the same list as "per_layer" in BENCHMARK.json
PER_LAYER = (
    ("linalg.self_s", "s"),
    ("linalg.subspaces_enumerated", "count"),
    ("linalg.pair_tests", "count"),
    ("linalg.pair_hits", "count"),
    ("linalg.bit_rows_calls", "count"),
    ("forms.self_s", "s"),
    ("forms.classify_calls", "count"),
    ("forms.restrict_s", "s"),
    ("gf.self_s", "s"),
    ("gf.op_calls", "count"),
    ("oracle.self_s", "s"),
    ("oracle.partition_calls", "count"),
    ("oracle.partition_builds", "count"),
    ("oracle.partition_hit_ratio", "ratio"),
    ("oracle.subspaces_classified", "count"),
    ("oracle.kept_ratio", "ratio"),
    ("oracle.count_s", "s"),
    ("oracle.biadjacency_s", "s"),
    ("oracle.matrix_s", "s"),
    ("spectrum.self_s", "s"),
    ("exactnum.self_s", "s"),
    ("bounds.self_s", "s"),
    ("bounds.closed_form_tuples", "count"),
    ("bounds.tail_checks", "count"),
    ("cli.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

ENUMERATORS = {"linalg.enumerate_subspaces", "linalg.subspaces_for_pattern"}
PAIR_TESTS = {"linalg.complementary", "linalg.complementary_bits"}
CLASSIFIERS = {"forms.classify_orthogonal_gf2", "forms.symplectic_nondeg_gf2", "forms.restrict"}
# the call whose result decides whether a classified subspace is kept
VERDICTS = {"forms.classify_orthogonal_gf2", "forms.symplectic_nondeg_gf2", "forms.is_nondegenerate"}
PARTITION = {"oracle.classify_partition"}
COUNTERS = {"oracle.count_complementary", "oracle.count_complementary_transitive"}
BIADJACENCY = {"oracle.build_biadjacency"}
MATRIX = {"oracle.annihilator_check", "oracle.mixing_check"}
BOUNDS = {"bounds.bound_orthogonal", "bounds.bound_symplectic", "bounds.bound_unitary"}
TAILS = {"bounds.orthogonal_tail_checks", "bounds.symplectic_tail_checks", "bounds.unitary_tail_checks"}
RESTRICT = {"forms.restrict"}
BIT_ROWS = {"linalg.Subspace.bit_rows"}
CLI_JOB = {"job.cli"}
_GROUPS = (
    ENUMERATORS, PAIR_TESTS, CLASSIFIERS, VERDICTS, PARTITION, COUNTERS, BIADJACENCY,
    MATRIX, BOUNDS, TAILS, BIT_ROWS, CLI_JOB,
)


class _Trace:
    """Index of one job's spans by the groups above."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [e - s for s, e in zip(spans.start, spans.end)]
        wanted = set().union(*_GROUPS)
        self.ids = {nm: nid for nid, nm in enumerate(spans.names) if nm in wanted}
        self.by_name: dict = {nid: [] for nid in self.ids.values()}
        for i, nid in enumerate(spans.name):
            hits = self.by_name.get(nid)
            if hits is not None:
                hits.append(i)

    def group(self, names) -> set:
        return {self.ids[nm] for nm in names if nm in self.ids}

    def spans_of(self, names) -> list:
        return [i for nid in self.group(names) for i in self.by_name[nid]]

    def outermost(self, names) -> list:
        """Spans of the group whose parent is not in the group."""
        gids = self.group(names)
        name, parent = self.spans.name, self.spans.parent
        return [
            i for i in self.spans_of(names) if parent[i] < 0 or name[parent[i]] not in gids
        ]

    def nearest(self, i: int, gids: set) -> int:
        """The closest ancestor of span i in the group, or -1."""
        name, parent = self.spans.name, self.spans.parent
        p = parent[i]
        while p >= 0 and name[p] not in gids:
            p = parent[p]
        return p

    def self_ns(self) -> Counter:
        """Self time per layer, in ns."""
        spans = self.spans
        layer = [nm.split(".", 1)[0] for nm in spans.names]
        cover = list(spans.fold_ns)
        for i, p in enumerate(spans.parent):
            if p >= 0:
                cover[p] += self.dur[i]
        out: Counter = Counter()
        for name, (_calls, ns) in spans.folded.items():
            out[name.split(".", 1)[0]] += ns
        for i, nid in enumerate(spans.name):
            out[layer[nid]] += self.dur[i] - cover[i]
        return out


def derive(traces, overhead_s: float) -> dict:
    """Every PER_LAYER metric, summed over the jobs of one traced pass."""
    self_ns: Counter = Counter()
    c: Counter = Counter()
    for spans in traces:
        t = _Trace(spans)
        self_ns.update(t.self_ns())
        size, dur = spans.size, t.dur

        enumerated = t.outermost(ENUMERATORS)
        c["subspaces_enumerated"] += sum(size[i] for i in enumerated)
        pair_tests = t.outermost(PAIR_TESTS)
        c["pair_tests"] += len(pair_tests)
        c["pair_hits"] += sum(1 for i in pair_tests if size[i])
        c["bit_rows_calls"] += len(t.spans_of(BIT_ROWS))
        c["classify_calls"] += len(t.spans_of(CLASSIFIERS))
        c["restrict_ns"] += sum(dur[i] for i in t.spans_of(RESTRICT))
        c["op_calls"] += sum(
            calls for name, (calls, _ns) in spans.folded.items() if name.startswith("gf.")
        )

        partition = t.group(PARTITION)
        c["partition_calls"] += len(t.spans_of(PARTITION))
        builds = set()
        for i in enumerated:
            owner = t.nearest(i, partition)
            if size[i] and owner >= 0:
                c["classified"] += 1
                builds.add(owner)
        c["partition_builds"] += len(builds)
        c["kept"] += sum(
            1 for i in t.spans_of(VERDICTS) if size[i] and t.nearest(i, partition) >= 0
        )

        c["count_ns"] += sum(dur[i] for i in t.outermost(COUNTERS))
        biadjacency = t.outermost(BIADJACENCY)
        c["biadjacency_ns"] += sum(dur[i] for i in biadjacency)
        matrix = t.group(MATRIX)
        c["matrix_ns"] += sum(dur[i] for i in t.outermost(MATRIX)) - sum(
            dur[i] for i in biadjacency if t.nearest(i, matrix) >= 0
        )
        c["closed_form_tuples"] += len(t.outermost(BOUNDS))
        c["tail_checks"] += sum(size[i] for i in t.spans_of(TAILS))
        c["stdout_bytes"] += sum(size[i] for i in t.spans_of(CLI_JOB))

    calls = c["partition_calls"]
    out = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}
    out.update(
        {
            "linalg.subspaces_enumerated": c["subspaces_enumerated"],
            "linalg.pair_tests": c["pair_tests"],
            "linalg.pair_hits": c["pair_hits"],
            "linalg.bit_rows_calls": c["bit_rows_calls"],
            "forms.classify_calls": c["classify_calls"],
            "forms.restrict_s": c["restrict_ns"] / 1e9,
            "gf.op_calls": c["op_calls"],
            "oracle.partition_calls": calls,
            "oracle.partition_builds": c["partition_builds"],
            "oracle.partition_hit_ratio": (calls - c["partition_builds"]) / calls if calls else 0.0,
            "oracle.subspaces_classified": c["classified"],
            "oracle.kept_ratio": c["kept"] / c["classified"] if c["classified"] else 0.0,
            "oracle.count_s": c["count_ns"] / 1e9,
            "oracle.biadjacency_s": c["biadjacency_ns"] / 1e9,
            "oracle.matrix_s": c["matrix_ns"] / 1e9,
            "bounds.closed_form_tuples": c["closed_form_tuples"],
            "bounds.tail_checks": c["tail_checks"],
            "cli.stdout_bytes": c["stdout_bytes"],
            "trace.overhead_s": overhead_s,
        }
    )
    return {name: out[name] for name, _unit in PER_LAYER}
