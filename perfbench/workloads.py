"""The operations of one round of each workload.

A round is a fixed list of operations.  Each workload's own operations come
from its seeded corpus; the end-to-end metrics that belong to other
workloads are read from a small reference slice with fixed inputs, so every
run reports every metric while its time goes mostly to its own layers.
"""

import itertools
import json
import os
import subprocess
import sys

import checks
import inputs

WORKLOADS = ("selfdual-mixed", "gale-bigint", "certificates", "oracle-sweep")
OWN_GROUPS = {
    "selfdual-mixed": ("selfdual", "cli"),
    "gale-bigint": ("gale", "bigint_selfdual"),
    "certificates": ("strong", "facial", "smooth"),
    "oracle-sweep": ("crosscheck",),
}
REFERENCE_SEED = "reference"
CLI_TIMEOUT_S = 120


class Op:
    """One timed call: ``call()`` is timed, ``check(output)`` is not.

    ``group`` names the metric the time counts toward; None keeps the time
    out of every metric (the known failing operation).  ``reps`` is how many
    times the call runs per round.
    """

    __slots__ = ("group", "call", "check", "reps")

    def __init__(self, group, call, check, reps=1):
        self.group = group
        self.call = call
        self.check = check
        self.reps = reps


def memo(check, render):
    """Run an expensive check once per distinct rendered output."""
    seen = {}

    def run(out):
        key = render(out)
        if key not in seen:
            seen[key] = check(key)
        return seen[key]

    return run


class Context:
    """What building the operations needs: the package, paths, tracing."""

    def __init__(self, td, root, workdir, expected, child_summaries=None):
        self.td = td
        self.root = root
        self.workdir = workdir
        self.expected = expected
        self.child_summaries = child_summaries  # list when the CLI is traced
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")


def selfdual_ops(ctx, corpus):
    td, exp = ctx.td, ctx.expected
    return [Op("selfdual", lambda m=m: td.is_self_dual(td.parse_configuration(m)),
               lambda v, m=m: checks.check_self_dual(exp, m, v.value))
            for m in corpus]


def cli_ops(ctx, corpus, tag):
    ops = []
    for i, m in enumerate(corpus):
        path = os.path.join(ctx.workdir, f"cli-{tag}-{i}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(" ".join(map(str, row)) for row in m) + "\n")
        spans = os.path.join(ctx.workdir, f"cli-{tag}-{i}.spans.json")
        ops.append(Op("cli", lambda p=path, s=spans: run_cli(ctx, p, s),
                      lambda out, m=m: cli_ok(ctx, m, out)))
    return ops


def run_cli(ctx, path, spans):
    args = ["check", "self-dual", path]
    if ctx.child_summaries is None:
        cmd = [sys.executable, "-m", "toricdual.cli"] + args
    else:
        cmd = [sys.executable, os.path.join(ctx.root, "perfbench", "cli_child.py"), spans] + args
    proc = subprocess.run(cmd, capture_output=True, text=True, env=ctx.env, timeout=CLI_TIMEOUT_S)
    if ctx.child_summaries is not None and os.path.exists(spans):
        with open(spans, encoding="utf-8") as fh:
            ctx.child_summaries.append(json.load(fh))
        os.remove(spans)
    return proc.returncode, proc.stdout


def cli_ok(ctx, matrix, out):
    code, stdout = out
    if code != 0:
        return False
    report = json.loads(stdout)
    return checks.check_self_dual(ctx.expected, matrix, report["verdict"])


def gale_ops(ctx, corpus):
    td, exp = ctx.td, ctx.expected
    ops = []
    for m, _ in corpus:
        check = memo(lambda key, m=m: checks.check_gale(m, [list(r) for r in key]),
                     lambda b: tuple(map(tuple, b.matrix.tolist())))
        ops.append(Op("gale", lambda m=m: td.gale_dual(td.parse_configuration(m)), check))
    for m, with_self_dual in corpus:
        if with_self_dual:
            ops.append(Op("bigint_selfdual", lambda m=m: td.is_self_dual(td.parse_configuration(m)),
                          lambda v, m=m: checks.check_self_dual(exp, m, v.value)))
    return ops


def strong_op(ctx, m, want=None, block=None):
    td, exp = ctx.td, ctx.expected

    def check(v):
        if not checks.check_strong_implies_self_dual(exp, m, v.value):
            return False
        if block is not None and not checks.check_lawrence_strong(block, v.value):
            return False
        return want is None or v.value is want

    return Op("strong", lambda: td.is_strongly_self_dual(td.parse_configuration(m)), check)


def strong_ops(ctx, blocks, failing, segre_range=range(2, 9)):
    ops = [strong_op(ctx, inputs.segre(k), True) for k in segre_range]
    ops.append(strong_op(ctx, inputs.STRONG_7X9, True))
    ops += [strong_op(ctx, inputs.lawrence(b), block=b) for b in blocks]
    if failing:
        op = strong_op(ctx, inputs.STRONG_6X16)
        op.group = None
        ops.append(op)
    return ops


def facial_ops(ctx, configs, max_size):
    td = ctx.td
    ops = []
    for m in configs:
        gale = []

        def replay(key, m=m, gale=gale):
            subset, value, witness = key[0], key[1], json.loads(key[2])
            if witness["kind"] == "no_positive_dependency" and not gale:
                gale.extend(td.gale_dual(td.parse_configuration(m)).matrix.tolist())
            return checks.check_facial(m, subset, value, witness, gale)

        for size in range(1, max_size + 1):
            for sub in itertools.combinations(range(len(m[0])), size):
                check = memo(replay, lambda v, s=sub: (s, v.value, json.dumps(v.witness, sort_keys=True)))
                ops.append(Op("facial", lambda m=m, s=sub: td.is_facial(td.parse_configuration(m), s), check))
    return ops


def smooth_ops(ctx, segre_range, products, singular):
    td = ctx.td
    cases = [(inputs.segre(k), True) for k in segre_range]
    cases += [(inputs.simplex_product(*p), True) for p in products]
    cases += [(m, False) for m in singular]
    return [Op("smooth", lambda m=m: td.smooth_certificate(td.parse_configuration(m)),
               lambda v, want=want: v.value is want)
            for m, want in cases]


def crosscheck_ops(ctx, seeds):
    td, exp = ctx.td, ctx.expected
    return [Op("crosscheck", lambda s=s: td.crosscheck(s, 1),
               lambda rep, rows=rows: checks.check_crosscheck(exp, rows, rep))
            for s, rows in seeds]


def own_ops(ctx, workload, seed):
    if workload == "selfdual-mixed":
        corpus = inputs.selfdual_corpus(seed)
        return selfdual_ops(ctx, corpus) + cli_ops(ctx, corpus[:3], "own")
    if workload == "gale-bigint":
        return gale_ops(ctx, inputs.bigint_corpus(seed))
    if workload == "certificates":
        blocks, configs = inputs.certificates_corpus(seed)
        return (strong_ops(ctx, blocks, failing=True) + facial_ops(ctx, configs, 3)
                + smooth_ops(ctx, range(2, 8), [(2, 2), (1, 1, 1)], inputs.SINGULAR))
    return crosscheck_ops(ctx, inputs.oracle_seeds(seed))


# Reference slices: small fixed inputs, each repeated within a round so
# that every per-operation median rests on many samples.
REFERENCE = {
    "selfdual": (lambda ctx: selfdual_ops(ctx, [inputs.family_alpha(2), inputs.segre(3)]
                                          + inputs.selfdual_corpus(REFERENCE_SEED, [(4, 10, 0, 0, "plain")], [])), 8),
    "cli": (lambda ctx: cli_ops(ctx, [inputs.family_alpha(2)], "ref"), 3),
    "gale": (lambda ctx: gale_ops(ctx, inputs.bigint_corpus(REFERENCE_SEED, [(3, 12, 1000, True)])), 4),
    "strong": (lambda ctx: strong_ops(
        ctx, inputs.certificates_corpus(REFERENCE_SEED, lawrence_count=4, facial=[])[0], failing=False,
        segre_range=range(2, 6)), 6),
    "facial": (lambda ctx: facial_ops(
        ctx, inputs.certificates_corpus(REFERENCE_SEED, lawrence_count=0, facial=[(2, 6, 0)])[1], 2), 4),
    "smooth": (lambda ctx: smooth_ops(ctx, range(2, 4), [], inputs.SINGULAR), 4),
    "crosscheck": (lambda ctx: crosscheck_ops(ctx, inputs.oracle_seeds(REFERENCE_SEED, [(5, 2), (6, 2)])), 5),
}


def interleave(ops):
    """Spread each group's operations evenly over the round.

    Machine speed drifts within a run; spreading keeps one group from being
    timed only while the machine is fast or slow.
    """
    by_group = {}
    for op in ops:
        by_group.setdefault(op.group, []).extend([op] * op.reps)
    keyed = []
    for members in by_group.values():
        keyed += [((k + 0.5) / len(members), op) for k, op in enumerate(members)]
    keyed.sort(key=lambda pair: pair[0])
    return [op for _, op in keyed]


def build_round(ctx, workload, seed):
    """The operations of one round, in the order they run (an op repeated
    ``reps`` times appears that many times)."""
    ops = own_ops(ctx, workload, seed)
    for group, (make, reps) in REFERENCE.items():
        if group not in OWN_GROUPS[workload]:
            for op in make(ctx):
                op.reps = reps
                ops.append(op)
    return interleave(ops)
