"""Seeded mini-C program families with answers known by construction.

Each generator returns a `Case`: the source text (one statement per line,
like the test corpus) and the answer lockshift must give on it. The answer
is derived from how the program was built, never by running lockshift:

* `global_lock_map` and `struct_lock_map` of the lock summary;
* entry and return lock sets of the named functions;
* the exact set of functions the ownership checker rejects.

The same (family, size, seed) always yields the same bytes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class Case:
    source: str
    global_lock_map: dict[str, str]
    struct_lock_map: dict[str, dict[str, str]]
    # function -> (sorted entry lock texts, sorted return lock texts)
    locks: dict[str, tuple[list[str], list[str]]]
    rejected: frozenset[str]


def call_chain(n: int, seed: int) -> Case:
    """`n` tiny functions in one acyclic chain under `main`.

    f0 acquires m and main acquires w; main releases both after the call.
    So w passes through every f_i (entry [w]) and m comes back out of every
    one (return [m, w]). The seed only adds accesses whose held locks are
    fixed by their position: k before the call holds w, n after it holds
    m and w. Ties between m and w break to m, so n maps to m and k to w.
    """
    rng = random.Random(seed)
    lines = ["int n;", "int k;", "mutex_t m;", "mutex_t w;",
             "void f0() {", "    pthread_mutex_lock(&m);",
             "    n = n + %d;" % rng.randint(1, 9), "}"]
    for i in range(1, n):
        lines.append("void f%d() {" % i)
        if rng.random() < 0.3:
            lines.append("    k = k + %d;" % rng.randint(1, 9))
        lines.append("    f%d();" % (i - 1))
        if rng.random() < 0.3:
            lines.append("    n = n + %d;" % rng.randint(1, 9))
        lines.append("}")
    lines += ["void main() {", "    pthread_mutex_lock(&w);", "    k = k + 1;",
              "    f%d();" % (n - 1), "    n = n + 1;",
              "    pthread_mutex_unlock(&m);", "    pthread_mutex_unlock(&w);", "}"]
    locks = {"f%d" % i: (["w"], ["m", "w"]) for i in range(n)}
    locks["main"] = ([], [])
    return Case("\n".join(lines) + "\n", {"n": "m", "k": "w"}, {}, locks,
                frozenset())


_LOCKS = 8
_GLOBALS = 64


class _WideBody:
    """Thread bodies of nested if/while and non-nested lock blocks.

    Global g_i belongs to lock m_(i mod 8) and is only touched while that
    lock, and no other, is held. One global per lock is racy: it is also
    touched bare from a thread, so it must stay out of the lock map. The
    branch flag c is only read, so it is never protected either.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.racy = {k: k + _LOCKS * rng.randrange(_GLOBALS // _LOCKS)
                     for k in range(_LOCKS)}
        self.written: set[int] = set()
        self.bare: set[int] = set()

    def owned(self, k: int) -> list[int]:
        return list(range(k, _GLOBALS, _LOCKS))

    def body(self, budget: int, depth: int, held: int | None) -> list[str]:
        out: list[str] = []
        while len(out) < budget:
            out += self.stmt(budget - len(out), depth, held)
        return out

    def access(self, k: int, pad: str) -> list[str]:
        rng = self.rng
        g = rng.choice(self.owned(k))
        if rng.random() < 0.6:
            self.written.add(g)
            src = rng.choice(self.owned(k))
            return ["%sg%d = g%d + %d;" % (pad, g, src, rng.randint(1, 9))]
        return ["%sg%d;" % (pad, g)]

    def stmt(self, budget: int, depth: int, held: int | None) -> list[str]:
        rng = self.rng
        pad = "    " * depth
        roll = rng.random()
        nest = depth < 4 and budget > 4
        if held is not None:
            if roll < 0.7 or not nest:
                return self.access(held, pad)
            g = rng.choice(self.owned(held))
            inner = self.body(min(budget - 2, rng.randint(1, 6)), depth + 1, held)
            kw = "if" if roll < 0.85 else "while"
            return ["%s%s (g%d < %d) {" % (pad, kw, g, rng.randint(1, 99))] + inner + [pad + "}"]
        if roll < 0.08 or budget < 3:
            g = self.racy[rng.randrange(_LOCKS)]
            self.bare.add(g)
            return ["%sg%d = g%d + 1;" % (pad, g, g)]
        if roll < 0.6 or not nest:
            k = rng.randrange(_LOCKS)
            inner = self.body(min(budget - 2, rng.randint(1, 12)), depth, k)
            return (["%spthread_mutex_lock(&m%d);" % (pad, k)] + inner
                    + ["%spthread_mutex_unlock(&m%d);" % (pad, k)])
        inner = self.body(min(budget - 3, rng.randint(2, 24)), depth + 1, None)
        if roll < 0.8:
            orelse = self.body(rng.randint(1, 8), depth + 1, None)
            return [pad + "if (c) {"] + inner + [pad + "} else {"] + orelse + [pad + "}"]
        return [pad + "while (c) {"] + inner + [pad + "}"]

    def finish(self) -> list[str]:
        """Guarantee the construction's promises: every protected global has
        a write under its lock, and every racy one a bare access."""
        out: list[str] = []
        for k in range(_LOCKS):
            todo = [g for g in self.owned(k) if g not in self.written
                    and g != self.racy[k]]
            if todo:
                out.append("    pthread_mutex_lock(&m%d);" % k)
                out += ["    g%d = g%d + 1;" % (g, g) for g in todo]
                out.append("    pthread_mutex_unlock(&m%d);" % k)
        out += ["    g%d = g%d + 1;" % (g, g)
                for g in sorted(set(self.racy.values()) - self.bare)]
        return out


_THREADS = 4
_FLAKY = 2


def wide_body(stmts: int, seed: int) -> Case:
    """4 thread entries of about `stmts` statements each, plus 2 entries
    with a conditional acquire that the checker rejects."""
    rng = random.Random(seed)
    w = _WideBody(rng)
    lines = ["int g%d;" % i for i in range(_GLOBALS)]
    lines += ["int c;", "thread_t t;"]
    lines += ["mutex_t m%d;" % k for k in range(_LOCKS)]
    locks: dict[str, tuple[list[str], list[str]]] = {"main": ([], [])}
    for i in range(_THREADS):
        body = w.body(stmts, 1, None)
        if i == _THREADS - 1:
            body += w.finish()
        lines += ["void worker%d() {" % i] + body + ["}"]
        locks["worker%d" % i] = ([], [])
    flaky_names = []
    for i in range(_FLAKY):
        k = rng.randrange(_LOCKS)
        name = "flaky%d" % i
        lines += ["void %s() {" % name, "    if (c) {",
                  "        pthread_mutex_lock(&m%d);" % k, "    }",
                  "    pthread_mutex_unlock(&m%d);" % k, "}"]
        locks[name] = (["m%d" % k], [])
        flaky_names.append(name)
    entries = ["worker%d" % i for i in range(_THREADS)] + flaky_names
    lines += ["void main() {"]
    lines += ["    pthread_create(&t, %s);" % e for e in entries]
    lines += ["}"]
    racy = set(w.racy.values())
    gmap = {"g%d" % i: "m%d" % (i % _LOCKS) for i in range(_GLOBALS) if i not in racy}
    return Case("\n".join(lines) + "\n", gmap, {}, locks, frozenset(flaky_names))


RING = 8


def recursive_rings(rings: int, seed: int) -> Case:
    """`rings` call cycles of 8 members over one `struct acct *`.

    Member 0 of each ring is entered holding p->lk. Every member updates a
    field and calls the ring's helper; members 0..6 then hand the lock to
    the next member. Member 7 releases it, may re-lock and re-enter member
    0, and (in every ring but the first) re-locks and enters member 0 of the
    previous ring. So every member has entry [p.lk] and return [], and the
    helper, which never touches the lock, has entry and return [q.lk]
    because all its callers hold it.
    """
    rng = random.Random(seed)
    lines = ["struct acct { int bal; int hits; mutex_t lk; };",
             "struct acct acc;", "thread_t t;"]
    locks: dict[str, tuple[list[str], list[str]]] = {}
    for r in range(rings):
        helper = "r%dhelp" % r
        lines += ["void %s(struct acct *q) {" % helper,
                  "    q->hits = q->hits + %d;" % rng.randint(1, 9), "}"]
        locks[helper] = (["q.lk"], ["q.lk"])
        for i in range(RING):
            name = "r%dm%d" % (r, i)
            locks[name] = (["p.lk"], [])
            lines.append("void %s(struct acct *p, int k) {" % name)
            if i == 0 or i == RING - 1:
                fld = "bal" if i == 0 else "hits"
            else:
                fld = rng.choice(["bal", "bal", "hits"])
            update = "    p->%s = p->%s + %d;" % (fld, fld, rng.randint(1, 9))
            call_help = "    %s(p);" % helper
            lines += [update, call_help] if rng.random() < 0.5 else [call_help, update]
            if i < RING - 1:
                arg = rng.choice(["k", "k - 1"])
                lines.append("    r%dm%d(p, %s);" % (r, i + 1, arg))
            else:
                lines += ["    pthread_mutex_unlock(&p->lk);",
                          "    if (0 < k) {",
                          "        pthread_mutex_lock(&p->lk);",
                          "        r%dm0(p, k - 1);" % r,
                          "    }"]
                if r > 0:
                    lines += ["    pthread_mutex_lock(&p->lk);",
                              "    r%dm0(p, k);" % (r - 1)]
            lines.append("}")
    lines += ["void worker() {", "    pthread_mutex_lock(&acc.lk);",
              "    r%dm0(&acc, %d);" % (rings - 1, rng.randint(1, 9)), "}",
              "void main() {", "    pthread_mutex_init(&acc.lk);",
              "    acc.bal = 0;", "    pthread_create(&t, worker);", "}"]
    locks["worker"] = ([], [])
    locks["main"] = ([], [])
    return Case("\n".join(lines) + "\n", {}, {"acct": {"bal": "lk", "hits": "lk"}},
                locks, frozenset())


# Workload -> (generator, size). Each size puts one full call near 0.4 s on
# a 2-core x86-64 machine; the half-size input for scale_2x is size // 2.
WORKLOADS = {
    "call_chain": (call_chain, 700),
    "wide_body": (wide_body, 900),
    "recursive_rings": (recursive_rings, 30),
}
