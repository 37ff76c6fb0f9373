"""Shared fixtures: verified flow-analysis cases, fixture loading, the
random program generator used by the property and oracle tests, and the
walk over a record's fields."""
from __future__ import annotations

import random
from pathlib import Path

from lockshift.ast import LockPath, Record, ValueRecord, path_of

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def corpus_paths() -> list[Path]:
    return sorted(CORPUS.glob("*.mc"))


def fields(record: Record) -> dict[str, object]:
    """A record's fields by name: the __slots__ of its class and of its
    bases, a base's first, then the instance dict of a class that keeps
    one. Every record of the library is a Record."""
    out = {name: getattr(record, name) for cls in reversed(type(record).__mro__)
           for name in cls.__dict__.get("__slots__", ())}
    out.update(getattr(record, "__dict__", {}))
    return out


def record_classes(*modules) -> list[type]:
    """The record classes the modules define: every subclass of Record but
    the two bases."""
    return [c for m in modules for c in vars(m).values()
            if isinstance(c, type) and issubclass(c, Record)
            and c.__module__ == m.__name__ and c not in (Record, ValueRecord)]


def locks(*texts: str) -> frozenset[LockPath]:
    """Lock set from dotted path texts."""
    return frozenset(path_of(t) for t in texts)


# A lock path through a datum that each thread writes under another lock:
# the global p (under m), the field f of struct t (under x.k), and p again
# with p.lk taken and released by callees, so that only w's held lines name
# p.lk. Moving the datum into a payload would leave the path naming no lock.
THROUGH_A_DATUM = """\
struct s { int a; mutex_t lk; };
struct t { struct s *f; mutex_t k; };
struct s q;
struct s *p;
struct t x;
mutex_t m;
thread_t t1;
thread_t t2;
void take(struct s *r) { pthread_mutex_lock(&r->lk); }
void give(struct s *r) { pthread_mutex_unlock(&r->lk); }
void w() {
%s}
void main() { pthread_create(&t1, w); pthread_create(&t2, w); }
"""

# By name: (w's body, the datum's target, a summary that moves it anyway).
LOCK_PATH_THROUGH_A_DATUM = {
    "global": ("""\
    pthread_mutex_lock(&m);
    p = &q;
    pthread_mutex_lock(&p->lk);
    p->a = 1;
    pthread_mutex_unlock(&p->lk);
    pthread_mutex_unlock(&m);
""", (None, "p"), '{"global_lock_map": {"p": "m"}}'),
    "field": ("""\
    pthread_mutex_lock(&x.k);
    x.f = &q;
    pthread_mutex_lock(&x.f->lk);
    x.f->a = 1;
    pthread_mutex_unlock(&x.f->lk);
    pthread_mutex_unlock(&x.k);
""", ("t", "f"), '{"struct_lock_map": {"t": {"f": "k"}}}'),
    "through-calls": ("""\
    pthread_mutex_lock(&m);
    p = &q;
    take(p);
    p->a = 1;
    give(p);
    pthread_mutex_unlock(&m);
""", (None, "p"), '{"global_lock_map": {"p": "m"}}'),
}


# Hand-checked entry/return lock sets. Each case is
# (name, source, {function: (sorted MELS texts, sorted MRLS texts)}).

STRAIGHT_UNLOCK = """\
int n;
mutex_t m;
void f() {
    pthread_mutex_unlock(&m);
}
"""

BRANCH_UNLOCK = """\
int c;
mutex_t m;
void f() {
    if (c) {
        pthread_mutex_unlock(&m);
    }
}
"""

STRAIGHT_LOCK = """\
int n;
mutex_t m;
void f() {
    pthread_mutex_lock(&m);
}
"""

BRANCH_LOCK = """\
int c;
mutex_t m;
void f() {
    if (c) {
        pthread_mutex_lock(&m);
    }
}
"""

UNLOCK_RELOCK = """\
int c;
mutex_t m;
void f() {
    if (c) {
        pthread_mutex_unlock(&m);
        c = c + 1;
        pthread_mutex_lock(&m);
    }
}
"""

CHAINED_UNLOCK = """\
mutex_t m;
void release() {
    pthread_mutex_unlock(&m);
}
void f() {
    release();
}
"""

POINTER_ALIAS = """\
struct s { int n; mutex_t m; };
void release(struct s *a) {
    pthread_mutex_unlock(&a->m);
}
void cycle(struct s *b) {
    pthread_mutex_lock(&b->m);
    release(b);
}
"""

RECURSIVE_UNLOCK = """\
mutex_t m;
void rec(int k) {
    if (k <= 0) {
        pthread_mutex_unlock(&m);
    } else {
        rec(k - 1);
    }
}
"""

RECURSIVE_LOCK = """\
mutex_t m;
void rec(int k) {
    if (k <= 0) {
        pthread_mutex_lock(&m);
    } else {
        rec(k - 1);
    }
}
"""

FLOW_CASES = [
    ("straight_unlock", STRAIGHT_UNLOCK, {"f": (["m"], [])}),
    ("branch_unlock", BRANCH_UNLOCK, {"f": (["m"], [])}),
    ("straight_lock", STRAIGHT_LOCK, {"f": ([], ["m"])}),
    ("branch_lock", BRANCH_LOCK, {"f": ([], [])}),
    ("unlock_relock", UNLOCK_RELOCK, {"f": (["m"], ["m"])}),
    ("chained_unlock", CHAINED_UNLOCK, {"release": (["m"], []), "f": (["m"], [])}),
    ("pointer_alias", POINTER_ALIAS, {"release": (["a.m"], []), "cycle": ([], [])}),
    ("recursive_unlock", RECURSIVE_UNLOCK, {"rec": (["m"], [])}),
    ("recursive_lock", RECURSIVE_LOCK, {"rec": ([], ["m"])}),
]

# The caller-provides pattern: inc never touches the lock itself, but every
# caller enters it holding m, so propagation assigns entry {m} / return {m}.
CALLER_PROVIDES = """\
int n;
mutex_t m;
void inc() {
    n = n + 1;
}
void safe_inc() {
    pthread_mutex_lock(&m);
    inc();
    pthread_mutex_unlock(&m);
}
void main() {
    safe_inc();
}
"""


def chain_program(depth: int) -> str:
    """A lock at the bottom of a deep call chain, released at the top.

    Exercises call-graph construction, per-function analysis, and propagation
    on `depth` functions plus main without any recursion.
    """
    parts = ["int n;", "mutex_t m;"]
    parts.append("void f0() { pthread_mutex_lock(&m); n = n + 1; }")
    for i in range(1, depth):
        parts.append("void f%d() { f%d(); }" % (i, i - 1))
    parts.append(
        "void main() { f%d(); n = n + 1; pthread_mutex_unlock(&m); }" % (depth - 1))
    return "\n".join(parts) + "\n"


def while_nest(depth: int) -> str:
    """`while` loops nested depth deep in one function. Each level unlocks
    m on one branch of an if, holds the level below, then locks m again:
    m is live at the start of every loop body and never after a loop."""
    lines = ["int n;", "int c;", "mutex_t m;", "void f() {"]
    lines += ["while (c) {", "if (c) {", "pthread_mutex_unlock(&m);", "}"] * depth
    lines.append("n = n + 1;")
    lines += ["pthread_mutex_lock(&m);", "}"] * depth
    lines.append("}")
    return "\n".join(lines) + "\n"


RING = 8


def ring_program(rings: int) -> str:
    """`rings` call cycles of RING members handing one `struct acct *` lock on.

    Member 0 of each ring is entered holding p->lk. Every member updates a
    field and calls the ring's helper; members 0..6 then call the next
    member. Member 7 releases the lock, may re-lock it and re-enter member
    0, and in every ring but the first re-locks it and enters member 0 of
    the previous ring. Each ring is one recursive SCC swept in member
    order, while the released lock travels from member 7 back to member 0
    one member per sweep: 8 sweeps that change a summary and one that
    confirms the fixpoint.
    """
    parts = ["struct acct { int bal; int hits; mutex_t lk; };",
             "struct acct acc;", "thread_t t;"]
    for r in range(rings):
        parts.append("void r%dhelp(struct acct *q) { q->hits = q->hits + 1; }" % r)
        for i in range(RING - 1):
            parts.append("void r%dm%d(struct acct *p, int k) { p->bal = p->bal + 1; "
                         "r%dhelp(p); r%dm%d(p, k); }" % (r, i, r, r, i + 1))
        back = ("pthread_mutex_lock(&p->lk); r%dm0(p, k);" % (r - 1)) if r else ""
        parts.append("void r%dm%d(struct acct *p, int k) { r%dhelp(p); "
                     "pthread_mutex_unlock(&p->lk); if (0 < k) { "
                     "pthread_mutex_lock(&p->lk); r%dm0(p, k - 1); } %s}"
                     % (r, RING - 1, r, r, back))
    parts.append("void worker() { pthread_mutex_lock(&acc.lk); r%dm0(&acc, 3); }"
                 % (rings - 1))
    parts.append("void main() { pthread_mutex_init(&acc.lk); "
                 "pthread_create(&t, worker); }")
    return "\n".join(parts) + "\n"


class ProgramGen:
    """Seeded generator of small acyclic, call-free lock programs.

    Bodies mix lock/unlock calls on up to two mutexes with plain assignments
    and nested if/else, which keeps every generated flow graph loop-free so
    path enumeration stays exact and cheap.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def program(self, max_stmts: int = 8) -> str:
        lines = ["int n;", "int c;", "mutex_t m;", "mutex_t w;", "void f() {"]
        lines.extend(self.stmts(1, max_stmts))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def stmts(self, depth: int, budget: int) -> list[str]:
        out: list[str] = []
        n = self.rng.randint(1, max(1, budget))
        for _ in range(n):
            out.extend(self.stmt(depth))
        return out

    def stmt(self, depth: int) -> list[str]:
        pad = "    " * depth
        lock = self.rng.choice(["m", "w"])
        roll = self.rng.random()
        if roll < 0.3:
            return [pad + "pthread_mutex_lock(&%s);" % lock]
        if roll < 0.6:
            return [pad + "pthread_mutex_unlock(&%s);" % lock]
        if roll < 0.75:
            return [pad + "n = n + 1;"]
        body = self.stmts(depth + 1, 2)
        if depth < 3 and self.rng.random() < 0.5:
            orelse = self.stmts(depth + 1, 2)
            return ([pad + "if (c) {"] + body + [pad + "} else {"]
                    + orelse + [pad + "}"])
        return [pad + "if (c) {"] + body + [pad + "}"]
