"""Reference computations that check the workloads' outputs.

Nothing here imports commwb.  Every reference value is computed from the
operation tables of the generated inputs with plain set closures, so a
fault in a commwb layer cannot hide itself by also corrupting its check.
Each check raises ``Mismatch`` naming the first disagreeing instance.
"""

from __future__ import annotations

import itertools

import numpy as np


class Mismatch(Exception):
    """An output of the program disagrees with its reference value."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# groups, from their multiplication tables


class Group:
    """A group given by tables: ``mul[a, b]``, ``inv[a]`` and identity ``e``."""

    def __init__(self, mul, inv, e: int):
        self.mul = [list(map(int, row)) for row in np.asarray(mul)]
        self.inv = [int(x) for x in np.asarray(inv)]
        self.e = int(e)
        self.n = len(self.inv)

    def closure(self, gens) -> frozenset:
        """Subgroup generated by ``gens`` (a finite group is closed
        under products alone)."""
        seen = {self.e} | {int(g) for g in gens}
        todo = list(seen)
        gens = sorted(seen)
        mul = self.mul
        while todo:
            a = todo.pop()
            for g in gens:
                c = mul[a][g]
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
        return frozenset(seen)

    def comm(self, a: int, b: int) -> int:
        mul, inv = self.mul, self.inv
        return mul[mul[mul[a][b]][inv[a]]][inv[b]]

    def commutator(self, A, B) -> frozenset:
        """[A, B]: the subgroup generated by every a b a⁻¹ b⁻¹."""
        return self.closure({self.comm(a, b) for a in A for b in B})

    def normal_closure(self, gens, ambient) -> frozenset:
        """Least subgroup containing ``gens`` and normalised by ``ambient``."""
        mul, inv = self.mul, self.inv
        X = self.closure(gens)
        while True:
            conj = {mul[mul[g][x]][inv[g]] for g in ambient for x in X}
            if conj <= X:
                return X
            X = self.closure(X | conj)

    def ternary(self, K, L, M) -> frozenset:
        """[K, L, M] of groups: the normal closure, in the join of K, L
        and M, of the double brackets [[k,l],m], [[l,m],k], [[m,k],l]."""
        brackets = set()
        for A, B, C in ((K, L, M), (L, M, K), (M, K, L)):
            inner = {self.comm(a, b) for a in A for b in B}
            brackets |= {self.comm(x, c) for x in inner for c in C}
        return self.normal_closure(brackets, self.closure(set(K) | set(L)
                                                          | set(M)))

    def normalises(self, W, X) -> bool:
        mul, inv = self.mul, self.inv
        return all(mul[mul[w][x]][inv[w]] in X for w in W for x in X)

    def subgroups(self) -> set:
        """Every subgroup: joins of cyclic subgroups until nothing is new."""
        cyclic = {self.closure([g]) for g in range(self.n)}
        found = set(cyclic)
        fresh = set(cyclic)
        while fresh:
            fresh = {self.closure(A | C) for A in fresh for C in cyclic} - found
            found |= fresh
        return found

    def cyclic_subgroups(self) -> set:
        return {self.closure([g]) for g in range(self.n)}

    def coset_ids(self, N) -> tuple:
        """Canonical block ids (least member) of the cosets of normal N."""
        mul = self.mul
        out = [0] * self.n
        for x in range(self.n):
            out[x] = min(mul[x][m] for m in N)
        return tuple(out)

    def is_two_nilpotent(self) -> bool:
        G = range(self.n)
        return all(self.comm(self.comm(a, b), c) == self.e
                   for a in G for b in G for c in G)


def group_of(alg) -> Group:
    return Group(alg.tables["mul"], alg.tables["inv"], alg.basepoint)


# ---------------------------------------------------------------------------
# partitions


def canonical(raw) -> tuple:
    """Block ids as the least member of each block."""
    first: dict = {}
    return tuple(first.setdefault(r, i) for i, r in enumerate(raw))


def meet(r, s) -> tuple:
    return canonical(list(zip(r, s)))


def basepoint_block(block_id, bp: int) -> frozenset:
    return frozenset(i for i, r in enumerate(block_id) if r == block_id[bp])


def _partitions(n: int):
    """Every set partition of range(n), as canonical block ids."""
    def grow(prefix, top):
        if len(prefix) == n:
            yield canonical(prefix)
            return
        for b in range(top + 2):
            yield from grow(prefix + [b], max(top, b))
    yield from grow([0], 0) if n else iter([()])


def congruences_brute(tables: dict, n: int) -> set:
    """Every partition compatible with every binary table (small n)."""
    binary = [np.asarray(t) for t in tables.values() if np.ndim(t) == 2]
    found = set()
    for bid in _partitions(n):
        b = np.asarray(bid)
        if all(np.array_equal(b[t[np.ix_(b, b)]], b[t]) for t in binary):
            found.add(bid)
    return found


# ---------------------------------------------------------------------------
# smith-lattice


def check_smith_carrier(alg, kind: str, out: dict) -> None:
    """``out``: congs (block-id tuples in the program's order) and pairs,
    one (i, j, smith block ids, binary members) per congruence pair."""
    name = alg.name
    bp = alg.basepoint
    if kind == "groups":
        G = group_of(alg)
        normals = [N for N in G.subgroups()
                   if G.normalises(range(G.n), N)]
        want = {G.coset_ids(N) for N in normals}
    else:
        G = None
        want = congruences_brute(alg.tables, alg.size)
    congs = out["congs"]
    expect(len(set(congs)) == len(congs) and set(congs) == want,
           f"{name}: congruence inventory differs from the reference")
    expect(len(out["pairs"]) == len(congs) ** 2,
           f"{name}: not every congruence pair was decided")
    for i, j, theta, binary in out["pairs"]:
        if theta is None:   # failed, and counted as such
            continue
        R, S = congs[i], congs[j]
        NR, NS = basepoint_block(R, bp), basepoint_block(S, bp)
        where = f"{name} pair ({i}, {j})"
        if G is None:
            expect(theta == meet(R, S),
                   f"{where}: Smith commutator is not the meet")
            expect(set(binary) == NR & NS,
                   f"{name} ({i}, {j}): binary commutator of the"
                   " normalisations is not their intersection")
        else:
            C = G.commutator(NR, NS)
            expect(theta == G.coset_ids(C),
                   f"{where}: Smith blocks are not the cosets of [N_R, N_S]")
            expect(set(binary) == C,
                   f"{where}: binary commutator differs from [N_R, N_S]")
        expect((theta == tuple(range(alg.size))) == (set(binary) == {bp}),
               f"{where}: (SH) fails")


# ---------------------------------------------------------------------------
# ternary-words


def _reduces_to_empty(G: Group, sylls) -> bool:
    """Free-product reduction of (factor, element) syllables."""
    stack: list = []
    for f, x in sylls:
        if stack and stack[-1][0] == f:
            y = G.mul[stack[-1][1]][x]
            if y == G.e:
                stack.pop()
            else:
                stack[-1] = (f, y)
        elif x != G.e:
            stack.append((f, x))
    return not stack


def check_kernel_word(G: Group, sylls, where: str) -> int:
    """A kernel word is reduced and each factor deletion reduces to the
    empty word; returns its value in the group."""
    expect(all(x != G.e for _, x in sylls)
           and all(a[0] != b[0] for a, b in zip(sylls, sylls[1:])),
           f"{where}: kernel word {sylls} is not reduced")
    for drop in range(3):
        expect(_reduces_to_empty(G, [s for s in sylls if s[0] != drop]),
               f"{where}: deleting factor {drop} from {sylls} leaves a"
               " nonempty word")
    val = G.e
    for _, x in sylls:
        val = G.mul[val][x]
    return val


def check_nilpotent_triples(alg, out: dict) -> None:
    """``out``: subs (member tuples, program order) and triples, one
    (i, j, k, group-fast members, word-oracle members) per triple."""
    G = group_of(alg)
    name = alg.name
    subs = out["subs"]
    expect(len(set(subs)) == len(subs)
           and {frozenset(s) for s in subs} == G.subgroups(),
           f"{name}: subgroup inventory differs from the reference")
    expect(G.is_two_nilpotent(), f"{name}: not nilpotent of class two")
    expect(len(out["triples"]) == len(subs) ** 3,
           f"{name}: not every subgroup triple was decided")
    for i, j, k, fast, oracle in out["triples"]:
        if fast is None:
            continue
        expect(fast == (G.e,) and oracle == (G.e,),
               f"{name} triple ({i}, {j}, {k}): ternary commutator of a"
               " two-nilpotent group is not trivial")


def check_sampled_triple(alg, K, L, M, out: dict) -> None:
    """``out``: members of group-fast, word-oracle, [K, L∨M], [K, L],
    [K, M] and their join, plus sampled kernel words (parent elements)."""
    G = group_of(alg)
    where = f"{alg.name} {tuple(K)}, {tuple(L)}, {tuple(M)}"
    tern = G.ternary(K, L, M)
    expect(set(out["fast"]) == tern, f"{where}: group-fast differs")
    expect(set(out["oracle"]) <= tern,
           f"{where}: word oracle outside the ternary commutator")
    left = G.commutator(K, G.closure(set(L) | set(M)))
    kl, km = G.commutator(K, L), G.commutator(K, M)
    expect(set(out["left"]) == left, f"{where}: [K, L∨M] differs")
    expect(set(out["kl"]) == kl and set(out["km"]) == km,
           f"{where}: [K, L] or [K, M] differs")
    expect(set(out["right"]) == G.closure(kl | km | tern) == left,
           f"{where}: join formula fails")
    for sylls in out["words"]:
        val = check_kernel_word(G, sylls, where)
        expect(val in out["oracle"],
               f"{where}: kernel word value {val} missing from the oracle")


# ---------------------------------------------------------------------------
# weighted-cospans


def check_cospan_carrier(alg, out: dict) -> None:
    """``out``: cyc (member tuples, program order), proper ((w, x) index
    pairs) and cospans, one (x, y, w, verdict, ssh verdict) each."""
    G = group_of(alg)
    name = alg.name
    cyc = out["cyc"]
    expect(len(set(cyc)) == len(cyc)
           and {frozenset(c) for c in cyc} == G.cyclic_subgroups(),
           f"{name}: cyclic subgroup inventory differs from the reference")
    proper = {(w, x) for w in range(len(cyc)) for x in range(len(cyc))
              if G.normalises(cyc[w], set(cyc[x]))}
    expect(set(out["proper"]) == proper,
           f"{name}: w-properness differs from the reference")
    want = [(x, y, w) for x, y, w in itertools.product(range(len(cyc)),
                                                       repeat=3)
            if (w, x) in proper and (w, y) in proper]
    expect([c[:3] for c in out["cospans"]] == want,
           f"{name}: the proper cospans decided are not all of them")
    by_legs: dict = {}
    for x, y, w, verdict, ssh in out["cospans"]:
        if verdict is None:
            continue
        X, Y, W = (set(cyc[i]) for i in (x, y, w))
        ref = (G.commutator(X, Y) == {G.e}
               and G.ternary(X, Y, W) == {G.e})
        where = f"{name} cospan ({x}, {y}, {w})"
        expect(verdict == ref, f"{where}: proper-commutators verdict wrong")
        expect(ssh == verdict, f"{where}: the two strategies disagree")
        by_legs.setdefault((x, y), set()).add(verdict)
    if G.is_two_nilpotent():
        expect(all(len(v) == 1 for v in by_legs.values()),
               f"{name}: a verdict depends on the weight in a"
               " two-nilpotent group")


def check_diagram(d, out: dict) -> None:
    """Group diagrams: the hypothesis is that the kernel images commute,
    and in groups it always yields a fill-in.  The recorded semilattice
    diagram keeps its (0,a)/(1/2,1) conflict."""
    where = f"diagram {d.name}"
    if "mul" not in d.target.tables:
        expect(out["hypothesis"] is True and out["conclusion"] is False
               and out["satisfies"] is False,
               f"{where}: recorded fill-in failure not reproduced")
        return
    G = group_of(d.target)

    def kernel_image(f, h):
        ker = np.nonzero(np.asarray(f.map) == f.cod.basepoint)[0]
        return {int(v) for v in np.asarray(h.map)[ker]}

    X, Y = kernel_image(d.f, d.alpha), kernel_image(d.g, d.gamma)
    hyp = G.commutator(X, Y) == {G.e}
    expect(out["hypothesis"] == hyp, f"{where}: hypothesis verdict wrong")
    expect(out["satisfies"] is True and (out["conclusion"] is True
                                         if hyp else True),
           f"{where}: commuting kernel images without a fill-in")


def check_paper_examples(report: dict) -> None:
    hs = report["hslat-ssh"]
    expect(hs["hypothesis_holds"] is True and hs["conclusion_holds"] is False
           and hs["conflict_element"] == "(0,a)"
           and set(hs["conflict_values"]) == {"1/2", "1"}
           and {"(0,a)", "(1/2,1)"} <= set(hs["conflict_involved"]),
           "hslat-ssh: the (0,a)/(1/2,1) fill-in conflict changed")
    s3 = report["s3-w"]
    expect(s3["binary_trivial"] is True
           and s3["ternary"] == ["(123)", "(132)", "e"]
           and s3["verdict_satisfies"] is False
           and s3["zero_weight_satisfies"] is True,
           "s3-w: the weighted counterexample changed")
    expect(len(report["groups-phi"]["agreeing_diagrams"]) >= 5,
           "groups-phi: fewer than five agreeing diagrams")
