"""Seeded randomized law suites shared by unit tests and the acceptance gate.

Each ``run_*`` function executes a fixed number of independently generated
cases under a deterministic seed and returns how many cases it checked;
any law violation raises AssertionError immediately.  The three families:

* core invariants — closure operators really close, congruences are
  compatible and canonical, products/kernels/images obey their defining
  equations;
* commutator laws — symmetry, monotonicity, join bounds, strategy
  agreement, and the group-case bridge between congruence and subobject
  commutators;
* word laws — free-product normal forms form a group, evaluation is a
  homomorphism, and factor deletion is multiplicative and realised by
  zero maps.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from commwb.commutators import (cooperator, higgins_binary, higgins_ternary,
                                normalise, smith)
from commwb.core import (check_hom, generate_congruence, generate_subuniverse,
                         image_sub, kernel_sub, power_closure, product,
                         zero_hom)
from commwb.sweeps import join_subs
from commwb.varieties import builtin_library
from freeprod import (delete_factor, evaluate, identity_word, make_word,
                      word_inverse, word_multiply)
from sweep_inputs import library_algebras

_LIB = builtin_library()


def _groups(max_size: int):
    return [alg for _, alg in library_algebras(_LIB, "groups", max_size)]


def _mixed_pool():
    pool = _groups(12)
    pool += [alg for _, alg in library_algebras(_LIB, "hslat", 9)]
    return pool


def _random_sub(rng: random.Random, alg):
    gens = rng.sample(range(alg.size), k=rng.randint(0, min(2, alg.size)))
    return generate_subuniverse(alg, gens)


def _random_cong(rng: random.Random, alg):
    if alg.size < 2 or rng.random() < 0.2:
        return generate_congruence(alg, [])
    pair = (rng.randrange(alg.size), rng.randrange(alg.size))
    return generate_congruence(alg, [pair])


def _element_power(alg, g: int, k: int) -> int:
    mul = alg.tables["mul"]
    acc = alg.basepoint
    for _ in range(k):
        acc = int(mul[acc, g])
    return acc


def _random_hom_from_cyclic(rng: random.Random, n: int, dom, cod):
    """A hom Z_n -> cod determined by a target element of order dividing n."""
    candidates = [g for g in range(cod.size)
                  if _element_power(cod, g, n) == cod.basepoint]
    g = rng.choice(candidates)
    return check_hom(dom, cod, [_element_power(cod, g, k) for k in range(n)])


# ---------------------------------------------------------------------------
# family 1: core invariants


def run_core_invariants(seed: int = 2024_01, cases: int = 400) -> int:
    rng = random.Random(seed)
    pool = _mixed_pool()
    groups = _groups(12)
    small_families = (
        [g for g in groups if g.size <= 6],
        [alg for _, alg in library_algebras(_LIB, "hslat", 6)],
    )
    done = 0
    for i in range(cases):
        theme = i % 5
        if theme == 0:
            # generated subuniverses contain their generators, the
            # basepoint, and are fixed points of generation
            alg = rng.choice(pool)
            gens = rng.sample(range(alg.size),
                              k=rng.randint(0, min(3, alg.size)))
            sub = generate_subuniverse(alg, gens)
            members = set(sub.members)
            assert alg.basepoint in members and set(gens) <= members
            assert generate_subuniverse(alg, sub.members).members \
                == sub.members
            for op, k in alg.signature.ops:
                if k == 0 or not members:
                    continue
                args = tuple(rng.choice(sub.members) for _ in range(k))
                assert int(alg.tables[op][args]) in members
        elif theme == 1:
            # generated congruences are canonical, contain their seed
            # pair, and are compatible with every operation
            alg = rng.choice(pool)
            a, b = rng.randrange(alg.size), rng.randrange(alg.size)
            theta = generate_congruence(alg, [(a, b)])
            bid = theta.block_id
            assert bid[a] == bid[b]
            seen = set()
            for j, r in enumerate(bid):
                assert r <= j and bid[r] == r
                seen.add(r)
            for op, k in alg.signature.ops:
                if k == 0:
                    continue
                args = [rng.randrange(alg.size) for _ in range(k)]
                pos = rng.randrange(k)
                block = [x for x in range(alg.size)
                         if bid[x] == bid[args[pos]]]
                other = list(args)
                other[pos] = rng.choice(block)
                assert bid[int(alg.tables[op][tuple(args)])] == \
                    bid[int(alg.tables[op][tuple(other)])]
        elif theme == 2:
            # product carriers componentwise, projections are honest
            family = rng.choice(small_families)
            a, b = rng.choice(family), rng.choice(family)
            span = product(a, b)
            P = span.carrier
            pa, pb = span.legs
            x, y = rng.randrange(a.size), rng.randrange(b.size)
            enc = x * b.size + y
            assert int(pa.map[enc]) == x and int(pb.map[enc]) == y
            for op, k in a.signature.ops:
                if k != 2:
                    continue
                x2, y2 = rng.randrange(a.size), rng.randrange(b.size)
                enc2 = x2 * b.size + y2
                got = int(P.tables[op][enc, enc2])
                assert got == int(a.tables[op][x, x2]) * b.size \
                    + int(b.tables[op][y, y2])
        elif theme == 3:
            # kernels map to the basepoint, images are closed, and for
            # groups the two factor the domain size
            cod = rng.choice(groups)
            n = rng.choice((2, 3, 4, 6))
            dom = next(a for a in groups if a.name == f"Z{n}")
            h = _random_hom_from_cyclic(rng, n, dom, cod)
            ker = kernel_sub(h)
            img = image_sub(h)
            assert all(int(h.map[x]) == cod.basepoint for x in ker.members)
            assert generate_subuniverse(cod, img.members).members \
                == img.members
            assert len(ker) * len(img) == dom.size
        else:
            # width-1 power closure is subuniverse generation
            alg = rng.choice(pool)
            seeds = [(rng.randrange(alg.size),)
                     for _ in range(rng.randint(0, 2))]
            rows = power_closure(alg, seeds, width=1)
            want = generate_subuniverse(alg, [s[0] for s in seeds]).members
            assert tuple(int(v) for v in rows[:, 0]) == want
        done += 1
    return done


# ---------------------------------------------------------------------------
# family 2: commutator laws


def run_commutator_laws(seed: int = 2024_02, cases: int = 320) -> int:
    rng = random.Random(seed)
    groups = [g for g in _groups(12) if g.size >= 2]
    tiny = [g for g in groups if g.size <= 8]
    done = 0
    for i in range(cases):
        theme = i % 4
        if theme == 0:
            # symmetry, join bound, and the cooperator criterion
            D = rng.choice(groups)
            K, L = _random_sub(rng, D), _random_sub(rng, D)
            kl = higgins_binary(D, K, L)
            assert kl.members == higgins_binary(D, L, K).members
            assert kl.issubset(join_subs(D, K, L))
            assert cooperator(D, K, L).exists == kl.is_zero()
        elif theme == 1:
            # monotonicity in each argument
            D = rng.choice(groups)
            K, L = _random_sub(rng, D), _random_sub(rng, D)
            bigger = join_subs(D, K, _random_sub(rng, D))
            assert higgins_binary(D, K, L).issubset(
                higgins_binary(D, bigger, L))
            assert higgins_binary(D, L, K).issubset(
                higgins_binary(D, L, bigger))
        elif theme == 2:
            # ternary argument symmetry and the bounded oracle bound
            D = rng.choice(tiny)
            subs = (_random_sub(rng, D), _random_sub(rng, D),
                    _random_sub(rng, D))
            fast = higgins_ternary(D, *subs, "group-fast").result
            perm = rng.choice(list(itertools.permutations(subs)))
            assert higgins_ternary(D, *perm, "group-fast").result.members \
                == fast.members
            oracle = higgins_ternary(D, *subs, "word-oracle", word_bound=6)
            assert oracle.result.issubset(fast)
        else:
            # Smith symmetry, meet bound, and the group-case bridge to
            # the binary commutator of the normalisations
            D = rng.choice(tiny)
            R, S = _random_cong(rng, D), _random_cong(rng, D)
            theta = smith(D, R, S)
            assert theta.block_id == smith(D, S, R).block_id
            bid, rid, sid = theta.block_id, R.block_id, S.block_id
            for x in range(D.size):
                for y in range(D.size):
                    if bid[x] == bid[y]:
                        assert rid[x] == rid[y] and sid[x] == sid[y]
            assert normalise(theta).members == \
                higgins_binary(D, normalise(R), normalise(S)).members
        done += 1
    return done


# ---------------------------------------------------------------------------
# family 3: word laws


def run_word_laws(seed: int = 2024_03, cases: int = 380) -> int:
    rng = random.Random(seed)
    factor_pool = [g for g in _groups(6) if 2 <= g.size <= 6]
    targets = [g for g in _groups(12)
               if g.name in ("S3", "Z6", "D4", "Z12")]
    done = 0
    for i in range(cases):
        nf = rng.randint(2, 3)
        factors = tuple(rng.choice(factor_pool) for _ in range(nf))

        def random_word():
            raw = []
            for _ in range(rng.randint(0, 8)):
                f = rng.randrange(nf)
                raw.append((f, rng.randrange(factors[f].size)))
            return make_word(factors, raw)

        u, v, w = random_word(), random_word(), random_word()
        theme = i % 3
        if theme == 0:
            # group laws on normal forms
            assert word_multiply(word_multiply(u, v), w).syllables == \
                word_multiply(u, word_multiply(v, w)).syllables
            assert word_multiply(u, word_inverse(u)).is_identity
            assert word_multiply(identity_word(factors), u).syllables == \
                u.syllables
            for f, x in u.syllables:
                assert x != factors[f].basepoint
            for (f1, _), (f2, _) in zip(u.syllables, u.syllables[1:]):
                assert f1 != f2
        elif theme == 1:
            # factor deletion is multiplicative, idempotent, and kills
            # exactly its factor
            j = rng.randrange(nf)
            du = delete_factor(u, j)
            assert all(f != j for f, _ in du.syllables)
            assert delete_factor(du, j).syllables == du.syllables
            assert delete_factor(word_multiply(u, v), j).syllables == \
                word_multiply(delete_factor(u, j),
                              delete_factor(v, j)).syllables
        else:
            # evaluation is a homomorphism and deletion is evaluation
            # against a zero map
            cod = rng.choice(targets)
            homs = []
            for alg in factors:
                if rng.random() < 0.25:
                    homs.append(zero_hom(alg, cod))
                else:
                    homs.append(_random_hom_from_cyclic(
                        rng, alg.size, alg, cod)
                        if alg.name.startswith("Z")
                        else zero_hom(alg, cod))
            mul, inv = cod.tables["mul"], cod.tables["inv"]
            assert evaluate(word_multiply(u, v), homs) == \
                int(mul[evaluate(u, homs), evaluate(v, homs)])
            assert evaluate(word_inverse(u), homs) == \
                int(inv[evaluate(u, homs)])
            j = rng.randrange(nf)
            zeroed = list(homs)
            zeroed[j] = zero_hom(factors[j], cod)
            assert evaluate(delete_factor(u, j), zeroed) == \
                evaluate(u, zeroed)
        done += 1
    return done
