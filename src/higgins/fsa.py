"""Deterministic finite automata over generator alphabets.

States are 0..n-1 with state 0 the start after canonicalization.  Transition
functions are partial (missing entry = implicit dead state).  All construction
functions prune unreachable/dead states and renumber by breadth-first search in
letter order, so equal languages built the same way yield identical objects.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional

from .words import Alphabet, AlphabetError, Word, all_words


class Dfa:
    __slots__ = ("alphabet", "n_states", "start", "accepting", "transitions", "name")

    def __init__(self, alphabet, n_states, start, accepting, transitions, name="dfa"):
        self.alphabet = alphabet
        self.n_states = n_states
        self.start = start
        self.accepting = frozenset(accepting)
        self.transitions = dict(transitions)  # (state, letter) -> state
        self.name = name

    def step(self, state: int, letter: int) -> Optional[int]:
        return self.transitions.get((state, letter))

    def accepts(self, w: Word) -> bool:
        s = self.start
        for x in w.letters:
            s = self.transitions.get((s, x))
            if s is None:
                return False
        return s in self.accepting

    def __eq__(self, other):
        return (
            isinstance(other, Dfa)
            and self.alphabet == other.alphabet
            and self.n_states == other.n_states
            and self.start == other.start
            and self.accepting == other.accepting
            and self.transitions == other.transitions
        )

    def __repr__(self):
        return f"<dfa {self.name}: {self.n_states} states, {len(self.transitions)} transitions>"


class Nfa:
    """Nondeterministic automaton with epsilon moves; construction scratchpad."""

    def __init__(self, alphabet):
        self.alphabet = alphabet
        self.n_states = 0
        self.starts: set[int] = set()
        self.accepting: set[int] = set()
        self.trans: dict[tuple[int, int], set[int]] = {}
        self.eps: dict[int, set[int]] = {}

    def add_state(self) -> int:
        self.n_states += 1
        return self.n_states - 1

    def add_edge(self, s, letter, t):
        self.trans.setdefault((s, letter), set()).add(t)

    def add_eps(self, s, t):
        self.eps.setdefault(s, set()).add(t)

    def eps_closure(self, states: Iterable[int]) -> frozenset:
        seen = set(states)
        todo = list(seen)
        while todo:
            s = todo.pop()
            for t in self.eps.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return frozenset(seen)


def determinize(nfa: Nfa, name="dfa") -> Dfa:
    """Subset construction; output states numbered in BFS letter order."""
    m = len(nfa.alphabet)
    start = nfa.eps_closure(nfa.starts)
    index = {start: 0}
    order = [start]
    transitions = {}
    qi = 0
    while qi < len(order):
        cur = order[qi]
        qi += 1
        for letter in range(m):
            nxt = set()
            for s in cur:
                nxt |= nfa.trans.get((s, letter), set())
            if not nxt:
                continue
            closed = nfa.eps_closure(nxt)
            if closed not in index:
                index[closed] = len(order)
                order.append(closed)
            transitions[(index[cur], letter)] = index[closed]
    accepting = {index[ss] for ss in order if ss & nfa.accepting}
    dfa = Dfa(nfa.alphabet, len(order), 0, accepting, transitions, name)
    return _trim(dfa)


def _trim(dfa: Dfa) -> Dfa:
    """Drop states that cannot reach an accepting state; renumber BFS-style."""
    m = len(dfa.alphabet)
    rev: dict[int, list[int]] = {}
    for (s, a), t in dfa.transitions.items():
        rev.setdefault(t, []).append(s)
    live = set(dfa.accepting)
    todo = list(live)
    while todo:
        t = todo.pop()
        for s in rev.get(t, ()):
            if s not in live:
                live.add(s)
                todo.append(s)
    if dfa.start not in live:
        return Dfa(dfa.alphabet, 1, 0, frozenset(), {}, dfa.name)
    order = {dfa.start: 0}
    queue = deque([dfa.start])
    transitions = {}
    while queue:
        s = queue.popleft()
        for a in range(m):
            t = dfa.transitions.get((s, a))
            if t is None or t not in live:
                continue
            if t not in order:
                order[t] = len(order)
                queue.append(t)
            transitions[(order[s], a)] = order[t]
    accepting = {order[s] for s in dfa.accepting if s in order}
    return Dfa(dfa.alphabet, len(order), 0, accepting, transitions, dfa.name)


def minimize(dfa: Dfa) -> Dfa:
    """Hopcroft minimization over the completed automaton, dead state stripped."""
    dfa = _trim(dfa)
    if not dfa.accepting:
        return dfa
    m = len(dfa.alphabet)
    n = dfa.n_states
    dead = n  # implicit sink made explicit during partitioning
    total = n + 1

    def delta(s, a):
        if s == dead:
            return dead
        return dfa.transitions.get((s, a), dead)

    preimage: list[dict[int, list[int]]] = [dict() for _ in range(m)]
    for a in range(m):
        pre = preimage[a]
        for s in range(total):
            t = delta(s, a)
            pre.setdefault(t, []).append(s)

    acc = set(dfa.accepting)
    rest = set(range(total)) - acc
    partition: list[set[int]] = [acc]
    if rest:
        partition.append(rest)
    member = {}
    for bi, block in enumerate(partition):
        for s in block:
            member[s] = bi
    work = [(bi, a) for bi in range(len(partition)) for a in range(m)]
    while work:
        bi, a = work.pop()
        splitter = partition[bi]
        pre = preimage[a]
        touched = set()
        for t in splitter:
            touched.update(pre.get(t, ()))
        affected: dict[int, list[int]] = {}
        for s in touched:
            affected.setdefault(member[s], []).append(s)
        for ci, inside in affected.items():
            block = partition[ci]
            if len(inside) == len(block):
                continue
            inside_set = set(inside)
            outside = block - inside_set
            partition[ci] = inside_set
            nj = len(partition)
            partition.append(outside)
            for s in inside_set:
                member[s] = ci
            for s in outside:
                member[s] = nj
            for b in range(m):
                work.append((nj, b))

    start_block = member[dfa.start]
    block_trans = {}
    block_acc = set()
    for bi, block in enumerate(partition):
        s = next(iter(block))
        if s in acc:
            block_acc.add(bi)
        for a in range(m):
            block_trans[(bi, a)] = member[delta(s, a)]
    dead_block = member[dead]
    transitions = {
        (s, a): t for (s, a), t in block_trans.items() if t != dead_block and s != dead_block
    }
    out = Dfa(dfa.alphabet, len(partition), start_block, block_acc, transitions, dfa.name)
    return _trim(out)


def _to_nfa(dfa: Dfa) -> Nfa:
    nfa = Nfa(dfa.alphabet)
    for _ in range(dfa.n_states):
        nfa.add_state()
    nfa.starts = {dfa.start}
    nfa.accepting = set(dfa.accepting)
    for (s, a), t in dfa.transitions.items():
        nfa.add_edge(s, a, t)
    return nfa


def _check_same_alphabet(a: Dfa, b: Dfa):
    if a.alphabet != b.alphabet:
        raise AlphabetError("automata over different alphabets")


def intersect(a: Dfa, b: Dfa, name="intersection") -> Dfa:
    _check_same_alphabet(a, b)
    m = len(a.alphabet)
    index = {(a.start, b.start): 0}
    order = [(a.start, b.start)]
    transitions = {}
    qi = 0
    while qi < len(order):
        s1, s2 = order[qi]
        for letter in range(m):
            t1 = a.transitions.get((s1, letter))
            t2 = b.transitions.get((s2, letter))
            if t1 is None or t2 is None:
                continue
            key = (t1, t2)
            if key not in index:
                index[key] = len(order)
                order.append(key)
            transitions[(qi, letter)] = index[key]
        qi += 1
    accepting = {
        i for i, (s1, s2) in enumerate(order) if s1 in a.accepting and s2 in b.accepting
    }
    return _trim(Dfa(a.alphabet, len(order), 0, accepting, transitions, name))


def union(a: Dfa, b: Dfa, name="union") -> Dfa:
    _check_same_alphabet(a, b)
    nfa = Nfa(a.alphabet)
    na = _to_nfa(a)
    shift = na.n_states
    nfa.n_states = a.n_states + b.n_states
    nfa.starts = {a.start, b.start + shift}
    nfa.accepting = set(a.accepting) | {s + shift for s in b.accepting}
    nfa.trans = {k: set(v) for k, v in na.trans.items()}
    for (s, x), t in b.transitions.items():
        nfa.add_edge(s + shift, x, t + shift)
    return determinize(nfa, name)


def complement(a: Dfa, name="complement") -> Dfa:
    """Complement against the full language over a's alphabet."""
    m = len(a.alphabet)
    n = a.n_states
    sink = n
    transitions = {}
    for s in range(n + 1):
        for letter in range(m):
            transitions[(s, letter)] = a.transitions.get((s, letter), sink) if s < n else sink
    accepting = {s for s in range(n + 1) if s not in a.accepting}
    return _trim(Dfa(a.alphabet, n + 1, a.start, accepting, transitions, name))


def concat(a: Dfa, b: Dfa, name="concat") -> Dfa:
    _check_same_alphabet(a, b)
    nfa = _to_nfa(a)
    shift = nfa.n_states
    nfa.n_states += b.n_states
    for (s, x), t in b.transitions.items():
        nfa.add_edge(s + shift, x, t + shift)
    for s in a.accepting:
        nfa.add_eps(s, b.start + shift)
    nfa.accepting = {s + shift for s in b.accepting}
    return determinize(nfa, name)


def word_set_dfa(words: Iterable[Word], alphabet, name="wordset") -> Dfa:
    """Trie acceptor for a finite set of words."""
    nfa = Nfa(alphabet)
    root = nfa.add_state()
    nfa.starts = {root}
    for w in words:
        s = root
        for x in w.letters:
            nxt = nfa.trans.get((s, x))
            if nxt:
                s = next(iter(nxt))
            else:
                t = nfa.add_state()
                nfa.add_edge(s, x, t)
                s = t
        nfa.accepting.add(s)
    return determinize(nfa, name)


class LazyLanguage:
    """A language given by a decidable membership predicate.

    Uniform wrapper so verifiers run on both explicit automata and
    oracle-defined languages; `dfa`, when present, must agree with the
    predicate (checked by tests up to a bound, not at construction).
    """

    __slots__ = ("alphabet", "membership", "enumerator", "dfa", "name")

    def __init__(self, alphabet, membership: Callable[[Word], bool],
                 enumerator=None, dfa: Optional[Dfa] = None, name="lazy"):
        self.alphabet = alphabet
        self.membership = membership
        self.enumerator = enumerator
        self.dfa = dfa
        self.name = name

    def accepts(self, w: Word) -> bool:
        return bool(self.membership(w))


def enumerate_language(lang, max_len: int) -> list[Word]:
    """All accepted words of length <= max_len in shortlex order, no duplicates.

    For a DFA this prunes via distance-to-acceptance; for a LazyLanguage it
    uses the attached enumerator or filters the full ball.
    """
    if isinstance(lang, LazyLanguage):
        if lang.enumerator is not None:
            out = list(lang.enumerator(max_len))
            out.sort(key=lambda w: (len(w), w.letters))
            return out
        if lang.dfa is not None:
            return enumerate_language(lang.dfa, max_len)
        return [w for w in all_words(lang.alphabet, max_len) if lang.membership(w)]
    dfa: Dfa = lang
    # distance from each state to the nearest accepting state
    INF = max_len + 1
    dist = [INF] * dfa.n_states
    for s in dfa.accepting:
        dist[s] = 0
    rev: dict[int, list[tuple[int, int]]] = {}
    for (s, a), t in dfa.transitions.items():
        rev.setdefault(t, []).append((s, a))
    queue = deque(dfa.accepting)
    while queue:
        t = queue.popleft()
        for s, _a in rev.get(t, ()):
            if dist[s] > dist[t] + 1:
                dist[s] = dist[t] + 1
                queue.append(s)
    out: list[Word] = []
    if dist[dfa.start] > max_len:
        return out
    # each state's live moves in letter order
    moves: list[list[tuple[int, int]]] = [[] for _ in range(dfa.n_states)]
    for (s, a), t in sorted(dfa.transitions.items()):
        if dist[t] <= max_len:
            moves[s].append((a, t))
    # level n holds, in lexicographic order, the words of length n that can
    # still reach acceptance within max_len; extending each in letter order
    # keeps the next level lexicographic, so the output is shortlex unsorted
    accepting, alphabet = dfa.accepting, dfa.alphabet
    level = [((), dfa.start)]
    for n in range(max_len + 1):
        out += [Word(alphabet, u) for u, s in level if s in accepting]
        if n == max_len:
            break
        remaining = max_len - n - 1
        level = [(u + (a,), t) for u, s in level for a, t in moves[s]
                 if dist[t] <= remaining]
    return out


# --- text format ------------------------------------------------------------
#
# line 1: dfa <name>
# line 2: alphabet a b a^-1 ...
# line 3: states N start S
# line 4: accept s1 s2 ...
# then:   trans <from> <letter> <to>
# '#' starts a comment; blank lines ignored.

def dfa_to_text(dfa: Dfa) -> str:
    alpha = dfa.alphabet
    lines = [f"dfa {dfa.name}"]
    lines.append("alphabet " + " ".join(alpha.names))
    lines.append(f"states {dfa.n_states} start {dfa.start}")
    lines.append("accept " + " ".join(str(s) for s in sorted(dfa.accepting)))
    for (s, a), t in sorted(dfa.transitions.items()):
        lines.append(f"trans {s} {alpha.names[a]} {t}")
    return "\n".join(lines) + "\n"


class DfaFormatError(ValueError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def dfa_from_text(text: str) -> Dfa:
    """Parse the text format. The letter list is reconstructed assuming the
    g, g^-1 layout emitted by dfa_to_text."""
    name = None
    names = None
    n_states = start = None
    accepting: set[int] = set()
    transitions = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "dfa":
                name = parts[1] if len(parts) > 1 else "dfa"
            elif kind == "alphabet":
                names = parts[1:]
            elif kind == "states":
                n_states = int(parts[1])
                if parts[2] != "start":
                    raise DfaFormatError(lineno, "expected 'start'")
                start = int(parts[3])
            elif kind == "accept":
                accepting = {int(p) for p in parts[1:]}
            elif kind == "trans":
                s, letter, t = int(parts[1]), parts[2], int(parts[3])
                transitions[(s, letter)] = t
            else:
                raise DfaFormatError(lineno, f"unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, DfaFormatError):
                raise
            raise DfaFormatError(lineno, f"malformed line: {raw.strip()!r}") from None
    if name is None or names is None or n_states is None or start is None:
        raise DfaFormatError(0, "missing dfa/alphabet/states header")
    gens = []
    selfinv = []
    i = 0
    while i < len(names):
        if i + 1 < len(names) and names[i + 1] == names[i] + "^-1":
            gens.append(names[i])
            i += 2
        else:
            gens.append(names[i])
            selfinv.append(names[i])
            i += 1
    alphabet = Alphabet(gens, self_inverse=selfinv)
    resolved = {}
    for (s, letter), t in transitions.items():
        if not (0 <= s < n_states and 0 <= t < n_states):
            raise DfaFormatError(0, f"state out of range in trans {s} {letter} {t}")
        resolved[(s, alphabet.index(letter))] = t
    if not (0 <= start < n_states) or any(not 0 <= s < n_states for s in accepting):
        raise DfaFormatError(0, "state out of range")
    return Dfa(alphabet, n_states, start, accepting, resolved, name)
