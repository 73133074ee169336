"""Deterministic finite automata over generator alphabets.

States are 0..n-1 with state 0 the start after canonicalization.  Transition
functions are partial (missing entry = implicit dead state).  Every automaton
is built by explore: its states are found breadth-first in letter order from
the start, by a step function over any hashable states (pairs for products,
state sets for concatenation, prefixes for word sets), and then trimmed of
states that cannot accept, so equal languages built the same way yield
identical objects.  minimize is Hopcroft's refinement; dfa_from_text reads
the text format.  A language with an automaton is that Dfa, the Higgins
languages of a graph of groups included; a LazyLanguage is an enumerator,
for languages built from others, which are only ever listed.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable

from .words import Alphabet, AlphabetError, Word


class Dfa:
    __slots__ = ("alphabet", "n_states", "start", "accepting", "transitions", "name")

    def __init__(self, alphabet, n_states, start, accepting, transitions, name="dfa"):
        self.alphabet = alphabet
        self.n_states = n_states
        self.start = start
        self.accepting = frozenset(accepting)
        self.transitions = dict(transitions)  # (state, letter) -> state
        self.name = name

    def step(self, state: int, letter: int) -> int | None:
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


def explore(alphabet, start, step: Callable, accepting: Callable, name="dfa") -> Dfa:
    """The automaton of the states reachable from start, trimmed.

    step(state, letter) gives the next state, any hashable value, or None for
    no move; accepting(state) says whether a state accepts.  States are found
    breadth-first in letter order, so every construction numbers them alike.
    """
    index = {start: 0}
    order = [start]
    transitions = {}
    letters = range(len(alphabet))
    for qi, state in enumerate(order):  # order grows as states are found
        for letter in letters:
            nxt = step(state, letter)
            if nxt is None:
                continue
            t = index.get(nxt)
            if t is None:
                t = index[nxt] = len(order)
                order.append(nxt)
            transitions[(qi, letter)] = t
    final = {i for i, state in enumerate(order) if accepting(state)}
    return _trim(Dfa(alphabet, len(order), 0, final, transitions, name))


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


def _check_same_alphabet(a: Dfa, b: Dfa):
    if a.alphabet != b.alphabet:
        raise AlphabetError("automata over different alphabets")


def intersect(a: Dfa, b: Dfa, name="intersection") -> Dfa:
    _check_same_alphabet(a, b)

    def step(pair, letter):
        t1 = a.transitions.get((pair[0], letter))
        t2 = b.transitions.get((pair[1], letter))
        return None if t1 is None or t2 is None else (t1, t2)

    return explore(a.alphabet, (a.start, b.start), step,
                   lambda pair: pair[0] in a.accepting and pair[1] in b.accepting, name)


def union(a: Dfa, b: Dfa, name="union") -> Dfa:
    """States are pairs, with None for a side that has no move left."""
    _check_same_alphabet(a, b)

    def step(pair, letter):
        t1 = a.transitions.get((pair[0], letter))
        t2 = b.transitions.get((pair[1], letter))
        return None if t1 is None and t2 is None else (t1, t2)

    return explore(a.alphabet, (a.start, b.start), step,
                   lambda pair: pair[0] in a.accepting or pair[1] in b.accepting, name)


def complement(a: Dfa, name="complement") -> Dfa:
    """Complement against the full language over a's alphabet; -1 is the
    sink that every missing move of a leads to."""
    return explore(a.alphabet, a.start,
                   lambda s, letter: a.transitions.get((s, letter), -1),
                   lambda s: s not in a.accepting, name)


def concat(a: Dfa, b: Dfa, name="concat") -> Dfa:
    """States are (a's state or None, the set of b's states); b starts
    afresh wherever a accepts."""
    _check_same_alphabet(a, b)

    def state(s, bs):
        return s, (bs | {b.start} if s in a.accepting else bs)

    def step(st, letter):
        s, bs = st
        t = a.transitions.get((s, letter))
        ts = frozenset(u for u in (b.transitions.get((q, letter)) for q in bs) if u is not None)
        return None if t is None and not ts else state(t, ts)

    return explore(a.alphabet, state(a.start, frozenset()), step,
                   lambda st: not st[1].isdisjoint(b.accepting), name)


def word_set_dfa(words: Iterable[Word], alphabet, name="wordset") -> Dfa:
    """Trie acceptor for a finite set of words; states are prefixes."""
    accepted = {w.letters for w in words}
    prefixes = {u[:i] for u in accepted for i in range(len(u) + 1)}

    def step(u, letter):
        v = u + (letter,)
        return v if v in prefixes else None

    return explore(alphabet, (), step, accepted.__contains__, name)


class LazyLanguage:
    """A language given by an enumerator, enumerator(n) listing its words of
    length <= n in shortlex order without repeats: the languages built from
    other languages (concatenations, paddings, filters) and the trefoil's
    coset representatives."""

    __slots__ = ("alphabet", "enumerator", "name")

    def __init__(self, alphabet, enumerator, name="lazy"):
        self.alphabet = alphabet
        self.enumerator = enumerator
        self.name = name


def enumerate_language(lang, max_len: int) -> list[Word]:
    """All accepted words of length <= max_len in shortlex order, no duplicates.

    For a DFA this prunes via distance-to-acceptance; a LazyLanguage lists
    its enumerator's words.
    """
    if isinstance(lang, LazyLanguage):
        return lang.enumerator(max_len)
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
    g, g^-1 layout emitted by dfa_to_text.  Each header comes once."""
    name = None
    names = None
    n_states = start = None
    accepting: set[int] = set()
    transitions = {}  # (state, letter name) -> (target, line number)
    header_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind != "trans" and header_line.setdefault(kind, lineno) != lineno:
            raise DfaFormatError(lineno, f"second {kind} line: {raw.strip()!r}")
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
                if (s, letter) in transitions:
                    raise DfaFormatError(
                        lineno, f"second move from state {s} on {letter}: {raw.strip()!r}")
                transitions[(s, letter)] = (t, lineno)
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
    try:
        alphabet = Alphabet(gens, self_inverse=selfinv)
    except AlphabetError as exc:
        raise DfaFormatError(header_line["alphabet"], f"alphabet line: {exc}") from None
    resolved = {}
    for (s, letter), (t, lineno) in transitions.items():
        if not (0 <= s < n_states and 0 <= t < n_states):
            raise DfaFormatError(lineno, f"state out of range in trans {s} {letter} {t}")
        if letter not in alphabet.names:
            raise DfaFormatError(lineno, f"unknown letter {letter!r} in trans {s} {letter} {t}")
        resolved[(s, alphabet.index(letter))] = t
    for kind, states in (("states", [start]), ("accept", accepting)):
        if any(not 0 <= s < n_states for s in states):
            raise DfaFormatError(header_line[kind], f"{kind} line: state out of range")
    return Dfa(alphabet, n_states, start, accepting, resolved, name)
