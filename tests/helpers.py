"""Shared test utilities: random arena generation and independent oracles."""

import itertools

from tgames import GameGraph, make_game, reachable_positions


def random_game(rng, n1, n2, alphabet1, alphabet2, objective):
    """Total bipartite arena with uniformly random edges and colors."""
    colors = (1, 2) if objective != "parity" else (0, 1, 2, 3)
    vertices = [(f"u{i}", 1, rng.choice(colors)) for i in range(n1)]
    vertices += [(f"w{i}", 2, rng.choice(colors)) for i in range(n2)]
    edges = []
    for i in range(n1):
        for a in alphabet1:
            edges.append((f"u{i}", a, f"w{rng.randrange(n2)}"))
    for j in range(n2):
        for b in alphabet2:
            edges.append((f"w{j}", b, f"u{rng.randrange(n1)}"))
    return make_game(objective, alphabet1, alphabet2, vertices, edges, "u0")


def random_one_player_game(rng, n1, n2, alphabet2, objective):
    """Player 1 has a singleton alphabet, so it never actually chooses."""
    return random_game(rng, n1, n2, ("only",), alphabet2, objective)


def play_winner(g: GameGraph, start: int, strat: dict) -> int:
    """Winner of the unique play under a full positional strategy pair."""
    seq = [start]
    seen = {start: 0}
    cur = start
    while True:
        cur = g.edges[(cur, strat[cur])]
        if cur in seen:
            cut = seen[cur]
            break
        seen[cur] = len(seq)
        seq.append(cur)
    loop_colors = [g.vertices[v].color for v in seq[cut:]]
    if g.objective in ("parity", "buchi"):
        return 2 if max(loop_colors) % 2 == 0 else 1
    head_colors = [g.vertices[v].color for v in seq[:cut]]
    return 2 if 2 in head_colors + loop_colors else 1


def brute_force_region2(g: GameGraph) -> set:
    """Player-2 winning set by exhausting positional strategy pairs.

    Positional strategies suffice for these objectives, so a vertex is
    winning for player 2 iff some positional choice of player-2 moves beats
    every positional choice of player-1 moves.
    """
    p1 = [v.id for v in g.vertices if v.owner == 1]
    p2 = [v.id for v in g.vertices if v.owner == 2]
    s1_all = [dict(zip(p1, combo)) for combo in itertools.product(g.alphabet1, repeat=len(p1))]
    s2_all = [dict(zip(p2, combo)) for combo in itertools.product(g.alphabet2, repeat=len(p2))]
    region = set()
    for v in g.vertices:
        for s2 in s2_all:
            if all(play_winner(g, v.id, {**s1, **s2}) == 2 for s1 in s1_all):
                region.add(v.id)
                break
    return region


def one_player_region_oracle(g: GameGraph) -> set:
    """Player-2 winning set when player 1 never chooses, vertex by vertex.

    Player 2 then picks the whole play, so a vertex wins iff it reaches a
    color-2 vertex (reachability), or reaches a vertex u of even color c
    that lies on a cycle through colors at most c (parity, buchi).
    """

    def reach(src, allowed):
        seen = {src}
        stack = [src]
        while stack:
            v = stack.pop()
            for (w, _a), t in g.edges.items():
                if w == v and t in allowed and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    everything = {v.id for v in g.vertices}
    if g.objective == "reachability":
        anchors = {v.id for v in g.vertices if v.color == 2}
    else:
        anchors = set()
        for u in g.vertices:
            if u.color % 2:
                continue
            low = {v.id for v in g.vertices if v.color <= u.color}
            first = {t for (w, _a), t in g.edges.items() if w == u.id and t in low}
            if any(u.id in reach(t, low) for t in first):
                anchors.add(u.id)
    return {v for v in everything if reach(v, everything) & anchors}


class ScriptController:
    """Plays a fixed action script, then repeats its last action."""

    def __init__(self, actions):
        self.actions = list(actions)
        self.at = 0

    def snapshot(self):
        return min(self.at, len(self.actions))

    def next_action(self, observed: str) -> str:
        a = self.actions[min(self.at, len(self.actions) - 1)]
        self.at += 1
        return a


def product_scan(ctrl) -> bool:
    """`AdaptiveController`'s hypothesis scan one product per hypothesis,
    from the cursor on with wrap-around: the reference its windowed scan
    must agree with."""
    for _ in range(ctrl.hypotheses):
        reach = reachable_positions(ctrl._product())
        ms = sorted(m for (v, m) in reach if v == ctrl.vertex)
        if ms:
            ctrl.candidates = ms
            if ctrl._conjecture_from_current():
                return True
        ctrl.ordinal = (ctrl.ordinal + 1) % ctrl.hypotheses
    return False
