"""Watch the online strategy learn its opponent.

A small recurrence game that is 2-live, played against every 2-state
machine in turn.  The controller cycles through machine hypotheses,
follows a winning lasso for the conjectured one, and switches whenever an
observation refutes the current candidates.  Every play ends with a win for
the system; the hypothesis log shows how much of the enumeration each
opponent forced the controller to burn through.
"""

from tgames import (
    adaptive_controller,
    check_k_live,
    enumerate_transducers,
    make_game,
    simulate,
    steps_bound,
)

A1, A2 = ("a", "b"), ("x", "y")
game = make_game(
    "buchi",
    A1,
    A2,
    [
        ("start", 1, 1),
        ("left", 2, 1),
        ("right", 2, 2),
        ("good", 1, 2),
    ],
    [
        ("start", "a", "left"), ("start", "b", "right"),
        ("left", "x", "start"), ("left", "y", "good"),
        ("right", "x", "good"), ("right", "y", "start"),
        ("good", "a", "right"), ("good", "b", "right"),
    ],
    "start",
)

verdict = check_k_live(game, 2)
print(f"game is 2-live: {verdict.live}")
assert verdict.live

bound = steps_bound(game.n, 2, A1, A2)
print(f"step budget for reachability-style wins: {bound}\n")

wins = 0
worst = None
for hidden in enumerate_transducers(2, A1, A2):
    controller = adaptive_controller(game, 2)
    trace = simulate(game, controller, hidden, bound)
    assert trace.winner == 2, "a live game must be winnable against every machine"
    wins += 1
    final = trace.hypothesis_log[-1] if trace.hypothesis_log else None
    if worst is None or (final and final.ordinal > worst[1]):
        worst = (hidden, final.ordinal if final else 0, trace)

print(f"beat all {wins} hidden machines")
hidden, ordinal, trace = worst
print(f"\nhardest opponent reached hypothesis ordinal {ordinal}: "
      f"labels={hidden.labels} transitions={hidden.trans}")
print("hypothesis log (step, ordinal, candidate states):")
for rec in trace.hypothesis_log[:12]:
    print(f"  step {rec.step:2d}  ordinal {rec.ordinal:2d}  |M'|={rec.candidates}")
if len(trace.hypothesis_log) > 12:
    print(f"  ... {len(trace.hypothesis_log) - 12} more steps")
