"""Regenerate reference.json: the answers of the default seed (0).

    python3 bench/record_reference.py

Runs ROUNDS rounds of every workload at seed 0 untraced, at least twice the
rounds a 10-second run reaches, and stores each answer under its request
key. Requests whose content is seed-independent (the fixed families of
certify and solve) are then checked under every seed. Recording refuses to
write a file if any answer fails the benchmark's own checks.
"""

from __future__ import annotations

import json
import sys

import program

ROUNDS = {"certify": 2, "refute": 10, "solve": 6, "walks": 8}


def main():
    program.load()
    from run import REFERENCE, Loop

    answers = {}
    for workload, rounds in ROUNDS.items():
        loop = Loop(workload, 0, {}).run(rounds=rounds)
        if loop.failures:
            print("\n".join(loop.failures), file=sys.stderr)
            return 1
        answers[workload] = dict(sorted(loop.answers.items()))
        print(f"{workload}: {len(loop.answers)} answers from {rounds} rounds")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(answers, fh, indent=0, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
