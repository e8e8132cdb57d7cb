"""Fixed pure-Python workload that run.py times after every command.

    python3 perfbench/reference.py

It needs nothing from the program.  Its time, spawn to exit like a
benchmark command, measures how fast this machine runs Python at that
moment; run.py runs it after every command and scales a run's times by
REF_NOMINAL_S over the mean reference time of the run.  The work mixes what the program spends its
time on: tuple rotations and their minimum (relator keys), tuple-keyed
counting (coset tables) and sorting integer rows.
"""


def work():
    word = tuple((i * 37) % 11 - 5 for i in range(60))
    keys = set()
    for shift in range(1500):
        w = word[shift % 60:] + word[:shift % 60]
        keys.add(min(w[i:] + w[:i] for i in range(0, 60, 4)))
    table = {}
    rows = []
    for i in range(50_000):
        key = (i % 331, (i * 7) % 317)
        table[key] = table.get(key, 0) + i
        rows.append([(i * 2654435761) % 1_000_003, i & 255, 0])
    rows.sort()
    return len(keys) + len(table) + sum(r[1] for r in rows[::97])


if __name__ == "__main__":
    work()
