"""Write ring14x8.case: eight copies of case14.case joined in a ring.

Run from anywhere with `python cases/make_ring.py`; it reads case14.case and
writes ring14x8.case beside this script.  Only the standard library is used,
and the output is the same on every run.

Copy c (0 to 7) offsets every bus id by 14 c.  Copies 1 to 7 turn their slack
bus into a generator bus (type 2), so copy 0's bus 1 is the one slack.  Each
copy's generator costs are 1.15 times the previous copy's.  Copy c joins copy
c + 1 (copy 7 joins copy 0) by two tie lines, bus 14 to bus 1 and bus 10 to
bus 3, each with a reactance of 0.2 pu and a rating of 25 MW.  Branches list
every copy's own lines in copy order, then the ties in copy order.
"""

from __future__ import annotations

from pathlib import Path

COPIES = 8
BUSES_PER_COPY = 14
COST_STEP = 1.15
TIES = ((14, 1), (10, 3))  # (bus in copy c, bus in copy c + 1)
TIE_REACTANCE_PU = 0.2
TIE_RATING_MW = 25.0

HERE = Path(__file__).resolve().parent


def _sections(text: str) -> dict[str, list[list[str]]]:
    """The rows of each #SECTION of a case text, comment lines left out."""
    sections, rows = {}, None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        if line.startswith("#"):
            rows = sections.setdefault(line, [])
        else:
            rows.append(line.split())
    return sections


def ring_case(case14_text: str) -> str:
    """The text of the ring case built from the text of case14.case."""
    parts = _sections(case14_text)
    ties = " and ".join(f"{a}->{b}" for a, b in TIES)
    lines = [
        f"% ring14x8: {COPIES} copies of case14.case joined in a ring, written by cases/make_ring.py.",
        f"% Copy c offsets bus ids by {BUSES_PER_COPY} c, and every copy but the first turns its slack bus",
        f"% into type 2.  Each copy's generator costs are {COST_STEP} times the previous copy's.  Copy c",
        f"% joins copy c + 1 (cyclically) by tie lines {ties}, x = {TIE_REACTANCE_PU} pu, {TIE_RATING_MW} MW.",
        "#BASE", *(" ".join(row) for row in parts["#BASE"]),
        "#BUS",
    ]
    for c in range(COPIES):
        for bus, kind, load in parts["#BUS"]:
            if c > 0 and kind == "3":
                kind = "2"
            lines.append(f"{int(bus) + BUSES_PER_COPY * c} {kind} {load}")
    lines.append("#GEN")
    costs = [float(row[1]) for row in parts["#GEN"]]
    for c in range(COPIES):
        for (bus, _, p_min, p_max), cost in zip(parts["#GEN"], costs):
            lines.append(f"{int(bus) + BUSES_PER_COPY * c} {round(cost, 6)!r} {p_min} {p_max}")
        costs = [cost * COST_STEP for cost in costs]
    lines.append("#BRANCH")
    for c in range(COPIES):
        for from_bus, to_bus, x, rating in parts["#BRANCH"]:
            lines.append(f"{int(from_bus) + BUSES_PER_COPY * c} {int(to_bus) + BUSES_PER_COPY * c} {x} {rating}")
    for c in range(COPIES):
        after = (c + 1) % COPIES
        for from_bus, to_bus in TIES:
            lines.append(f"{from_bus + BUSES_PER_COPY * c} {to_bus + BUSES_PER_COPY * after} "
                         f"{TIE_REACTANCE_PU} {TIE_RATING_MW}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    text = ring_case((HERE / "case14.case").read_text(encoding="utf-8"))
    (HERE / "ring14x8.case").write_text(text, encoding="utf-8")
