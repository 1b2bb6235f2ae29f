"""The benchmark's outputs at every seed its CI step runs, pinned: the output
digest that perfbench/run.py prints (the sha256 of its per-operation hashes,
one a line) and the simulated cost totals of one pass. A change that moves
any canonical output or any round count, message or id volume fails here,
not only in a comparison of two commits' benchmark logs. The pins change
only with a deliberate change to the outputs, stated as such."""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402

PINS = {
    ("components", 1): (
        "f3e9bad1411ef9f693e2744fe7a7b8943e6054f925763511c2962bea182493db",
        {"rounds": 1036, "messages": 2490734, "id_volume": 27305670, "reducer_peak": 366976,
         "state_peak": 528237, "state_total": 2479346, "analyses": 0}),
    ("components", 2): (
        "5ae5dec577b334e597b48f79af5123a7658af6c00af039301e26e9853341a368",
        {"rounds": 1076, "messages": 2497411, "id_volume": 27404726, "reducer_peak": 367291,
         "state_peak": 528610, "state_total": 2485091, "analyses": 0}),
    ("paths", 1): (
        "f467d8939417ff463eb005450940f1123f930b4ea48c21db051a7a60bbd80348",
        {"rounds": 55, "messages": 2137804, "id_volume": 3403160, "reducer_peak": 90112,
         "state_peak": 164189, "state_total": 2092751, "analyses": 0}),
    ("paths", 2): (
        "2c7d410309851bf71b6f42307b5b878ca8ae63decd787b91670ad8add4b1b9a7",
        {"rounds": 55, "messages": 2187352, "id_volume": 3477680, "reducer_peak": 90114,
         "state_peak": 163960, "state_total": 2142299, "analyses": 0}),
    ("paths", 3): (
        "c4e4baf32d52bd4b8168997461917f3fe7fb5ac4cee25d276fac27d643f4edac",
        {"rounds": 55, "messages": 2139537, "id_volume": 3406626, "reducer_peak": 90114,
         "state_peak": 164257, "state_total": 2094484, "analyses": 0}),
    ("slc", 1): (
        "e70148d443c74319373ab683ba72011ea96fc04f0cca9bf7c44c5d2b06796c8c",
        {"rounds": 397, "messages": 335420, "id_volume": 10232340, "reducer_peak": 179746,
         "state_peak": 279804, "state_total": 525128, "analyses": 144}),
    ("slc", 2): (
        "ed57019ad50ab083543a644209f7e6544b816533f6db60eab007e60badc53723",
        {"rounds": 357, "messages": 318312, "id_volume": 10200464, "reducer_peak": 180495,
         "state_peak": 277908, "state_total": 510342, "analyses": 144}),
    ("slc", 3): (
        "211a064ce88ec114124c74bd36a3b98a3c74e3920bfb44dfc870c378a56e6285",
        {"rounds": 345, "messages": 316502, "id_volume": 10197684, "reducer_peak": 178591,
         "state_peak": 278472, "state_total": 514734, "analyses": 144}),
}


@pytest.mark.parametrize("name,seed", sorted(PINS))
def test_benchmark_outputs_match_their_pins(name, seed):
    wl = workloads.WORKLOADS[name]
    _, done = run.run_pass(wl, wl.setup(seed))
    hashes, sim = run.summarise(wl, done)
    digest, want = PINS[name, seed]
    assert not any(h.startswith("raised ") for h in hashes)
    assert hashlib.sha256("\n".join(hashes).encode()).hexdigest() == digest
    assert sim == want
