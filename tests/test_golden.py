"""Golden outputs: the sha256 of ``write_solution`` for attempt-counted solves.

The hashes pin the exact dominating sets that ``hedom5``, ``greedy`` and
``sa`` return on four ~2k-vertex instances with seed 1, so a refactor that
claims to keep behaviour has to keep every output byte. At the default
temperature ten epochs of ``sa`` never beat their greedy seed on these
instances, so ``sa-cold`` (initial temperature 0.1) pins runs where the
annealing moves do change the output. Each entry is ``(hash, size)``;
the size is checked first, so a changed output shows how its size moved.
A change that is meant to alter outputs updates the table and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from domset import AnnealConfig, SolverConfig, generate_instance, solve, verify, write_solution

INSTANCES = {
    "gnp": ("gnp", {"n": 2000, "p": 10 / 1999}),
    "tree": ("tree", {"n": 2000}),
    "grid": ("grid", {"rows": 45, "cols": 45}),
    "star-forest": ("star-forest", {"n": 2000, "max_star": 8}),
}

# The hedom5 entries of gnp, tree and grid were re-recorded when the Cover
# gave up its insertion stamps for its one pick order: the swap sweeps now
# shuffle the pick array, and the prune after an exchange breaks ties by
# pick position. Sizes moved 269 -> 268 (gnp), 757 -> 757 with another set
# (tree) and 521 -> 520 (grid); every other entry kept its bytes.
GOLDEN = {
    ("gnp", "hedom5"): ("5fe796404a082653fa0e6fb24bc2fbcc960b38e2c317a94f98d15259708c3356", 268),
    ("gnp", "greedy"): ("f94cde96fa562dd794a27a7b43a35fd016585204a3f660652ce07013ae7eb647", 277),
    ("gnp", "sa"): ("f94cde96fa562dd794a27a7b43a35fd016585204a3f660652ce07013ae7eb647", 277),
    ("gnp", "sa-cold"): ("2752fa00a15c78e46b14059719398d1117688bf73b9a1172a67fc42087476ef8", 269),
    ("tree", "hedom5"): ("6bf9b40bbde1d1d42929a1ee46585334841a7fb88058e8dcc684c8603972fe65", 757),
    ("tree", "greedy"): ("2ad6665355edc0cf989954e46c8642b5536135f16a7426610baffa5ac5c6e0c2", 784),
    ("tree", "sa"): ("2ad6665355edc0cf989954e46c8642b5536135f16a7426610baffa5ac5c6e0c2", 784),
    ("tree", "sa-cold"): ("9c3ad5ffc80387645d13ac6c494c27bacf6ae4c01612eefe394735fa518de727", 757),
    ("grid", "hedom5"): ("09e195886ccd0d4e3341120a6c2d35178d2b004a82d41682a89b0d186573ed5f", 520),
    ("grid", "greedy"): ("772328c4db659ed9a756660057cb0398ece831300db1c655ca33104531f0b00a", 526),
    ("grid", "sa"): ("772328c4db659ed9a756660057cb0398ece831300db1c655ca33104531f0b00a", 526),
    ("grid", "sa-cold"): ("bb63aa57d77272a5795f7e30fc9afff15fdb4dcab9589ae14af2a0f2049fc142", 521),
    ("star-forest", "hedom5"): ("9ce3aa8f3140574f26df01d11b8f107896bf7828238ac2a2387c4a9e90956d5d", 451),
    ("star-forest", "greedy"): ("9ce3aa8f3140574f26df01d11b8f107896bf7828238ac2a2387c4a9e90956d5d", 451),
    ("star-forest", "sa"): ("9ce3aa8f3140574f26df01d11b8f107896bf7828238ac2a2387c4a9e90956d5d", 451),
    ("star-forest", "sa-cold"): ("9ce3aa8f3140574f26df01d11b8f107896bf7828238ac2a2387c4a9e90956d5d", 451),
}


def _config(variant: str) -> SolverConfig:
    temperature = 0.1 if variant == "sa-cold" else 1.0
    return SolverConfig(
        algorithm="sa" if variant == "sa-cold" else variant,
        wallclock=False,
        attempt_cap=3,
        seed=1,
        anneal=AnnealConfig(initial_temperature=temperature, max_epochs=10),
    )


@pytest.mark.parametrize("instance,variant", sorted(GOLDEN))
def test_golden_output(instance, variant):
    kind, params = INSTANCES[instance]
    g, _ = generate_instance(kind, 1, **params)
    sol = solve(g, _config(variant))
    assert verify(g, sol).valid
    digest, size = GOLDEN[instance, variant]
    # The size first, so an intended change shows its quality delta.
    assert len(sol) == size
    assert hashlib.sha256(write_solution(sol).encode()).hexdigest() == digest
