"""The benchmark workloads: shrunk harness configs resolved from a seed base.

Each workload is one harness experiment with config overrides.  The seed
base chosen on the command line becomes a block of consecutive experiment
seeds; the program only ever sees the resolved config.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    seed_count: int
    # fewest seeds the experiment accepts; the warm-up run uses these
    warmup_seeds: int
    overrides: tuple[str, ...]
    # smaller variant for the self-test only
    tiny_seed_count: int
    tiny_overrides: tuple[str, ...]

    def seeds(self, base: int, tiny: bool = False) -> tuple[int, ...]:
        count = self.tiny_seed_count if tiny else self.seed_count
        return tuple(range(base * count, (base + 1) * count))

    def config(self, base: int, tiny: bool = False, warmup: bool = False) -> dict:
        """Resolved harness config, exactly what `nlwlab <experiment>` would run."""
        from nlwlab.harness import build_config

        seeds = self.seeds(base, tiny)
        if warmup:
            seeds = seeds[:self.warmup_seeds]
        overrides = list(self.tiny_overrides if tiny else self.overrides)
        overrides.append("seeds=" + ",".join(str(s) for s in seeds))
        return build_config(self.experiment, overrides=overrides)


def grid_of(values: dict):
    """The config's grid, as the harness builds it."""
    from nlwlab import Grid

    return Grid(n=values["grid.n"], L=values["grid.L"], dim=values["grid.dim"])


def recipe_of(values: dict, seed: int):
    """The config's data recipe for one seed, as the harness builds it."""
    from nlwlab import DataRecipe

    return DataRecipe(seed=seed, s_target=values["pde.s"], k_min=values["recipe.k_min"],
                      k_max=values["recipe.k_max"], size_hs=values["recipe.size_hs"],
                      window=values["recipe.window"])


WORKLOADS = {w.name: w for w in (
    # Kick-bound: nearly all time is the oversampled FFTs of the nonlinear
    # kick inside evolve; no states are kept and no norms beyond the pair norm.
    Workload(
        name="growth-kick", experiment="growth", seed_count=2, warmup_seeds=1,
        overrides=("growth.checkpoints=0.25,0.5", "growth.sample_interval=0.125"),
        tiny_seed_count=2,
        tiny_overrides=("growth.checkpoints=0.125,0.25",
                        "growth.sample_interval=0.125")),
    # Trajectory diagnostics: a sampled linear orbit, space-time norms with
    # composed multipliers and factor-1 Lebesgue norms at fractional r over
    # kept states, and a short densely sampled nonlinear run.
    Workload(
        name="strichartz-norms", experiment="strichartz", seed_count=8,
        warmup_seeds=2, overrides=("strichartz.horizon=0.5", "zbound.tau=0.25"),
        tiny_seed_count=4,
        tiny_overrides=("strichartz.horizon=0.25", "zbound.tau=0.125")),
)}
