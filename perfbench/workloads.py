"""The benchmark's workloads: ``ScenarioConfig`` overrides.

Why each workload exists, and which layers it loads, is in README.md in
this directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: Every workload builds the world of this scenario seed: the paper's
#: world, the one with reference results.  README.md says why the worlds
#: are fixed and what ``--seed`` varies instead.
SCENARIO_SEED = 2017

#: The ``PAPER_VALUES`` entries that are shares of the delivery process,
#: so they stay comparable in a world of another size than the paper's.
SHARE_PAPER_KEYS = (
    "one_hop_fraction",
    "all_within_24h",
    "all_within_94h",
    "one_hop_within_24h",
    "one_hop_within_94h",
    "subs_above_0.80_all",
    "subs_above_0.70_all",
    "subs_at_least_0.80_one_hop",
)


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: Dict[str, object]

    @property
    def is_paper_world(self) -> bool:
        """No overrides: the paper's deployment, with every Fig. 4 value."""
        return not self.overrides

    @property
    def warm_key_cache(self) -> bool:
        """Keys come through the key cache, which an untimed pass fills."""
        return self.overrides.get("provisioning", "eager") != "eager"

    @property
    def faulty(self) -> bool:
        """Faults are injected, so security failures are expected."""
        return self.overrides.get("faults", "none") != "none"

    def scenario_overrides(self, key_cache_dir: Optional[str]) -> dict:
        """The run's ``ScenarioConfig`` keywords.  The fault schedule, when
        the workload injects faults, follows from the scenario seed."""
        overrides = dict(self.overrides, seed=SCENARIO_SEED)
        if key_cache_dir is not None:
            overrides["key_cache_dir"] = key_cache_dir
        return overrides


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("field_study", {}),
        Workload(
            "city_sweep",
            {
                "num_users": 1000,
                "duration_days": 1,
                "total_posts": 100,
                # 2000 users' density in a 10 km square, at half the size:
                # a smaller heap varies less with the host's load.
                "area": (7071.0, 7071.0),
                "social_graph": "degree_bounded",
                "provisioning": "lazy",
                "require_encryption": False,
                "medium_tick_s": 120.0,
                "social_graph_stats": False,
                # Meetups and venues scaled with the population (the
                # defaults are sized for 10 users), so that posts are
                # delivered at all.
                "meetups_per_day": 260.0,
                "num_social_venues": 100,
                "post_at_meetup_prob": 1.0,
                # Unencrypted, so key size only sets warm-up keygen cost.
                "key_bits": 512,
            },
        ),
        Workload(
            "lossy_epidemic",
            {
                "num_users": 40,
                "duration_days": 1,
                "total_posts": 80,
                "area": (2000.0, 2000.0),
                "routing_protocol": "epidemic",
                "duty_cycle": False,
                "faults": "harsh",
                "social_graph": "degree_bounded",
                "provisioning": "lazy",
                "social_graph_stats": False,
            },
        ),
    )
}

#: Not a workload: ``run.py --self-test`` runs it once.  Its shard
#: workers are forked children, so total CPU must exceed parent-only CPU.
SELF_TEST = Workload(
    "self_test",
    {
        "duration_days": 1,
        "total_posts": 20,
        "key_bits": 512,
        "require_encryption": False,
        "medium_tick_s": 60.0,
        "medium_shards": 2,
    },
)
