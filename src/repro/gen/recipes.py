"""Named workload recipes: the campaign subsystem's workload vocabulary.

A *recipe* bundles a :func:`repro.gen.synthetic.generate_benchmark` call
with the mesh the workload is meant to stress, under a stable name that
campaign specs (and humans) can reference instead of re-spelling the knobs.
The registry spans the scaling axis the ROADMAP's open item 3 names: from
the paper-scale designs every benchmark already runs (20 cores, a 2x2
carries them) up to 8x8 and 16x16 meshes with hundreds of use cases —
the regime where the single-int free-set mask and minimal-path enumeration
start to hurt (see PERFORMANCE.md).

``mesh`` is the placement target for the refinement-style methods (the
unified flow would select the smallest feasible topology on its own — for
these designs that is far smaller than the mesh under study, so campaign
cells force it).  Recipes are plain data: resolving one never generates
the use-case set, so expanding a campaign over 16x16 recipes stays
instant; generation happens inside the jobs the cells become.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.exceptions import SpecificationError

__all__ = ["WORKLOAD_RECIPES", "workload_recipe", "recipe_names"]


#: name -> {"generator": generate_benchmark recipe, "mesh": (rows, cols) | None}
#:
#: Flow counts shrink as core counts grow: hundreds of flows per use case
#: on 48+ cores would saturate every NI link and make the workload about
#: infeasibility, not mapping quality.  The 8x8/16x16 entries mirror the
#: sparse per-core fan-out of the 100-use-case, 48-core mesh-8x8 design
#: ``tests/test_screen.py`` pins, scaled up.
WORKLOAD_RECIPES: Dict[str, Dict] = {
    # paper scale — the reference designs of the seed fingerprint pins;
    # minimal topology, no forced mesh
    "paper_spread10": {
        "generator": {"kind": "spread", "use_case_count": 10, "seed": 3},
        "mesh": None,
    },
    "paper_spread40": {
        "generator": {"kind": "spread", "use_case_count": 40, "seed": 3},
        "mesh": None,
    },
    "paper_bottleneck10": {
        "generator": {"kind": "bottleneck", "use_case_count": 10, "seed": 3},
        "mesh": None,
    },
    # mid scale — 4x4 mesh, 16 cores
    "mesh4x4_spread24": {
        "generator": {
            "kind": "spread", "use_case_count": 24, "core_count": 16,
            "flows_per_use_case": [8, 14], "seed": 3,
        },
        "mesh": (4, 4),
    },
    # big mesh — 64 switches, 112 links, thousands of minimal paths
    "mesh8x8_spread120": {
        "generator": {
            "kind": "spread", "use_case_count": 120, "core_count": 48,
            "flows_per_use_case": [8, 14], "seed": 3,
        },
        "mesh": (8, 8),
    },
    "mesh8x8_bottleneck100": {
        "generator": {
            "kind": "bottleneck", "use_case_count": 100, "core_count": 48,
            "flows_per_use_case": [8, 14], "seed": 3,
        },
        "mesh": (8, 8),
    },
    # the 16x16 frontier — 256 switches; minimal-path enumeration between
    # distant corners is the dominant cost here (PERFORMANCE.md profile)
    "mesh16x16_spread200": {
        "generator": {
            "kind": "spread", "use_case_count": 200, "core_count": 160,
            "flows_per_use_case": [6, 10], "seed": 3,
        },
        "mesh": (16, 16),
    },
}


def recipe_names() -> Tuple[str, ...]:
    """The registered recipe names, sorted."""
    return tuple(sorted(WORKLOAD_RECIPES))


def workload_recipe(name: str) -> Tuple[Dict, Optional[Tuple[int, int]]]:
    """Resolve a recipe name to its ``(generator, mesh)`` pair.

    The generator dictionary is a fresh copy (callers mutate it to override
    seeds); the mesh is ``None`` for minimal-topology workloads.
    """
    try:
        entry = WORKLOAD_RECIPES[name]
    except KeyError:
        raise SpecificationError(
            f"unknown workload recipe {name!r}; expected one of "
            f"{list(recipe_names())}"
        ) from None
    mesh = entry["mesh"]
    return dict(entry["generator"]), None if mesh is None else tuple(mesh)
