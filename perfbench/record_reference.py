"""Record the reference values the benchmark checks outputs against.

    python3 perfbench/record_reference.py

Runs every study case of the three workloads (full size; the smoke cases
are their first levels) through ``pdwg.run_study`` and assembles the
p5 systems at the full and the smoke level, then writes
``reference.json`` next to this file.  The committed file was recorded
from commit e89f737 (the package as first imported); re-record only
when a change to the numbers is intended and reviewed.
"""

import json

import run


def record():
    import pdwg
    from pdwg.analysis import CSV_HEADER

    deepest = {}  # a level's results do not depend on how many levels follow it
    for case in run.study_cases(False) + run.sweep_cases(False):
        if case.key not in deepest or case.levels > deepest[case.key].levels:
            deepest[case.key] = case
    studies = {}
    for case in deepest.values():
        config = pdwg.SpaceConfig(k=case.k, multiplier_space=case.multiplier, c0_type=case.c0)
        table = pdwg.run_study(pdwg.builtin(case.problem), config, levels=case.levels)
        entry = {"n_unknowns": [row.n_primal + row.n_mult for row in table.rows]}
        for col in run.ERROR_COLUMNS:
            entry[col] = [getattr(row, col) for row in table.rows]
        studies[case.key] = entry
        print(case.key, "done", flush=True)

    assemblies = {}
    problem = pdwg.builtin(run.ASSEMBLY_PROBLEM)
    for level in (run.assembly_level(True), run.assembly_level(False)):
        mesh = pdwg.build_initial_mesh(problem.domain)
        for _ in range(level):
            mesh = pdwg.refine_uniform(mesh)
        assemblies[str(level)] = {}
        for key, config in run.assembly_configs().items():
            system = pdwg.build_saddle(mesh, config, problem)
            facts = run.assembly_facts(system)
            facts["interp_residual"] = run.interpolation_residual(mesh, config, problem, system)
            assemblies[str(level)][key] = facts
            del system
        print("assembly level", level, "done", flush=True)

    return {"csv_header": CSV_HEADER, "studies": studies, "assemblies": assemblies}


if __name__ == "__main__":
    run.sys.path.insert(0, str(run.SRC))
    (run.HERE / "reference.json").write_text(json.dumps(record(), indent=1) + "\n")
