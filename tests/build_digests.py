"""One sha256 per built problem, to check that a change to the build keeps
every problem bit for bit. Each line is a build's name and the digest of
b, of every array of mdi.build_sdp's preprocessed SdpProblem (its group
rows and stacks, objective stacks, weights, arrow plan, row map and
certificate vector) and of the faces of mdi.face_bases.

The builds: the 12 presets in asymptotic and in finite-q mode, with and
without --relax 1e-3; the two doubled problems of two_copy_detail (fig7-3o,
fig7-proj); four copies of both Fig. 6 sources at their preset eta and at
eta = 1; with --m5, five copies of both sources too. Names given on the
command line keep only those builds. A build that raises prints the
exception's type instead of a digest. Each build is a cold one: the
constraint maps that build_sdp keeps are emptied before it.

With --warm, the selected builds then run again, twice each, without
emptying those maps, interleaved as A B A C B D C ...: the second run of
a build follows the first run of the next one, so it reuses the map kept
from its first run (unless the maps' byte budget dropped it), and each
line gets the second run's digest beside the cold one. Both must be equal.
Then one line per map that build_sdp still keeps, in store order (the
most recently used last), gives the bytes that the store recorded for it,
so a change to what the store counts or drops shows in the same diff.

With --solve, each cold build is then solved by sdp_solver.solve, and the
digest of its SdpSolution follows the build's: its status, y, every x and
slack block, its scalar fields and every field of every IterationRecord.

The first line names the BLAS thread variables: the stacks' bits may
differ between thread counts, so only runs at one thread count compare.

    python tests/build_digests.py [--m5] [--warm] [--solve] [NAME ...]

Run it on two checkouts and diff the outputs.
"""
import argparse
import dataclasses
import hashlib
import os

import numpy as np

from mdirand import cli, mdi, quantum, sdp_solver
from mdirand.sdp_solver import SolverOptions

MODES = (mdi.MODE_ASYMPTOTIC, mdi.MODE_FINITE_Q)
SOURCES = {"fig6-2s": "fig6-2s-m2", "fig6-4s": "fig6-4s-m2"}  # the two Fig. 6 sources
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _scenario(preset, eta=None, **spec):
    return cli.realize({**cli.load_scenario_spec(preset), **spec}, eta=eta)


def _doubled(preset):
    s = _scenario(preset)
    g = s.generation_index - 1
    return mdi.Scenario(quantum.double_ensemble(s.ensemble),
                        quantum.double_statistics(s.observed), mode=s.mode,
                        generation_index=g * s.n_states + g + 1)


def builds(m5=False):
    """(name, scenario maker, relax) of every build, in a fixed order."""
    for preset in cli.preset_names():
        for mode in MODES:
            for relax in (0.0, 1e-3):
                name = f"{preset}/{mode}" + ("/relax" if relax else "")
                yield name, lambda p=preset, m=mode: _scenario(p, mode=m), relax
    for preset in ("fig7-3o", "fig7-proj"):
        yield f"{preset}/doubled", lambda p=preset: _doubled(p), 0.0
    for copies, etas in ((4, (None, 1.0)),) + (((5, (None,)),) if m5 else ()):
        for source, preset in SOURCES.items():
            for eta in etas:
                name = f"{source}-x{copies}" + ("" if eta is None else f"/eta{eta:g}")
                yield name, lambda p=preset, c=copies, e=eta: _scenario(p, e, copies=c), 0.0


def arrays(p, faces):
    """(name, array) of everything the digest covers, in a fixed order."""
    named = [("b", p.b), ("block_dims", np.array(p.block_dims)), ("cert_b", np.array(p.cert_b)),
             ("cert_vector", p.cert_vector)]
    for g in range(len(p.size_groups)):
        named += [(f"{field}[{g}]", getattr(p, field)[g]) for field in
                  ("group_rows", "group_stacks", "objective_stacks", "group_weights")]
    named += [(f"arrow.blocks[{i}]", a) for i, a in enumerate(p.arrow.blocks)]
    named += [("arrow.border", p.arrow.border)]
    named += [(f"row_map.{f}", getattr(p.row_map, f)) for f in
              ("kept", "dropped", "scales", "dependence", "cert_u")]
    return named + [(f"face[{x}]", v) for x, v in enumerate(faces)]


def solution_arrays(sol):
    """(name, array) of every field of a solution, in a fixed order."""
    blocks = ("x_blocks", "slack_blocks", "iterations")
    named = [(f.name, np.array(getattr(sol, f.name))) for f in dataclasses.fields(sol)
             if f.name not in blocks]
    named += [(f"{field}[{k}]", a) for field in blocks[:2]
              for k, a in enumerate(getattr(sol, field))]
    return named + [(f"iterations[{i}]", np.array(dataclasses.astuple(rec), dtype=float))
                    for i, rec in enumerate(sol.iterations)]


def digest(named):
    h = hashlib.sha256()
    for name, a in named:
        h.update(name.encode())
        if a is not None:
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def build(make, relax, solve=False):
    """The digest of one build, then with solve the digest of its solution,
    or the type of the exception either raised."""
    try:
        scenario = make()
        opts = SolverOptions(relax=relax)
        problem, _ = mdi.build_sdp(scenario, opts)
        out = digest(arrays(problem, mdi.face_bases(scenario)))
    except Exception as exc:  # the same failure on both sides compares equal
        return type(exc).__name__ + " -" * solve
    if not solve:
        return out
    try:
        return f"{out} {digest(solution_arrays(sdp_solver.solve(problem, opts)))}"
    except Exception as exc:
        return f"{out} {type(exc).__name__}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--m5", action="store_true", help="add the five-copy builds")
    parser.add_argument("--warm", action="store_true",
                        help="also print the digest of each build made with the kept maps")
    parser.add_argument("--solve", action="store_true",
                        help="also print the digest of each cold build's solution")
    parser.add_argument("names", nargs="*", help="keep only these builds")
    args = parser.parse_args()
    print("#", *(f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_THREADS), flush=True)
    selected = [(name, make, relax) for name, make, relax in builds(args.m5)
                if not args.names or name in args.names]
    cold = {}
    for name, make, relax in selected:
        mdi._maps.clear()  # every build is a cold one
        cold[name] = build(make, relax, args.solve)
        if not args.warm:
            print(name, cold[name], flush=True)
    if args.warm and selected:  # a later run of a name overwrites its digest
        order = [selected[0], *(x for pair in zip(selected[1:], selected) for x in pair),
                 selected[-1]]
        warm = {name: build(make, relax) for name, make, relax in order}
        for name, line in cold.items():
            print(name, line, warm[name])
        for i, (_, _, nbytes) in enumerate(mdi._maps.values()):
            print(f"map {i} {nbytes} bytes")


if __name__ == "__main__":
    main()
