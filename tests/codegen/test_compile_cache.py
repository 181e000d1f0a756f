"""A program keeps one compiled form per exact compiler input.

The key of :func:`~repro.codegen.compile_program` is the non-profile
arguments, the merged directives and the probabilities condensation may
read from the branch profile: those of the data-dependent branches no
directive covers.  In Sweep3D that is only the flux-fixup branch.
"""

from repro.apps import build_sweep3d
from repro.codegen import compile_program
from repro.ir import BranchProfile, If, format_program, walk

FIXUP = 18  # Sweep3D's data-dependent flux-fixup branch


def profile(counts: dict[int, tuple[int, int]]) -> BranchProfile:
    """A profile of ``{sid: (taken, total)}``."""
    return BranchProfile.from_dict({str(sid): list(pair) for sid, pair in counts.items()})


def test_only_the_fixup_branch_is_data_dependent():
    prog = build_sweep3d()
    branches = [s for s in walk(prog.body) if isinstance(s, If)]
    assert [s.sid for s in branches if s.data_dependent] == [FIXUP]
    assert len(branches) > 1


def test_profiles_differing_off_the_fixup_branch_share_one_compile():
    prog = build_sweep3d()
    a = profile({FIXUP: (3, 10)})
    b = profile({FIXUP: (3, 10), 13: (5, 5), 20: (0, 2)})
    assert compile_program(prog, profile=a) is compile_program(prog, profile=b)


def test_profiles_differing_on_the_fixup_branch_do_not():
    prog = build_sweep3d()
    a = compile_program(prog, profile=profile({FIXUP: (3, 10)}))
    b = compile_program(prog, profile=profile({FIXUP: (4, 10)}))
    assert a is not b
    assert format_program(a.simplified) != format_program(b.simplified)
    # each prints what a compile of a fresh program with its profile prints
    fresh = compile_program(build_sweep3d(), profile=profile({FIXUP: (4, 10)}))
    assert format_program(b.simplified) == format_program(fresh.simplified)


def test_a_directive_on_the_fixup_branch_hides_the_profile():
    prog = build_sweep3d()
    pinned = {FIXUP: 0.25}
    a = compile_program(prog, profile=profile({FIXUP: (3, 10)}), directives=pinned)
    b = compile_program(prog, profile=profile({FIXUP: (4, 10)}), directives=pinned)
    assert a is b
    assert compile_program(prog, profile=profile({FIXUP: (3, 10)})) is not a


def test_other_arguments_key_apart():
    prog = build_sweep3d()
    kept = compile_program(prog)
    assert compile_program(prog, eliminate_dead_data=False) is not kept
    assert compile_program(prog, max_iterations=16) is not kept
    assert compile_program(prog) is kept
