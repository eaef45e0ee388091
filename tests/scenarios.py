"""Scenarios that several test modules build from the bundled presets."""
from mdirand import cli, mdi
from mdirand.quantum import double_ensemble, double_statistics


def doubled_scenario(scen):
    """Two independent copies of scen, generating on the input (g, g)."""
    g = scen.generation_index - 1
    return mdi.Scenario(double_ensemble(scen.ensemble), double_statistics(scen.observed),
                        mode=scen.mode, generation_index=g * scen.n_states + g + 1)


def doubled_preset(name):
    """Two copies of the preset name at its own eta."""
    return doubled_scenario(cli.realize(cli.load_scenario_spec(name)))


def force_order_one_group(monkeypatch):
    """Make build_sdp solve every scenario through the order-1 copy group,
    as it solves a scenario without copy symmetry: all blocks and all rows,
    none reduced."""
    monkeypatch.setattr(mdi, "_copy_symmetry", lambda scen, faces: mdi._CopySymmetry(
        1, (scen.n_states, scen.n_outcomes, scen.dim)))
