#!/usr/bin/env python
"""Exploring the NN accelerator's design space (Section III-A).

Sweeps the SNNAP-style processing unit's two hardware knobs — PE count and
datapath width — for the paper's 400-8-1 face-authentication network
through the unified exploration machinery (:mod:`repro.core.sweep` over a
parallel :class:`repro.explore.SweepExecutor`), and prints the energy
U-shape (optimal at 8 PEs), the power/precision ladder (8-bit chosen at
~40% power below 16-bit), and the Pareto frontier over energy vs.
throughput — the designs that are actually worth building.

Then switches altitude: the accelerator is one block inside whole-camera
design spaces, so the finale pulls two workloads from the shared
scenario catalog — the face-auth camera's energy study and the VR rig's
throughput study — and runs them as one mini-campaign through the same
executor, streaming the energy rows to CSV on the way.

Run:
    PYTHONPATH=src python examples/design_space_explorer.py
"""

import io
from dataclasses import replace

from repro.core import TextTable, parameter_sweep
from repro.explore import Campaign, CsvSink, SweepExecutor, evaluation_path
from repro.explore.catalog import load_builtin
from repro.nn import MLP
from repro.snnap import SnnapAccelerator
from repro.snnap.geometry import evaluate_design


def main() -> None:
    model = MLP((400, 8, 1), seed=0)
    print(f"Network: {'-'.join(str(s) for s in model.layer_sizes)} "
          f"({model.n_macs()} MACs/inference)\n")

    def measure(n_pes: int, bits: int) -> dict:
        point = evaluate_design(model, n_pes, bits)
        return {
            "cycles": point.cycles_per_inference,
            "energy_nj": point.energy_per_inference * 1e9,
            "power_uw": point.power * 1e6,
            "throughput_inf_s": point.throughput,
        }

    # One sweep covers both axes; the thread executor fans the
    # 6x3 = 18 design points out over 4 workers in deterministic order.
    sweep = parameter_sweep(
        measure,
        executor=SweepExecutor(workers=4, backend="thread"),
        n_pes=[1, 2, 4, 8, 16, 32],
        bits=[16, 8, 4],
    )

    # Axis 1: geometry at the paper's 8-bit datapath.
    table = TextTable(
        ["n_pes", "cycles", "energy_nj", "power_uw", "throughput_inf_s"],
        title="Geometry sweep at 30 MHz / 0.9 V (8-bit datapath)",
    )
    table.add_rows(sweep.where(bits=8).rows)
    table.print()
    best = sweep.where(bits=8).best("energy_nj")
    print(f"\nEnergy-optimal geometry: {best['n_pes']} PEs "
          "(matches the paper's chosen design)")

    # Axis 2: precision at the 8-PE geometry.
    table = TextTable(
        ["bits", "energy_nj", "power_uw", "power_vs_16b_pct"],
        title="Datapath width at the 8-PE geometry",
    )
    at_8pe = sweep.where(n_pes=8)
    baseline = at_8pe.where(bits=16).rows[0]["power_uw"]
    for bits in (16, 8, 4):
        row = at_8pe.where(bits=bits).rows[0]
        table.add_row({**row, "power_vs_16b_pct": 100.0 * row["power_uw"] / baseline})
    table.print()

    # The designs worth building: non-dominated on (energy, throughput).
    frontier = sweep.pareto(("energy_nj", "throughput_inf_s"),
                            maximize=(False, True))
    table = TextTable(
        ["n_pes", "bits", "energy_nj", "throughput_inf_s"],
        title=f"Pareto frontier: {len(frontier.rows)} of "
              f"{len(sweep.rows)} designs are non-dominated",
    )
    table.add_rows(frontier.rows)
    table.print()

    # What the chosen design costs at the camera's capture rate.
    chosen = SnnapAccelerator(model, n_pes=8, data_bits=8)
    print(
        f"\nChosen design (8 PEs, 8-bit) at 1 FPS capture: "
        f"{chosen.duty_cycled_power(1.0) * 1e6:.2f} uW average - "
        "comfortably inside a harvested-energy budget."
    )
    report = chosen.run(__import__("numpy").zeros((1, 400))).energy_per_sample
    print("\nPer-inference energy breakdown:")
    print(report.pretty("nJ"))

    # From one accelerator to whole cameras: the same executor drives a
    # two-scenario campaign straight from the workload catalog, with
    # the energy scenario's rows streamed to a CSV sink as they land.
    catalog = load_builtin()
    fleet = [catalog.build("faceauth-energy"), catalog.build("vr-fig10")]
    # Self-describing perf repro: name the evaluation path each
    # scenario's solo explore() rides (batch-cohort on the stock models,
    # on any executor; batch-cohort-pruned when lower-bound pruning
    # fuses into the columnar walk; scalar-* when a custom model forces
    # the fallback). The campaign below runs the same paths: its stock
    # members fold in process, and only scalar-* members would send
    # config chunks to the executor's pool.
    pool = SweepExecutor(workers=4, backend="thread")
    pruned = replace(
        fleet[1], name="vr-fig10-pruned", auto_prune=True, auto_prune_configs=True
    )
    for scenario in (*fleet, pruned):
        print(f"Evaluation path for {scenario.name}: {evaluation_path(scenario)}")
    csv_stream = io.StringIO()
    campaign = Campaign(fleet, name="explorer-finale").run(
        pool,
        sinks={"faceauth-energy": CsvSink(csv_stream)},
    )
    campaign.to_table().print()
    streamed = csv_stream.getvalue()
    print(
        f"\nStreamed {len(streamed.splitlines()) - 1} face-auth rows to CSV "
        f"while exploring ({len(streamed)} bytes, byte-identical to the "
        "eager export)."
    )


if __name__ == "__main__":
    main()
