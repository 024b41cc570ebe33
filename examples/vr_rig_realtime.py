#!/usr/bin/env python
"""Case study B: real-time 3D-360 VR video from a 16-camera rig.

Renders a synthetic panoramic scene through a 16-camera ring, runs the
full functional pipeline (demosaic -> pairwise rectification ->
bilateral-space stereo -> ODS stitching), profiles where the compute goes
(Figure 9), and then asks the unified exploration engine the Figure 10
question at full 16x4K scale: which (cut point, platform) configurations
are real-time feasible, and which are Pareto-optimal?

Run:
    PYTHONPATH=src python examples/vr_rig_realtime.py
"""

import numpy as np

from repro.core import TextTable
from repro.datasets.rig import CameraRig, PanoramicScene
from repro.explore import Scenario, explore
from repro.hw.network import ETHERNET_25G
from repro.vr.blocks import RigDataModel
from repro.vr.pipeline import VrPipeline
from repro.vr.scenarios import build_vr_pipeline


def main() -> None:
    rig = CameraRig(n_cameras=16, radius=1.0, sim_height=48, sim_width=80)
    scene = PanoramicScene.random(seed=7, n_objects=6,
                                  object_distances=(2.0, 6.0))
    pipeline = VrPipeline(
        rig,
        data_model=RigDataModel(),
        min_depth_m=1.5,
        sigma_spatial=4,
        solver_iters=10,
        pano_width=320,
    )

    print("Capturing and processing one frame set (16 cameras)...")
    run = pipeline.run_scene(scene, seed=0)

    table = TextTable(
        ["block", "seconds", "share_pct", "logical_output_mb"],
        title="Figure 9: compute distribution and data sizes",
    )
    shares = run.compute_shares()
    for block in ("B1", "B2", "B3", "B4"):
        table.add_row(
            {
                "block": block,
                "seconds": run.block_seconds[block],
                "share_pct": shares[block] * 100.0,
                "logical_output_mb": run.block_output_bytes[block] / 1e6,
            }
        )
    table.print()
    print(f"\nSlowest block: {run.slowest_block()} "
          "(the paper's 70%-of-compute depth-estimation stage)")

    # What did the stereo engine recover?
    depths = np.concatenate([pd.depth_m.ravel() for pd in run.pair_depths])
    print(
        f"Recovered depth range across pairs: "
        f"{np.percentile(depths, 5):.1f} - {np.percentile(depths, 95):.1f} m "
        f"(objects at 2-6 m, backdrop at 20 m)"
    )
    pano = run.panorama
    print(
        f"Stitched ODS panorama: {pano.left_eye.shape[1]}x"
        f"{pano.left_eye.shape[0]} per eye, "
        f"inter-eye difference {np.abs(pano.left_eye - pano.right_eye).mean():.4f}"
    )

    # Full-scale Figure 10 check through the exploration engine: one
    # declarative scenario, folded by the columnar cohort walk.
    scenario = Scenario(
        name="vr-16cam at 25 GbE (target 30 FPS)",
        pipeline=build_vr_pipeline(model=RigDataModel()),
        link=ETHERNET_25G,
        target_fps=30.0,
    )
    result = explore(scenario)
    table = TextTable(
        ["config", "compute_fps", "communication_fps", "total_fps",
         "bottleneck", "feasible"],
        title=f"Figure 10 at full scale: {len(result.rows)} configurations",
    )
    table.add_rows(result.top_k("total_fps", k=6))
    table.print()
    best = result.best
    print(f"\nBest configuration: {best['config']} at "
          f"{best['total_fps']:.1f} FPS ({best['bottleneck']}-bound)")
    print(f"Real-time feasible: {len(result.feasible)} of {len(result.rows)}; "
          f"Pareto-optimal on (compute, communication): "
          f"{[r['config'] for r in result.pareto()]}")


if __name__ == "__main__":
    main()
