"""Ring-of-N camera rig rendering a shared panoramic scene.

This is the reproduction's stand-in for the Google-Jump-style 16x4K rig of
the paper's VR case study. Cameras sit on a ring of radius ``radius`` facing
outward; the scene is a distant textured cylinder plus billboard objects at
finite distances, so adjacent cameras see *real parallax* — exactly the
signal the depth-estimation block (B3) extracts.

Two scales coexist deliberately:

* the **logical** sensor geometry (3840x2160, 12-bit Bayer) drives all
  data-size and bandwidth accounting (see :mod:`repro.vr.blocks`);
* the **simulation** geometry (a configurable fraction of 4K) is what gets
  rendered and pushed through the algorithmic pipeline, keeping experiments
  laptop-fast while exercising identical code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.rng import make_rng
from repro.errors import DatasetError
from repro.imaging import draw
from repro.imaging.bayer import bayer_mosaic

#: Logical sensor geometry for the data-size model (per camera).
LOGICAL_WIDTH = 3840
LOGICAL_HEIGHT = 2160


@dataclass(frozen=True)
class PanoObject:
    """A billboard object in the panoramic scene.

    Angles are radians; ``distance`` is meters from the rig center;
    ``radius`` is the physical half-size in meters; ``height`` the vertical
    offset of its center in meters.
    """

    azimuth: float
    distance: float
    radius: float
    height: float
    tint: tuple[float, float, float]
    texture: np.ndarray

    def __post_init__(self) -> None:
        if self.distance <= 0 or self.radius <= 0:
            raise DatasetError("object distance and radius must be positive")


@dataclass(frozen=True)
class PanoramicScene:
    """Cylindrical background texture plus finite-distance objects."""

    background: np.ndarray  # (Hpan, Wpan) texture indexed by (height, azimuth)
    background_distance: float
    background_half_height: float  # meters covered by the texture vertically
    objects: tuple[PanoObject, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.background.ndim != 2:
            raise DatasetError("panorama background must be 2-D")
        if self.background_distance <= 0 or self.background_half_height <= 0:
            raise DatasetError("background geometry must be positive")

    @staticmethod
    def random(
        seed: int | np.random.Generator | None = 0,
        n_objects: int = 6,
        background_distance: float = 20.0,
        object_distances: tuple[float, float] = (2.0, 10.0),
        pano_height: int = 128,
        pano_width: int = 1024,
    ) -> "PanoramicScene":
        """Sample a busy scene: textured backdrop + objects at mixed depths."""
        rng = make_rng(seed)
        background = draw.smooth_texture(pano_height, pano_width, rng, scale=4,
                                         low=0.2, high=0.9)
        objects = []
        for _ in range(n_objects):
            objects.append(
                PanoObject(
                    azimuth=float(rng.uniform(0.0, 2 * np.pi)),
                    distance=float(rng.uniform(*object_distances)),
                    radius=float(rng.uniform(0.25, 0.9)),
                    height=float(rng.uniform(-0.8, 0.8)),
                    tint=(
                        float(rng.uniform(0.6, 1.0)),
                        float(rng.uniform(0.6, 1.0)),
                        float(rng.uniform(0.6, 1.0)),
                    ),
                    texture=draw.smooth_texture(48, 48, rng, scale=3,
                                                low=0.15, high=0.95),
                )
            )
        return PanoramicScene(
            background=background,
            background_distance=background_distance,
            background_half_height=6.0,
            objects=tuple(objects),
        )


@dataclass(frozen=True)
class RigFrameSet:
    """One synchronized capture from every camera on the rig.

    ``raw`` are Bayer frames (what the sensor emits), ``rgb`` the rendered
    ground-truth color frames, ``depth`` per-pixel range in meters.
    """

    raw: tuple[np.ndarray, ...]
    rgb: tuple[np.ndarray, ...]
    depth: tuple[np.ndarray, ...]
    rig: "CameraRig"

    def __len__(self) -> int:
        return len(self.raw)


class CameraRig:
    """Outward-facing ring of cameras with pinhole optics.

    Parameters
    ----------
    n_cameras:
        Number of cameras on the ring (paper: 16).
    radius:
        Ring radius in meters (Jump-class rigs: ~0.14 m).
    hfov_deg:
        Horizontal field of view per camera. With 16 cameras every point is
        seen by several cameras when hfov > 22.5 deg.
    sim_height, sim_width:
        Simulation resolution actually rendered.
    """

    def __init__(
        self,
        n_cameras: int = 16,
        radius: float = 0.14,
        hfov_deg: float = 90.0,
        sim_height: int = 96,
        sim_width: int = 160,
    ):
        if n_cameras < 2:
            raise DatasetError(f"rig needs >= 2 cameras, got {n_cameras}")
        if not 10.0 <= hfov_deg < 180.0:
            raise DatasetError(f"hfov must be in [10, 180) deg, got {hfov_deg}")
        if radius <= 0:
            raise DatasetError(f"radius must be positive, got {radius}")
        self.n_cameras = n_cameras
        self.radius = radius
        self.hfov = np.deg2rad(hfov_deg)
        self.sim_height = sim_height
        self.sim_width = sim_width
        # Pinhole focal length in pixels from the horizontal FOV.
        self.focal = (sim_width / 2.0) / np.tan(self.hfov / 2.0)

    # ------------------------------------------------------------------
    def camera_yaw(self, index: int) -> float:
        """Outward facing direction of camera ``index`` (radians)."""
        return 2.0 * np.pi * (index % self.n_cameras) / self.n_cameras

    def camera_position(self, index: int) -> np.ndarray:
        """Camera center in rig coordinates (meters, XY plane)."""
        yaw = self.camera_yaw(index)
        return self.radius * np.array([np.cos(yaw), np.sin(yaw)])

    def pair_baseline(self) -> float:
        """Distance between adjacent cameras (the stereo baseline)."""
        return float(2.0 * self.radius * np.sin(np.pi / self.n_cameras))

    def stereo_pairs(self) -> list[tuple[int, int]]:
        """Adjacent-camera pairs around the ring (paper: 8 pairs for 16)."""
        return [(i, (i + 1) % self.n_cameras) for i in range(0, self.n_cameras, 2)]

    # ------------------------------------------------------------------
    def _ray_grid(self, yaw: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-pixel ray azimuth and tangent-of-elevation for one camera."""
        xs = np.arange(self.sim_width, dtype=np.float64) - (self.sim_width - 1) / 2.0
        ys = (self.sim_height - 1) / 2.0 - np.arange(self.sim_height, dtype=np.float64)
        azimuths = yaw + np.arctan(xs / self.focal)  # (W,)
        tan_elevation = ys / self.focal  # (H,)
        azimuth_grid = np.broadcast_to(azimuths[None, :], (self.sim_height, self.sim_width))
        elev_grid = np.broadcast_to(tan_elevation[:, None], (self.sim_height, self.sim_width))
        return azimuth_grid, elev_grid

    def _background_hit(
        self, position: np.ndarray, azimuth: np.ndarray, scene: PanoramicScene
    ) -> tuple[np.ndarray, np.ndarray]:
        """Range and world azimuth where rays meet the background cylinder."""
        ux = np.cos(azimuth)
        uy = np.sin(azimuth)
        # Solve |p + t u| = D for t > 0.
        p_dot_u = position[0] * ux + position[1] * uy
        radicand = p_dot_u**2 + scene.background_distance**2 - float(position @ position)
        t = -p_dot_u + np.sqrt(np.maximum(radicand, 0.0))
        hit_x = position[0] + t * ux
        hit_y = position[1] + t * uy
        world_azimuth = np.arctan2(hit_y, hit_x) % (2.0 * np.pi)
        return t, world_azimuth

    def render_camera(
        self, scene: PanoramicScene, index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Render camera ``index``: returns ``(rgb, depth)``.

        Depth is the horizontal range to the visible surface in meters
        (background cylinder or nearest occluding object).
        """
        yaw = self.camera_yaw(index)
        position = self.camera_position(index)
        azimuth, tan_elev = self._ray_grid(yaw)

        # --- background ---------------------------------------------------
        t_bg, world_azimuth = self._background_hit(position, azimuth, scene)
        pano_h, pano_w = scene.background.shape
        u = world_azimuth / (2.0 * np.pi) * (pano_w - 1)
        world_height = tan_elev * t_bg
        v = (1.0 - (world_height / scene.background_half_height + 1.0) / 2.0) * (pano_h - 1)
        v = np.clip(v, 0.0, pano_h - 1)
        u0 = np.floor(u).astype(np.intp)
        v0 = np.floor(v).astype(np.intp)
        u1 = (u0 + 1) % pano_w
        v1 = np.minimum(v0 + 1, pano_h - 1)
        wu = u - u0
        wv = v - v0
        bg = (
            scene.background[v0, u0] * (1 - wu) * (1 - wv)
            + scene.background[v0, u1] * wu * (1 - wv)
            + scene.background[v1, u0] * (1 - wu) * wv
            + scene.background[v1, u1] * wu * wv
        )
        intensity = bg.copy()
        tint_r = np.full_like(bg, 0.95)
        tint_g = np.full_like(bg, 1.0)
        tint_b = np.full_like(bg, 0.9)
        depth = t_bg.copy()

        # --- objects, far to near (painter's algorithm) -------------------
        for obj in sorted(scene.objects, key=lambda o: -o.distance):
            center = obj.distance * np.array([np.cos(obj.azimuth), np.sin(obj.azimuth)])
            rel = center - position
            rng_to_obj = float(np.hypot(rel[0], rel[1]))
            bearing = np.arctan2(rel[1], rel[0])
            delta = (bearing - yaw + np.pi) % (2.0 * np.pi) - np.pi
            if abs(delta) > self.hfov / 2.0 + 0.3:
                continue  # entirely outside this camera's view
            px = (self.sim_width - 1) / 2.0 + self.focal * np.tan(delta)
            py = (self.sim_height - 1) / 2.0 - self.focal * (obj.height / rng_to_obj)
            pr = self.focal * (obj.radius / rng_to_obj)
            ys, xs = np.mgrid[0 : self.sim_height, 0 : self.sim_width]
            rho = np.sqrt(((ys - py) / max(pr, 1e-9)) ** 2 + ((xs - px) / max(pr, 1e-9)) ** 2)
            mask = rho <= 1.0
            if not mask.any():
                continue
            # Sample the object's own texture in its local frame.
            tex_h, tex_w = obj.texture.shape
            tu = np.clip(((xs - px) / max(pr, 1e-9) + 1.0) / 2.0 * (tex_w - 1), 0, tex_w - 1)
            tv = np.clip(((ys - py) / max(pr, 1e-9) + 1.0) / 2.0 * (tex_h - 1), 0, tex_h - 1)
            tex = obj.texture[tv.astype(np.intp), tu.astype(np.intp)]
            intensity = np.where(mask, tex, intensity)
            tint_r = np.where(mask, obj.tint[0], tint_r)
            tint_g = np.where(mask, obj.tint[1], tint_g)
            tint_b = np.where(mask, obj.tint[2], tint_b)
            depth = np.where(mask, rng_to_obj, depth)

        rgb = np.stack(
            [
                np.clip(intensity * tint_r, 0.0, 1.0),
                np.clip(intensity * tint_g, 0.0, 1.0),
                np.clip(intensity * tint_b, 0.0, 1.0),
            ],
            axis=-1,
        )
        return rgb, depth

    # ------------------------------------------------------------------
    def capture(
        self, scene: PanoramicScene, noise_sigma: float = 0.005,
        seed: int | np.random.Generator | None = 0,
    ) -> RigFrameSet:
        """Capture one synchronized frame set (Bayer raw per camera)."""
        rng = make_rng(seed)
        raw, rgbs, depths = [], [], []
        for index in range(self.n_cameras):
            rgb, depth = self.render_camera(scene, index)
            if noise_sigma > 0:
                rgb = np.clip(rgb + rng.normal(0.0, noise_sigma, rgb.shape), 0.0, 1.0)
            raw.append(bayer_mosaic(rgb))
            rgbs.append(rgb)
            depths.append(depth)
        return RigFrameSet(raw=tuple(raw), rgb=tuple(rgbs), depth=tuple(depths), rig=self)
