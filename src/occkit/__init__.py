"""Occupancy-centric driving scene toolkit, in float64 numpy that gives the
same numbers on every run. Its five stages: curate labelled point clouds into
semantic occupancy grids (``pipeline``); rasterize BEV layouts and stamp them
into grids (``core``); compress grids with a BEV-flattened VAE trained by
hand-written backward passes (``vae``, ``nn``, ``losses``); raycast per-camera
semantic, coordinate and Plücker condition buffers, and densify the rig from
6 to 12 to 24 cameras (``render``); and score the results (``metrics``).
"""

__version__ = "0.1.0"
