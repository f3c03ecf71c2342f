"""Trust evaluation on heterogeneous social-IoT graphs.

Library layout:

- ``graph``: typed user/object graph, dataset loaders, role views, splits
- ``embed``: comment-based user vectors, translation-based entity vectors
- ``ppr``: sparse forward-push personalized PageRank and top-k trust augmentation
- ``conv``: dual-role attention convolution and gated fusion
- ``predict``: pairwise trust head, loss, classification metrics
- ``train``: autodiff-driven training loop, Adam, gradient checking
- ``experiment``: config-driven runs, ablations, sweeps
- ``fixtures``: deterministic synthetic dataset generators
- ``cli``: the ``trustnet`` command
"""

__version__ = "0.1.0"
