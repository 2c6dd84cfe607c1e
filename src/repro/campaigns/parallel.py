"""The supervised fleet is :class:`~repro.campaigns.campaign.Campaign`
with ``threads > 1``; this name stays only because the benchmark
harness (``perfbench/child.py``) imports it to probe the fleet workload.
"""

from repro.campaigns.campaign import Campaign as ParallelCampaign  # noqa: F401
