"""A ``threads > 1`` campaign is a plain
:class:`~repro.campaigns.campaign.Campaign`; this name stays only
because the benchmark harness (``perfbench/child.py``) imports it to
probe the fleet workload.
"""

from repro.campaigns.campaign import Campaign as ParallelCampaign  # noqa: F401
