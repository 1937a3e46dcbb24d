"""repro — reproduction of "Towards Comprehensive Repositories of Opinions".

An end-to-end implementation of the recommendation-sharing provider (RSP)
envisioned by Zhang et al. (HotNets-XV 2016): implicit inference of user
opinions from passively monitored activity, privacy-preserving anonymous
storage of interaction histories, and detection of fake activity — together
with a synthetic review ecosystem that reproduces the paper's measurement
study.

Subpackages
-----------
``repro.util``         seeded randomness, distributions, statistics, clock
``repro.world``        physical-world simulator (ground truth)
``repro.measurement``  Section 2 measurement study (Table 1, Figure 1)
``repro.sensing``      device sensors and entity resolution
``repro.client``       the RSP smartphone app
``repro.privacy``      anonymous uploads, unlinkable history storage, blind tokens
``repro.fraud``        fake-activity detection and the attacker zoo
``repro.core``         opinion inference, aggregation, visualizations
``repro.service``      the RSP server
"""

__version__ = "1.0.0"
