// Umbrella public header for the OSU-MAC library.
//
// Include this to get the full public API:
//   - osumac::mac::Cell            — a simulated cell (base station +
//                                    subscribers + channels), the main entry
//   - osumac::mac::BaseStation     — scheduling / registration / ACK logic
//   - osumac::mac::MobileSubscriber— the subscriber state machine
//   - osumac::mac::MacPolicy       — the pluggable MAC-policy seam: the
//                                    PolicyCell driver plus the RQMA and
//                                    PCA tenants (src/mac/policies)
//   - osumac::traffic::*           — Poisson workloads and the load-index math
//   - osumac::exp::*               — declarative scenario specs and the
//                                    parallel sweep runner
//   - osumac::metrics::*           — the paper's evaluation metrics
//   - osumac::obs::*               — event tracing, lifecycle spans, metrics
//                                    registry, SLO monitor, flight recorder,
//                                    timeline reconstruction, provenance
//   - osumac::fec::ReedSolomon     — RS(64,48) / RS(32,9) codecs
//   - osumac::phy::*               — channel and radio models, Table-1 params
//   - osumac::baselines::*         — PRMA, D-TDMA, RAMA, DRMA, slotted ALOHA
//   - osumac::analysis::*          — the protocol-invariant auditor and the
//                                    flight-recorder trigger policy
//
// See README.md for a quickstart and DESIGN.md for the architecture.
#pragma once

#include "analysis/flight_observer.h"
#include "analysis/policy_audit.h"
#include "analysis/protocol_auditor.h"
#include "baselines/common.h"
#include "baselines/drma.h"
#include "baselines/dtdma.h"
#include "baselines/fama.h"
#include "baselines/prma.h"
#include "baselines/rama.h"
#include "baselines/rqma.h"
#include "baselines/slotted_aloha.h"
#include "common/bitio.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"
#include "exp/emit.h"
#include "exp/network_run.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/scenario_io.h"
#include "exp/seed.h"
#include "fec/gf256.h"
#include "fec/reed_solomon.h"
#include "mac/base_station.h"
#include "mac/cell.h"
#include "mac/config.h"
#include "mac/contention.h"
#include "mac/control_fields.h"
#include "mac/cycle_layout.h"
#include "mac/forward_scheduler.h"
#include "mac/gps_slot_manager.h"
#include "mac/ids.h"
#include "mac/mac_policy.h"
#include "mac/network.h"
#include "mac/packet.h"
#include "mac/policies/pca_policy.h"
#include "mac/policies/rqma_policy.h"
#include "mac/policy_cell.h"
#include "mac/round_robin.h"
#include "mac/subscriber.h"
#include "mac/substrate.h"
#include "metrics/cell_metrics.h"
#include "metrics/experiment.h"
#include "metrics/tracer.h"
#include "obs/event.h"
#include "obs/event_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/provenance.h"
#include "obs/run_journal.h"
#include "obs/sinks.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "obs/timeline.h"
#include "obs/wallclock.h"
#include "phy/channel.h"
#include "phy/error_model.h"
#include "phy/phy_params.h"
#include "phy/radio.h"
#include "sim/simulator.h"
#include "traffic/workload.h"
