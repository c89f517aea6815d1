// Event-free, exact pricing of unchunked ring plans.
//
// A lowered ring plan is a chain of stages, each a set of synchronous ring
// passes (coll/ring.h): every step a pass sends one chunk per rank and
// waits at a barrier for the last arrival. PriceRingPlan replays that
// schedule without the event queue. Per stage it groups the passes into
// link-coupled components (passes that share a directed link), runs each
// component through a tiny pass-level queue ordered as the simulator orders
// barrier completions, and prices each distinct component once: components
// with equal descriptions start at the same time and end at bit-equal
// times. Every hop goes through Network::ReserveHop, the arithmetic the
// simulated network uses, and the sharded-update barrier ends where the
// simulator's would, so the timeline equals the simulation bit for bit.
// DESIGN.md §9 carries the argument.
#pragma once

#include "common/units.h"
#include "network/network.h"
#include "plan/executor.h"
#include "plan/schedule.h"

namespace tpu::plan {

// True when PriceRingPlan prices `lowered`: an unchunked plan whose stages
// are all ring stages. Halving-doubling stages and chunk-pipelined plans
// run on the simulator.
bool RingPricerApplies(const LoweredPlan& lowered);

// The StageTimeline RunLoweredPlan records for `lowered` under `config`
// from simulated time 0, bit for bit, without running its simulator:
// every stage end and, with config.shard_update_seconds, the end of the
// sharded-update barrier. SummarizeTimeline (plan/executor.h) turns it into
// RunLoweredPlan's result. Deadline monitoring needs the simulator and must
// be off. `network` must be idle at simulated time 0 and carry the link
// health to price under; only its routes and link health are read.
StageTimeline PriceRingPlan(const net::Network& network,
                            const LoweredPlan& lowered,
                            const PlanExecutionConfig& config = {});

}  // namespace tpu::plan
